"""Ground-truth predicates for squared paths, walks, cycles and absorbers.

Everything the other modules construct is checked against the definitions
here.  The predicates are pure and total on well-formed sequences; only
length preconditions raise.

Convention: a 3-vertex open sequence is accepted as a degenerate squared
path iff its triple is an edge.  Connections treat an edge as the shortest
connectable unit, and the window definition only starts at 4 vertices, so
the convention lives here and nowhere else.
"""

from __future__ import annotations

import dataclasses

from .core import Hypergraph3, ParseError


@dataclasses.dataclass(frozen=True)
class VertexSeq:
    """Ordered vertex sequence; ``closed`` distinguishes cycles from paths
    and walks."""

    vertices: tuple[int, ...]
    closed: bool = False

    def __len__(self):
        return len(self.vertices)

    @property
    def start_triple(self) -> tuple[int, int, int]:
        return self.vertices[:3]

    @property
    def end_triple(self) -> tuple[int, int, int]:
        return self.vertices[-3:]

    def reversed(self) -> "VertexSeq":
        return VertexSeq(tuple(reversed(self.vertices)), self.closed)

    def rotated(self, k: int) -> "VertexSeq":
        vs = self.vertices
        k %= len(vs)
        return VertexSeq(vs[k:] + vs[:k], self.closed)


def _window_ok(h: Hypergraph3, a: int, b: int, c: int, d: int) -> bool:
    # all four 3-subsets of the window must be edges; has_edge is total, so
    # a repeated vertex inside the window simply fails
    return (
        h.has_edge(a, b, c)
        and h.has_edge(a, b, d)
        and h.has_edge(a, c, d)
        and h.has_edge(b, c, d)
    )


def is_squared_path(h: Hypergraph3, s: VertexSeq) -> bool:
    """Entries distinct and every 3-subset of every 4 consecutive vertices
    an edge; a 3-vertex sequence is accepted iff it is an edge."""
    if s.closed:
        raise ValueError("expected an open sequence")
    vs = s.vertices
    if len(vs) < 3:
        raise ValueError("squared paths need at least 3 vertices")
    if len(set(vs)) != len(vs):
        return False
    return is_squared_walk(h, s)


def is_squared_cycle(h: Hypergraph3, s: VertexSeq) -> bool:
    """Entries distinct and every cyclic window of 4 consecutive vertices
    spans a tetrahedron.  Cycles shorter than 5 are rejected as arguments."""
    if not s.closed:
        raise ValueError("expected a closed sequence")
    vs = s.vertices
    if len(vs) < 5:
        raise ValueError("squared cycles need at least 5 vertices")
    if len(set(vs)) != len(vs):
        return False
    # the cyclic windows are the windows of the walk that repeats the first
    # three vertices at the end
    return is_squared_walk(h, VertexSeq(vs + vs[:3]))


def is_squared_walk(h: Hypergraph3, s: VertexSeq) -> bool:
    """Like is_squared_path but repeats at distance >= 4 are allowed.
    A repeat inside a 4-window can never satisfy the edge condition."""
    if s.closed:
        raise ValueError("expected an open sequence")
    vs = s.vertices
    if len(vs) < 3:
        raise ValueError("squared walks need at least 3 vertices")
    if len(vs) == 3:
        return h.has_edge(*vs)
    return all(
        _window_ok(h, vs[i], vs[i + 1], vs[i + 2], vs[i + 3])
        for i in range(len(vs) - 3)
    )


def is_squared_v_walk(
    h: Hypergraph3, v: int, abc, xyz, interior=()
) -> bool:
    """True iff a,b,c,interior...,x,y,z is a tight walk in the hypergraph
    and a squared walk in the link graph of v.

    The end triples must be edges and v must avoid all sequence vertices;
    those are preconditions, not outcomes.
    """
    abc = tuple(abc)
    xyz = tuple(xyz)
    interior = tuple(interior)
    if not h.has_edge(*abc):
        raise ValueError(f"start triple {abc} is not an edge")
    if not h.has_edge(*xyz):
        raise ValueError(f"end triple {xyz} is not an edge")
    h.check_vertex(v)
    seq = abc + interior + xyz
    if v in seq:
        raise ValueError("v must avoid the walk vertices")
    for i in range(len(seq) - 2):
        if not h.has_edge(seq[i], seq[i + 1], seq[i + 2]):
            return False
    for i in range(len(seq)):
        for j in (i + 1, i + 2):
            if j < len(seq) and not h.has_edge(v, seq[i], seq[j]):
                return False
    return True


def is_v_absorber(h: Hypergraph3, v: int, t) -> bool:
    """True iff t = (a..f) has 6 distinct vertices, none equal to v, and both
    abcdef and abcvdef are squared paths.  Violations yield False."""
    t = tuple(t)
    if len(t) != 6 or len(set(t)) != 6 or v in t:
        return False
    plain = VertexSeq(t)
    spliced = VertexSeq(t[:3] + (v,) + t[3:])
    return is_squared_path(h, plain) and is_squared_path(h, spliced)


def certify_hamiltonian(h: Hypergraph3, s: VertexSeq) -> bool:
    """Squared cycle through every vertex of h."""
    if not is_squared_cycle(h, s):
        return False
    return set(s.vertices) == set(range(h.n))


# Sequence text format: space-separated vertex ids, "C " prefix for closed.


def parse_sequence(text: str) -> VertexSeq:
    parts = text.split()
    closed = False
    if parts and parts[0].upper() == "C":
        closed = True
        parts = parts[1:]
    try:
        vs = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(1, f"non-integer vertex in sequence {text!r}") from None
    if not vs:
        raise ParseError(1, "empty sequence")
    return VertexSeq(vs, closed)


def format_sequence(s: VertexSeq) -> str:
    body = " ".join(str(v) for v in s.vertices)
    return f"C {body}" if s.closed else body
