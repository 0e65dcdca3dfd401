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

from .core import Hypergraph3, ParseError, is_k4


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
        is_k4(h, vs[i], vs[i + 1], vs[i + 2], vs[i + 3])
        for i in range(len(vs) - 3)
    )


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
