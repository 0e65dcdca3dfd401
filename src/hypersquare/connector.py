"""Bounded search for short squared paths between edge triples, plus the
reservoir that connections are later routed through.

The search state is the ordered triple of the last three placed vertices:
appending u to state (p, q, r) is legal iff pqu, pru, qru are all edges,
which makes the new window p, q, r, u a tetrahedron.  States are explored
breadth first, one internal vertex per level, and a returned connection is
always a certified squared path.  Up to three internal vertices a state
names its whole interior, so no connection that short is missed unless the
budget cuts a level: a level stops, without notice, once it holds
``DEFAULT_BUDGET`` states.  Past three, a state reached again through other
interior vertices is dropped, so a connection can be missed and a longer one
returned.
"""

from __future__ import annotations

import dataclasses
import random

from .certify import VertexSeq, is_squared_path
from .core import Config, Hypergraph3, ResourceLimitError, bits_of, derive_seed, mask_of

# most states the search keeps on one level
DEFAULT_BUDGET = 10**6
# reservoir samples drawn before giving up on the size bound
RESERVOIR_RETRIES = 64
# largest n**m that count_connections will enumerate
ENUMERATION_GUARD = 10**8


@dataclasses.dataclass
class Reservoir:
    """Vertex pool for connections; ``used`` grows as interiors are consumed.

    Single-writer: concurrent connections against one reservoir must be
    serialized by the caller.
    """

    members: int
    used: int = 0

    @property
    def available(self) -> int:
        return self.members & ~self.used

    @property
    def member_count(self) -> int:
        return self.members.bit_count()

    @property
    def used_count(self) -> int:
        return self.used.bit_count()


def reservoir_probability(cfg: Config) -> float:
    """Per-vertex inclusion probability (1 - 3/(10 M)) * theta_star**2."""
    return (1.0 - 3.0 / (10.0 * cfg.cap_m)) * cfg.theta_star**2


def sample_reservoir(h: Hypergraph3, cfg: Config) -> Reservoir:
    """Independent vertex sample; resampled with a stepped seed while the
    realized size exceeds theta_star**2 * n."""
    p = reservoir_probability(cfg)
    bound = cfg.theta_star**2 * h.n
    for attempt in range(RESERVOIR_RETRIES):
        rng = random.Random(derive_seed(cfg.seed, "reservoir", attempt))
        members = 0
        for v in range(h.n):
            if rng.random() < p:
                members |= 1 << v
        if members.bit_count() <= bound:
            return Reservoir(members)
    raise ResourceLimitError(
        f"reservoir within size bound {bound:.2f} not found in "
        f"{RESERVOIR_RETRIES} samples"
    )


def _check_endpoints(h, abc, xyz):
    ends = []
    for t, name in ((abc, "start triple"), (xyz, "end triple")):
        t = tuple(t)
        if len(t) != 3:
            raise ValueError(f"{name} must have exactly 3 vertices")
        for v in t:
            h.check_vertex(v, name)
        if not h.has_edge(*t):
            raise ValueError(f"{name} {t} is not an edge")
        ends.append(t)
    abc, xyz = ends
    if len(set(abc + xyz)) != 6:
        raise ValueError("the six end vertices must be pairwise distinct")
    return abc, xyz


def _closes(pn, p: int, q: int, r: int, x: int, y: int, z: int) -> bool:
    # appending x, y, z to state (p, q, r) via three legal transitions;
    # xyz itself is an edge by precondition
    return bool(
        (pn[p][q] >> x) & (pn[p][r] >> x) & (pn[q][r] >> x)
        & (pn[q][r] >> y) & (pn[q][x] >> y) & (pn[r][x] >> y)
        & (pn[r][x] >> z) & (pn[r][y] >> z) & (pn[x][y] >> z)
        & 1
    )


def _search(h, abc, xyz, allowed: int, cap_m: int):
    """BFS over last-three-vertex states; returns the interior tuple of the
    first connection it meets or None."""
    pn = h._pn
    x, y, z = xyz
    frontier: dict[tuple[int, int, int], tuple[int, ...]] = {abc: ()}
    for _depth in range(cap_m):
        for (p, q, r), interior in frontier.items():
            if _closes(pn, p, q, r, x, y, z):
                return interior
        if _depth == cap_m - 1:
            break
        nxt: dict[tuple[int, int, int], tuple[int, ...]] = {}
        for (p, q, r), interior in frontier.items():
            cands = pn[p][q] & pn[p][r] & pn[q][r] & allowed
            for u in interior:
                cands &= ~(1 << u)
            for u in bits_of(cands):
                state = (q, r, u)
                if state not in nxt:
                    nxt[state] = interior + (u,)
                    if len(nxt) >= DEFAULT_BUDGET:
                        break
            if len(nxt) >= DEFAULT_BUDGET:
                break
        if not nxt:
            return None
        frontier = nxt
    return None


def _route(h, abc, xyz, pool: int, forbidden, cap_m: int) -> VertexSeq | None:
    """The certified squared path that _search finds from abc to xyz with
    internal vertices in pool and not forbidden, or None."""
    abc, xyz = _check_endpoints(h, abc, xyz)
    if cap_m < 1:
        raise ValueError("cap_m must be at least 1")
    fmask = forbidden if isinstance(forbidden, int) else mask_of(forbidden)
    ends = mask_of(abc + xyz)
    if fmask & ends:
        raise ValueError("end vertices may not be forbidden")
    interior = _search(h, abc, xyz, pool & ~fmask & ~ends, cap_m)
    if interior is None:
        return None
    seq = VertexSeq(abc + interior + xyz)
    if not is_squared_path(h, seq):
        raise AssertionError(f"connection {abc} -> {xyz} is not a squared path")
    return seq


def connect(
    h: Hypergraph3, abc, xyz, forbidden=0, cap_m: int = Config.cap_m
) -> VertexSeq | None:
    """Squared path from abc to xyz with fewer than cap_m internal vertices,
    none of them forbidden, or None when the search finds none (see the
    module docstring for when that search is exact).

    Precondition violations (non-edges, overlapping or forbidden end
    vertices) raise ValueError and are distinct from search failure.
    """
    return _route(h, abc, xyz, h.full_mask, forbidden, cap_m)


def count_connections(h: Hypergraph3, abc, xyz, m: int) -> int:
    """Exact number of ordered interior m-tuples whose concatenation with the
    end triples is a squared path.  Guarded against infeasible enumeration."""
    abc, xyz = _check_endpoints(h, abc, xyz)
    if m < 0:
        raise ValueError("interior length must be nonnegative")
    if h.n**m > ENUMERATION_GUARD:
        raise ResourceLimitError(f"n**m = {h.n}**{m} exceeds the enumeration guard")
    pn = h._pn
    x, y, z = xyz
    ends = mask_of(abc + xyz)

    def rec(p: int, q: int, r: int, used: int, depth: int) -> int:
        if depth == m:
            return 1 if _closes(pn, p, q, r, x, y, z) else 0
        total = 0
        cands = pn[p][q] & pn[p][r] & pn[q][r] & ~used & ~ends
        for u in bits_of(cands):
            total += rec(q, r, u, used | (1 << u), depth + 1)
        return total

    return rec(abc[0], abc[1], abc[2], 0, 0)


def connect_through_reservoir(
    h: Hypergraph3, r: Reservoir, abc, xyz, cap_m: int = Config.cap_m
) -> VertexSeq | None:
    """Like connect, but internal vertices come only from the unused part of
    the reservoir; on success they are marked used."""
    seq = _route(h, abc, xyz, r.available, 0, cap_m)
    if seq is not None:
        r.used |= mask_of(seq.vertices[3:-3])
    return seq
