"""Auxiliary graphs over a hypergraph and walk counting inside them.

The three graph families encode how richly pairs of vertices are joined by
tetrahedra: G3 on all vertices (shared tetrahedron completions of an edge),
Gv relative to a fixed apex v, and Gvw on the joint neighborhood of a fixed
pair.  G3 and Gv count the same thing, edges whose tetrahedron completions
two vertices share, over different anchor pairs (every pair for G3, the
pairs v a for Gv), so one incidence builder makes both.  Counts use ordered
tuples, exactly matching the set-builder definitions; the unordered counters
are scaled by 6 resp. 2 to avoid a silent factor.
"""

from __future__ import annotations

import dataclasses
import math
import random

from .core import AuxGraph, Hypergraph3, bits_of, columns_of_rows, derive_seed


def _tetrahedron_incidence(h: Hypergraph3, anchors: list[tuple[int, int]]) -> list[int]:
    """incidence[x] holds one bit per edge abc with (a, b) an anchor and
    c > b for which abcx is a tetrahedron, at the same position for every x.

    One row per such edge abc holds the x that complete it,
    N(a, b) & N(a, c) & N(b, c); the rows are written as 64-bit words into
    one buffer, and incidence[x] is column x of it."""
    n = h.n
    pn = h._pn
    groups = max(1, (n + 63) // 64)
    width = 8 * groups
    rows = bytearray()
    for a, b in anchors:
        pa, pb = pn[a], pn[b]
        ab = pa[b]
        # a bit test per c beats walking the set bits of a dense N(a, b)
        for c in range(b + 1, n):
            if (ab >> c) & 1:
                rows += (ab & pa[c] & pb[c]).to_bytes(width, "little")
    return columns_of_rows(rows, groups)[:n]


def _shared_tetrahedra_graph(
    h: Hypergraph3,
    vmask: int,
    anchors: list[tuple[int, int]],
    scale: int,
    threshold: float,
) -> AuxGraph:
    """Graph on ``vmask``; xy adjacent iff ``scale`` times the number of
    edges abc with (a, b) an anchor, c > b, and both abcx and abcy
    tetrahedra is at least ``threshold``."""
    n = h.n
    incidence = _tetrahedron_incidence(h, anchors)
    adj = [0] * n
    members = list(bits_of(vmask))
    for xi, x in enumerate(members):
        ix = incidence[x]
        if not ix:
            continue
        for y in members[xi + 1 :]:
            if scale * (ix & incidence[y]).bit_count() >= threshold:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return AuxGraph(n, vmask, adj)


def build_g3(h: Hypergraph3, beta: float) -> AuxGraph:
    """Graph on all vertices; xy adjacent iff the number of ordered triples
    (a, b, c) with both abcx and abcy tetrahedra is at least beta * n**3."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    n = h.n
    anchors = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return _shared_tetrahedra_graph(h, h.full_mask, anchors, 6, beta * n**3)


def build_gv(h: Hypergraph3, v: int, beta: float) -> AuxGraph:
    """Graph on V minus v; xy adjacent iff the number of ordered pairs (a, b)
    with both xabv and yabv tetrahedra is at least beta * n**2."""
    h.check_vertex(v)
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    n = h.n
    # the edges v a b with b > a are exactly v's link pairs ab
    anchors = [(v, a) for a in range(n) if a != v]
    vmask = h.full_mask & ~(1 << v)
    return _shared_tetrahedra_graph(h, vmask, anchors, 2, beta * n**2)


def build_gvw(h: Hypergraph3, v: int, w: int) -> AuxGraph:
    """Graph on N(v, w); u and u' adjacent iff uu'vw is a tetrahedron."""
    h.check_vertex(v)
    h.check_vertex(w)
    if v == w:
        raise ValueError("needs two distinct vertices")
    pn = h._pn
    vset = pn[v][w]
    adj = [0] * h.n
    for u in bits_of(vset):
        adj[u] = pn[u][v] & pn[u][w] & vset & ~(1 << u)
    return AuxGraph(h.n, vset, adj)


def walk_count_table(g: AuxGraph, source: int, length: int) -> tuple[int, ...]:
    """Exact number of walks of ``length`` from ``source`` to each vertex,
    indexed by vertex."""
    if not g.has_vertex(source):
        raise ValueError(f"source {source} not in the graph")
    if length < 0:
        raise ValueError("length must be nonnegative")
    counts = [0] * g.n
    counts[source] = 1
    for _ in range(length):
        nxt = [0] * g.n
        for v in bits_of(g.vmask):
            nxt[v] = sum(counts[u] for u in bits_of(g.neighbors_mask(v)))
        counts = nxt
    return tuple(counts)


@dataclasses.dataclass(frozen=True)
class ExpansionReport:
    """Outcome of an edge-expansion check over admissible bipartitions.

    A partition X, Y of the vertex set is admissible when both sides have
    at least sqrt(gamma) * |V| vertices; a violation is an admissible
    partition with fewer than gamma * |V|**2 crossing edges.  Exhaustive
    verdicts are certified; heuristic ones (|V| > 20) are labelled and a
    'no violation found' answer then proves nothing.
    """

    gamma: float
    threshold: float
    side_min: float
    exhaustive: bool
    violation_found: bool
    best_side: tuple[int, ...]
    best_crossing: int | None


def expansion_report(
    g: AuxGraph, gamma: float, effort: int = 200, seed: int = 0
) -> ExpansionReport:
    """Search for a sparse admissible cut.  Exhaustive up to 20 vertices,
    seeded random restarts with single-vertex-move descent beyond that."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    members = g.vertices()
    nv = len(members)
    side_min = math.sqrt(gamma) * nv
    threshold = gamma * nv * nv
    adjrows = [g.neighbors_mask(v) for v in range(g.n)]

    best_crossing = None
    best_side: tuple[int, ...] = ()
    exhaustive = nv <= 20

    if exhaustive:
        if nv >= 2 and side_min <= nv / 2:
            # X is the anchor plus rest[i] for each bit i of sub.  Gray-code
            # order moves one vertex per step, which changes the cut by a
            # delta; keeping the least (cut, sub) breaks ties as counting did.
            anchor, rest = members[0], members[1:]
            moves = [(1 << v, adjrows[v], adjrows[v].bit_count()) for v in rest]
            xmask = 1 << anchor
            cut = adjrows[anchor].bit_count()
            best_sub = best_mask = 0
            for step in range(1 << len(rest)):
                if step:
                    bit, row, deg = moves[(step & -step).bit_length() - 1]
                    # entering X, the vertex's edges into X stop crossing
                    delta = deg - 2 * (row & xmask).bit_count()
                    cut += -delta if xmask & bit else delta
                    xmask ^= bit
                xsize = xmask.bit_count()
                if xsize < side_min or nv - xsize < side_min:
                    continue
                sub = step ^ (step >> 1)
                if best_crossing is None or (cut, sub) < (best_crossing, best_sub):
                    best_crossing, best_sub, best_mask = cut, sub, xmask
            best_side = tuple(bits_of(best_mask))
    else:
        rng = random.Random(derive_seed(seed, "expansion"))
        lo = math.ceil(side_min)
        hi = nv - lo
        for _ in range(max(1, effort)):
            if lo > hi:
                break
            xsize = rng.randint(lo, hi)
            xmask = 0
            for v in rng.sample(members, xsize):
                xmask |= 1 << v
            cut = sum((adjrows[v] & ~xmask).bit_count() for v in bits_of(xmask))
            improved = True
            while improved:
                improved = False
                for v in members:
                    inx = (xmask >> v) & 1
                    if (xsize - 1 if inx else nv - xsize - 1) < lo:
                        continue
                    # moving v makes its edges into its own side cross and
                    # its crossing edges internal
                    row = adjrows[v]
                    own = (row & (xmask if inx else ~xmask)).bit_count()
                    new_cut = cut + 2 * own - row.bit_count()
                    if new_cut < cut:
                        xmask ^= 1 << v
                        xsize = xmask.bit_count()
                        cut = new_cut
                        improved = True
            if best_crossing is None or cut < best_crossing:
                best_crossing = cut
                best_side = tuple(bits_of(xmask))
    return ExpansionReport(
        gamma,
        threshold,
        side_min,
        exhaustive,
        best_crossing is not None and best_crossing < threshold,
        best_side,
        best_crossing,
    )
