"""Auxiliary graphs over a hypergraph and walk counting inside them.

The three graph families encode how richly pairs of vertices are joined by
tetrahedra: G3 on all vertices (shared tetrahedron completions of an edge),
Gv relative to a fixed apex v, and Gvw on the joint neighborhood of a fixed
pair.  Counts use ordered tuples, exactly matching the set-builder
definitions; the unordered counters below are scaled by 6 resp. 2 to avoid a
silent factor.
"""

from __future__ import annotations

import dataclasses
import math
import random

from .core import AuxGraph, Hypergraph3, bits_of, derive_seed


def build_g3(h: Hypergraph3, beta: float) -> AuxGraph:
    """Graph on all vertices; xy adjacent iff the number of ordered triples
    (a, b, c) with both abcx and abcy tetrahedra is at least beta * n**3."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    n = h.n
    pn = h._pn
    # incidence[x] holds one bit per edge abc (a < b < c) with abcx a
    # tetrahedron, so the pair count is a popcount of an AND.  Pair ab owns
    # one chunk of ``width`` bytes in every incidence[x]; bit c - b - 1 of it
    # stands for the edge abc.  For x in N(a, b), the c it holds are
    # N(a, b) & N(a, x) & N(b, x) above b.  Chunks are joined as bytes, as
    # ORing bits into a growing int would be quadratic.
    width = (n + 7) // 8
    empty = bytes(width)
    incidence = []
    for x in range(n):
        chunks = []
        for a in range(n):
            row_a = pn[a]
            ax = row_a[x]
            for b in range(a + 1, n):
                ab = row_a[b]
                if (ab >> x) & 1:
                    chunk = (ab & ax & pn[b][x]) >> (b + 1)
                    chunks.append(chunk.to_bytes(width, "little"))
                else:
                    chunks.append(empty)
        incidence.append(int.from_bytes(b"".join(chunks), "little"))
    threshold = beta * n**3
    adj = [0] * n
    for x in range(n):
        ix = incidence[x]
        if not ix:
            continue
        for y in range(x + 1, n):
            shared = (ix & incidence[y]).bit_count()
            if 6 * shared >= threshold:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return AuxGraph(n, h.full_mask, adj)


def build_gv(h: Hypergraph3, v: int, beta: float) -> AuxGraph:
    """Graph on V minus v; xy adjacent iff the number of ordered pairs (a, b)
    with both xabv and yabv tetrahedra is at least beta * n**2."""
    h.check_vertex(v)
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    n = h.n
    pn = h._pn
    link_pairs = []
    for a in range(n):
        if a == v:
            continue
        for b in bits_of(pn[v][a]):
            if b > a:
                link_pairs.append((a, b))
    incidence = [0] * n
    for i, (a, b) in enumerate(link_pairs):
        # w completing {a, b, v} to a tetrahedron
        for w in bits_of(pn[a][b] & pn[a][v] & pn[b][v]):
            incidence[w] |= 1 << i
    vmask = h.full_mask & ~(1 << v)
    threshold = beta * n**2
    adj = [0] * n
    members = list(bits_of(vmask))
    for xi, x in enumerate(members):
        ix = incidence[x]
        if not ix:
            continue
        for y in members[xi + 1 :]:
            shared = (ix & incidence[y]).bit_count()
            if 2 * shared >= threshold:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return AuxGraph(n, vmask, adj)


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


@dataclasses.dataclass(frozen=True)
class WalkCountTable:
    """Exact per-target walk counts of a fixed length from one source."""

    source: int
    length: int
    counts: tuple[int, ...]


def walk_count_table(g: AuxGraph, source: int, length: int) -> WalkCountTable:
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
    return WalkCountTable(source, length, tuple(counts))


def count_walks(g: AuxGraph, x: int, y: int, s: int) -> int:
    """Exact number of x-y walks of length s, by dynamic programming."""
    if not g.has_vertex(x) or not g.has_vertex(y):
        raise ValueError("walk endpoints must be graph vertices")
    if s < 0:
        raise ValueError("walk length must be nonnegative")
    return walk_count_table(g, x, s).counts[y]


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


def _crossing(adjrows, xmask: int, ymask: int) -> int:
    total = 0
    m = xmask
    while m:
        low = m & -m
        total += (adjrows[low.bit_length() - 1] & ymask).bit_count()
        m ^= low
    return total


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

    if nv <= 20:
        if nv >= 2 and side_min <= nv / 2:
            anchor, rest = members[0], members[1:]
            for sub in range(1 << len(rest)):
                xmask = 1 << anchor
                m = sub
                while m:
                    low = m & -m
                    xmask |= 1 << rest[low.bit_length() - 1]
                    m ^= low
                xsize = xmask.bit_count()
                if xsize < side_min or nv - xsize < side_min:
                    continue
                cut = _crossing(adjrows, xmask, g.vmask & ~xmask)
                if best_crossing is None or cut < best_crossing:
                    best_crossing = cut
                    best_side = tuple(bits_of(xmask))
        return ExpansionReport(
            gamma,
            threshold,
            side_min,
            True,
            best_crossing is not None and best_crossing < threshold,
            best_side,
            best_crossing,
        )

    rng = random.Random(derive_seed(seed, "expansion"))
    lo = math.ceil(side_min)
    hi = nv - lo
    for _ in range(max(1, effort)):
        if lo > hi:
            break
        size = rng.randint(lo, hi)
        side = rng.sample(members, size)
        xmask = 0
        for v in side:
            xmask |= 1 << v
        cut = _crossing(adjrows, xmask, g.vmask & ~xmask)
        improved = True
        while improved:
            improved = False
            for v in members:
                inx = bool((xmask >> v) & 1)
                xsize = xmask.bit_count()
                if inx and xsize - 1 < lo:
                    continue
                if not inx and nv - (xsize + 1) < lo:
                    continue
                new_xmask = xmask ^ (1 << v)
                new_cut = _crossing(adjrows, new_xmask, g.vmask & ~new_xmask)
                if new_cut < cut:
                    xmask, cut = new_xmask, new_cut
                    improved = True
        if best_crossing is None or cut < best_crossing:
            best_crossing = cut
            best_side = tuple(bits_of(xmask))
    return ExpansionReport(
        gamma,
        threshold,
        side_min,
        False,
        best_crossing is not None and best_crossing < threshold,
        best_side,
        best_crossing,
    )
