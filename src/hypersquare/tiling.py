"""Weighted {K2, K3, K4} tiling by local search, bad-pair pruning, the
almost-perfect tetrahedron factor, and a greedy squared-path cover.

Tile weights are fixed at 2, 6, 11 for sizes 2, 3, 4.  The improving moves
are exactly the exchange arguments that force structure on a maximum-weight
tiling: relocating one vertex into a connecting smaller tile, opening a new
good pair, splitting a K4 down to a K2 while growing two other tiles, and
dissolving a K3 or a K4 into other tiles.  Every move strictly increases the
integer weight, so the search terminates; the result is a local optimum of
this move set, which is all the downstream arguments use.

The search works on grow masks.  A run's only state is its list of tiles;
each round ANDs, for every tile, the good-pair masks of its vertices and the
pair masks of its pairs into the set of vertices the tile can take, and
every move reads those masks.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

from .certify import VertexSeq, is_squared_path
from .core import Config, Hypergraph3, bits_of, derive_seed, mask_of, shuffled_range

WEIGHTS = {2: 2, 3: 6, 4: 11}
# marginal weight gains for growing a tile by one vertex
GROW_GAIN = {2: WEIGHTS[3] - WEIGHTS[2], 3: WEIGHTS[4] - WEIGHTS[3]}
# weight lost when a tile donates one vertex (a K2 donor dissolves)
DONATE_LOSS = {
    2: WEIGHTS[2],
    3: WEIGHTS[3] - WEIGHTS[2],
    4: WEIGHTS[4] - WEIGHTS[3],
}


def classify_pairs(h: Hypergraph3, threshold: int) -> tuple[int, ...]:
    """Pairs with degree below the threshold are bad, the rest good.  Row v
    of the result is the bitset of the vertices u with uv bad."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    mask = [0] * h.n
    pn = h._pn
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if pn[u][v].bit_count() < threshold:
                mask[u] |= 1 << v
                mask[v] |= 1 << u
    return tuple(mask)


def prune_bad_vertices(h: Hypergraph3, tau: float, bad: tuple[int, ...]) -> frozenset[int]:
    """Iteratively drop the vertex in the most bad pairs while some vertex
    sits in at least sqrt(tau) * n of them; every survivor then has fewer."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    limit = math.sqrt(tau) * h.n
    alive = h.full_mask
    while alive:
        worst, worst_cnt = -1, -1
        for v in bits_of(alive):
            cnt = (bad[v] & alive).bit_count()
            if cnt > worst_cnt:
                worst, worst_cnt = v, cnt
        if worst_cnt < limit:
            break
        alive &= ~(1 << worst)
    return frozenset(bits_of(alive))


@dataclasses.dataclass
class Tiling:
    """Vertex-disjoint good tiles of sizes 2, 3, 4."""

    tiles: list[tuple[int, ...]]

    @property
    def weight(self) -> int:
        return sum(WEIGHTS[len(t)] for t in self.tiles)


def _tile_ok(h: Hypergraph3, bad: tuple[int, ...], vs: tuple[int, ...]) -> bool:
    """Good and complete: no bad pair, and all triples present (vacuous for
    pairs)."""
    for a, b in itertools.combinations(vs, 2):
        if (bad[a] >> b) & 1:
            return False
    for t in itertools.combinations(vs, 3):
        if not h.has_edge(*t):
            return False
    return True


def _good_masks(bad: tuple[int, ...], domain: int) -> list[int]:
    """Row v: the domain vertices other than v that form a good pair with v."""
    return [domain & ~row & ~(1 << v) for v, row in enumerate(bad)]


def _grow_mask(h: Hypergraph3, good: list[int], t: tuple[int, ...]) -> int:
    """The vertices x for which t + x is a good complete tile, given that t
    is one: x forms a good pair with every vertex of t and closes every pair
    of t to an edge.  A K4 does not grow."""
    if len(t) == 4:
        return 0
    m = good[t[0]]
    for a in t[1:]:
        m &= good[a]
    for a, b in itertools.combinations(t, 2):
        m &= h._pn[a][b]
    return m


def _move(tiles: list[tuple[int, ...]], moves: list[tuple[int, int]]) -> None:
    """Move vertex x into tile i for each (x, i) in moves.  The donor keeps
    what is left when that is at least a pair and dissolves otherwise."""
    moving = {x for x, _ in moves}
    out = [tuple(v for v in t if v not in moving) for t in tiles]
    for x, i in moves:
        out[i] = tuple(sorted(out[i] + (x,)))
    tiles[:] = [t for t in out if len(t) >= 2]


def _apply_relocation(tiles: list[tuple[int, ...]], grow: list[int], free: int) -> bool:
    """Move one vertex into a connecting tile when the weight rises: from
    nowhere (+4/+5), from a good pair (+2/+3), or from a triangle into
    another triangle (+1).  Returns True when a move was applied."""
    # the domain split by what a vertex's tile loses when the vertex leaves
    sources = [(free, 0)] + [
        (mask_of(v for t in tiles if len(t) == size for v in t), loss)
        for size, loss in DONATE_LOSS.items()
    ]
    best = None
    for idx, g in enumerate(grow):
        if not g:
            continue
        gain = GROW_GAIN[len(tiles[idx])]
        for src, loss in sources:
            cands = g & src
            if cands and gain > loss:
                key = (loss - gain, idx, (cands & -cands).bit_length() - 1)
                if best is None or key < best:
                    best = key
    if best is None:
        return False
    _, idx, x = best
    _move(tiles, [(x, idx)])
    return True


def _apply_new_pair(tiles: list[tuple[int, ...]], good: list[int], free: int) -> bool:
    """Open a good pair on the lowest free vertex with a free partner."""
    for u in bits_of(free):
        # a free partner below u would have paired with u already, so this
        # is the lowest good partner above u
        partners = good[u] & free
        if partners:
            tiles.append((u, (partners & -partners).bit_length() - 1))
            return True
    return False


def _apply_split(tiles: list[tuple[int, ...]], grow: list[int]) -> bool:
    """Moves that break up a donor tile into several receivers:
    two K4 vertices out (K4 -> K2, delta 2g - 9), two K3 vertices out
    (K3 dissolves, delta 2g - 6), or three K4 vertices out (K4 dissolves,
    delta 3g - 11)."""
    best = None
    for didx, t in enumerate(tiles):
        # no grow mask holds its own tile's vertices, so the donor is never
        # among the receivers
        receivers = {x: [i for i, g in enumerate(grow) if (g >> x) & 1] for x in t}
        for m in range(2, len(t)):
            # what the donor loses when m vertices leave it
            loss = WEIGHTS[len(t)] - WEIGHTS.get(len(t) - m, 0)
            for xs in itertools.permutations(t, m):
                for rs in itertools.product(*(receivers[x] for x in xs)):
                    delta = sum(GROW_GAIN[len(tiles[r])] for r in rs) - loss
                    if delta <= 0 or len(set(rs)) < m:
                        continue
                    # a third mover and its receiver sort last, -1 standing
                    # in for none, so two- and three-vertex keys compare
                    tail = xs[2:] + rs[2:] or (-1, -1)
                    key = (-delta, didx, *xs[:2], *rs[:2], *tail)
                    if best is None or key < best[0]:
                        best = (key, list(zip(xs, rs)))
    if best is None:
        return False
    _move(tiles, best[1])
    return True


def _local_search(h: Hypergraph3, domain: list[int], bad: tuple[int, ...], order: list[int]) -> Tiling:
    """One run: greedy good-pair matching in the given vertex order, then
    improving moves until none fires.  The tile list, sorted tuples in
    creation order, is the run's only state; each round derives every
    tile's grow mask and the free mask from it.  The weight rises by at
    least 1 per move and is bounded by 11n/4, so the loop terminates."""
    dom = mask_of(domain)
    good = _good_masks(bad, dom)
    tiles: list[tuple[int, ...]] = []
    unmatched = list(order)
    while len(unmatched) >= 2:
        u = unmatched[0]
        partner = next((v for v in unmatched[1:] if (good[u] >> v) & 1), None)
        if partner is None:
            unmatched.pop(0)
            continue
        tiles.append(tuple(sorted((u, partner))))
        unmatched.remove(u)
        unmatched.remove(partner)

    guard = 6 * len(domain) + 16
    for _ in range(guard):
        grow = [_grow_mask(h, good, t) for t in tiles]
        free = dom & ~mask_of(v for t in tiles for v in t)
        if (
            _apply_relocation(tiles, grow, free)
            or _apply_new_pair(tiles, good, free)
            or _apply_split(tiles, grow)
        ):
            continue
        break
    else:
        raise AssertionError("tiling local search failed to terminate")
    return Tiling(sorted(tiles))


def weighted_tiling(
    h: Hypergraph3,
    domain,
    bad: tuple[int, ...],
    seed: int | None = None,
) -> Tiling:
    """Best local optimum over several starts of the exchange-move search.

    Each start is a greedy good-pair matching in a seeded vertex order.  One
    start already satisfies every structural conclusion the exchange
    arguments force; the extra starts recover the exact optimum on micro
    instances, where a single trajectory can strand weight.  Deterministic
    for fixed inputs and seed.
    """
    domain = sorted(set(domain))
    for v in domain:
        h.check_vertex(v)
    restarts = 48 if len(domain) <= 12 else 4
    base = seed if seed is not None else 0
    best: Tiling | None = None
    for k in range(restarts):
        order = domain
        if k > 0 or seed is not None:
            perm = shuffled_range(len(domain), derive_seed(base, "tiling-restart", k))
            order = [domain[i] for i in perm]
        til = _local_search(h, domain, bad, order)
        if best is None or til.weight > best.weight:
            best = til
    assert best is not None
    for t in best.tiles:
        if not _tile_ok(h, bad, t):
            raise AssertionError(f"tile {t} is not a good tile")
    seen: set[int] = set()
    for t in best.tiles:
        if seen & set(t):
            raise AssertionError(f"tile {t} overlaps an earlier tile")
        seen |= set(t)
    return best


@dataclasses.dataclass
class AlmostK4Factor:
    """Tetrahedron tiles found after pruning, with the leftover accounting."""

    k4_tiles: list[tuple[int, ...]]
    leftover: frozenset[int]
    leftover_bound: float
    tiling: Tiling
    pruned: frozenset[int]

    @property
    def within_bound(self) -> bool:
        return len(self.leftover) <= self.leftover_bound


def almost_k4_factor(h: Hypergraph3, cfg: Config) -> AlmostK4Factor:
    """classify_pairs at threshold ceil((3/4 + alpha) n), prune, tile, and
    keep the size-4 tiles.  The leftover bound 2 sqrt(tau) n + 14 is reported
    rather than enforced; below roughly 36 vertices it regularly fails."""
    threshold = math.ceil((0.75 + cfg.alpha) * h.n)
    bad = classify_pairs(h, threshold)
    survivors = prune_bad_vertices(h, cfg.tau, bad)
    til = weighted_tiling(h, survivors, bad, seed=derive_seed(cfg.seed, "tiling"))
    k4s = [t for t in til.tiles if len(t) == 4]
    covered = {v for t in k4s for v in t}
    leftover = frozenset(v for v in range(h.n) if v not in covered)
    return AlmostK4Factor(
        k4s,
        leftover,
        2 * math.sqrt(cfg.tau) * h.n + 14,
        til,
        frozenset(v for v in range(h.n) if v not in survivors),
    )


@dataclasses.dataclass
class CoverResult:
    """Disjoint squared paths of a fixed length plus the uncovered residue."""

    paths: list[VertexSeq]
    uncovered: frozenset[int]
    mu_bound: float

    @property
    def within_bound(self) -> bool:
        return len(self.uncovered) <= self.mu_bound


def _first_start(pn, avail: int, live: list[int], pos: int):
    """The first index i >= pos with live[i] the lowest vertex of a
    tetrahedron inside ``avail``, and the first such tetrahedron abcd with
    b, c and d taken in ``live``'s order; None when there is none.

    ``live`` lists exactly the vertices of ``avail``."""
    for i in range(pos, len(live)):
        a = live[i]
        hi = avail >> (a + 1) << (a + 1)
        if hi.bit_count() < 3:
            continue
        pa = pn[a]
        for b in live:
            if not (hi >> b) & 1:
                continue
            hb = pa[b] & hi >> (b + 1) << (b + 1)
            if hb.bit_count() < 2:
                continue
            pb = pn[b]
            for c in live:
                if (hb >> c) & 1 and (dmask := hb & pa[c] & pb[c] >> (c + 1) << (c + 1)):
                    return i, (a, b, c, next(d for d in live if (dmask >> d) & 1))
    return None


def cover_with_squared_paths(
    h: Hypergraph3,
    q: int,
    mu: float,
    seed: int | None = None,
    domain=None,
) -> CoverResult:
    """Greedy cover by vertex-disjoint squared paths with exactly q vertices.

    Each path starts from the first unused tetrahedron in the seeded vertex
    order and is extended one vertex at a time through the
    last-three-vertices transition rule, flipping to the other end when
    stuck.  Paths that cannot reach length q are discarded and their
    vertices stay uncovered.  The mu * n coverage bound is reported, not
    enforced.
    """
    if q < 4 or q % 4 != 0:
        raise ValueError("q must be a positive multiple of 4")
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    if isinstance(domain, bool):
        raise ValueError("domain must be a vertex mask or an iterable of vertices")
    if domain is None:
        dom_mask = h.full_mask
    elif isinstance(domain, int):
        if domain < 0 or domain >> h.n:
            raise ValueError(f"domain mask has bits outside [0, {h.n})")
        dom_mask = domain
    else:
        dom_mask = mask_of(h.check_vertex(v, "domain vertex") for v in domain)
    order = list(range(h.n)) if seed is None else shuffled_range(h.n, seed)
    pn = h._pn
    avail = dom_mask
    paths: list[VertexSeq] = []
    # live is the seeded order cut to avail, rebuilt after each path.  As
    # avail only shrinks, a vertex that is not the lowest vertex of a
    # tetrahedron inside avail never becomes one, so live[:pos] never start
    # a path and each search resumes at live[pos].
    live = [v for v in order if (avail >> v) & 1]
    pos = 0

    while found := _first_start(pn, avail, live, pos):
        i, start = found
        path = list(start)
        avail &= ~mask_of(path)
        flipped = False
        while len(path) < q:
            p, r, s = path[-3], path[-2], path[-1]
            cands = pn[p][r] & pn[p][s] & pn[r][s] & avail
            if cands:
                for u in live:
                    if (cands >> u) & 1:
                        break
                path.append(u)
                avail &= ~(1 << u)
                continue
            if not flipped:
                path.reverse()
                flipped = True
                continue
            break
        if len(path) == q:
            seq = VertexSeq(tuple(path))
            if not is_squared_path(h, seq):
                raise AssertionError("cover path is not a squared path")
            paths.append(seq)
        # vertices of a failed partial path stay uncovered but are not
        # offered to later paths, which guarantees termination
        dead = [v for v in live[:i] if (avail >> v) & 1]
        live = dead + [v for v in live[i:] if (avail >> v) & 1]
        pos = len(dead)

    covered = mask_of(v for s in paths for v in s.vertices)
    uncovered = frozenset(bits_of(dom_mask & ~covered))
    return CoverResult(paths, uncovered, mu * h.n)
