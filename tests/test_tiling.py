import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypersquare import (
    Config,
    Hypergraph3,
    classify_pairs,
    almost_k4_factor,
    complete,
    cover_with_squared_paths,
    dense_random,
    is_k4,
    is_squared_path,
    pair_degree,
    pikhurko,
    prune_bad_vertices,
    random_hypergraph,
    weighted_tiling,
)
from hypersquare.core import bits_of, mask_of
from hypersquare.tiling import (
    WEIGHTS,
    _apply_new_pair,
    _apply_split,
    _good_masks,
    _grow_mask,
    _tile_ok,
)
from conftest import exhaustive_tiling_weight


def reference_cover(h, q, mu, seed=None, domain=None):
    """The greedy cover with full rescans: each path starts at the first
    tetrahedron abcd (a < b < c < d) found by scanning the whole seeded
    order for a, b, c and d in turn, and each extension scans the whole
    order for its first candidate.  Returns the path tuples, the uncovered
    set and the bound."""
    if domain is None:
        dom_mask = h.full_mask
    elif isinstance(domain, int):
        dom_mask = domain
    else:
        dom_mask = mask_of(domain)
    order = list(range(h.n))
    if seed is not None:
        random.Random(seed).shuffle(order)
    pn = h._pn

    def first_k4(avail):
        for a in order:
            if not (avail >> a) & 1:
                continue
            for b in order:
                if b <= a or not (pn_ab := pn[a][b] & avail) or not (avail >> b) & 1:
                    continue
                for c in order:
                    if c <= b or not (pn_ab >> c) & 1:
                        continue
                    dmask = pn[a][b] & pn[a][c] & pn[b][c] & avail
                    for d in order:
                        if d > c and (dmask >> d) & 1:
                            return (a, b, c, d)
        return None

    avail = dom_mask
    paths = []
    while (start := first_k4(avail)) is not None:
        path = list(start)
        avail &= ~mask_of(path)
        flipped = False
        while len(path) < q:
            p, r, s = path[-3], path[-2], path[-1]
            cands = pn[p][r] & pn[p][s] & pn[r][s] & avail
            if cands:
                u = next(v for v in order if (cands >> v) & 1)
                path.append(u)
                avail &= ~(1 << u)
            elif not flipped:
                path.reverse()
                flipped = True
            else:
                break
        if len(path) == q:
            paths.append(tuple(path))
    covered = {v for p in paths for v in p}
    uncovered = frozenset(v for v in bits_of(dom_mask) if v not in covered)
    return paths, uncovered, mu * h.n


def assert_cover_matches_reference(h, q, mu, seed, domain):
    res = cover_with_squared_paths(h, q, mu, seed=seed, domain=domain)
    assert ([p.vertices for p in res.paths], res.uncovered, res.mu_bound) == (
        reference_cover(h, q, mu, seed=seed, domain=domain)
    )


def bad_pairs(bad, n):
    """The bad pairs u < v, read off the bad-pair rows."""
    return {(u, v) for u in range(n) for v in bits_of(bad[u]) if u < v}


class TestClassifyPairs:
    def test_complete8_threshold6(self):
        assert bad_pairs(classify_pairs(complete(8), 6), 8) == set()

    def test_complete8_threshold7(self):
        assert len(bad_pairs(classify_pairs(complete(8), 7), 8)) == 28

    def test_pikhurko8_threshold5(self, pik8):
        h, _ = pik8
        bad = classify_pairs(h, 5)
        expected = {
            (u, v)
            for u in range(8)
            for v in range(u + 1, 8)
            if pair_degree(h, u, v) == 4
        }
        assert bad_pairs(bad, 8) == expected
        assert expected  # the construction really has degree-4 pairs

    def test_masks_match_set(self):
        h = random_hypergraph(9, 0.5, seed=40)
        rows = classify_pairs(h, 3)
        bad = bad_pairs(rows, 9)
        for u in range(9):
            for v in range(u + 1, 9):
                # both rows of a pair hold it, exactly when it is bad
                assert (rows[u] >> v) & 1 == (rows[v] >> u) & 1 == ((u, v) in bad)


class TestPrune:
    def test_no_bad_pairs_keeps_all(self):
        h = complete(10)
        assert prune_bad_vertices(h, 0.04, classify_pairs(h, 0)) == frozenset(range(10))

    def test_concentrated_vertex_removed(self):
        # vertex 0 bad with everyone, everything else good
        h = complete(10)
        bad = frozenset((0, v) for v in range(1, 10))
        mask = [0] * 10
        for u, v in bad:
            mask[u] |= 1 << v
            mask[v] |= 1 << u
        survivors = prune_bad_vertices(h, 0.04, tuple(mask))  # limit = 2
        assert survivors == frozenset(range(1, 10))

    def test_everything_bad_near_total_removal(self):
        # the last survivor sits in zero bad pairs, so one vertex remains
        h = complete(8)
        bad = classify_pairs(h, 7)  # all pairs bad
        assert len(prune_bad_vertices(h, 0.01, bad)) <= 1

    def test_survivors_below_limit(self):
        import math

        h = random_hypergraph(12, 0.5, seed=41)
        bad = classify_pairs(h, 4)
        survivors = prune_bad_vertices(h, 0.02, bad)
        limit = math.sqrt(0.02) * 12
        alive = mask_of(survivors)
        for v in survivors:
            assert (bad[v] & alive).bit_count() < limit


class TestSplitMove:
    def test_k4_dissolving_ties_with_k3_dissolving(self):
        # all tiles are good and complete here.  Three K4 vertices into three
        # K3s gain 15 - 11 = 4; two K3 vertices into two K3s gain 10 - 6 = 4;
        # the tie goes to the lower donor index, the K4
        h = complete(16)
        good = _good_masks(classify_pairs(h, 0), mask_of(range(16)))
        tiles = [(0, 1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12), (13, 14, 15)]
        assert _apply_split(tiles, [_grow_mask(h, good, t) for t in tiles])
        assert tiles == [(0, 4, 5, 6), (1, 7, 8, 9), (2, 10, 11, 12), (13, 14, 15)]


class TestNewPairMove:
    def test_lowest_free_vertex_takes_lowest_good_partner(self):
        # 0 and 1 form a bad pair and 2 is in a tile, so 0 pairs with 3, not 5
        bad = (0b10, 0b01, 0, 0, 0, 0)
        good = _good_masks(bad, mask_of(range(6)))
        tiles = [(2, 4)]
        assert _apply_new_pair(tiles, good, mask_of([0, 1, 3, 5]))
        assert tiles == [(2, 4), (0, 3)]


class TestGrowMask:
    @given(
        st.integers(4, 12),
        st.sampled_from([0.4, 0.7, 0.9]),
        st.integers(0, 10**6),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_tile_ok(self, n, p, seed, data):
        h = random_hypergraph(n, p, seed=seed)
        bad = classify_pairs(h, data.draw(st.integers(0, n - 2)))
        domain = data.draw(st.sets(st.integers(0, n - 1), min_size=2))
        good = _good_masks(bad, mask_of(domain))
        tiles = [
            t
            for size in (2, 3, 4)
            for t in itertools.combinations(sorted(domain), size)
            if _tile_ok(h, bad, t)
        ]
        assume(tiles)
        for t in data.draw(st.lists(st.sampled_from(tiles), min_size=1, max_size=8)):
            # a K4 takes nothing, even where it lies in a good complete K5
            expected = set() if len(t) == 4 else {
                x
                for x in domain
                if x not in t and _tile_ok(h, bad, tuple(sorted(t + (x,))))
            }
            assert set(bits_of(_grow_mask(h, good, t))) == expected


class TestWeightedTiling:
    def test_complete12_weight(self):
        til = weighted_tiling(complete(12), range(12), classify_pairs(complete(12), 0))
        assert til.weight == 33
        assert all(len(t) == 4 for t in til.tiles)

    def test_complete6_weight(self):
        til = weighted_tiling(complete(6), range(6), classify_pairs(complete(6), 0))
        assert til.weight == 13
        assert exhaustive_tiling_weight(complete(6), range(6), classify_pairs(complete(6), 0)) == 13

    def test_empty_domain(self):
        til = weighted_tiling(complete(6), [], classify_pairs(complete(6), 0))
        assert til.tiles == [] and til.weight == 0

    def test_duplicate_domain_vertices_count_once(self):
        h = complete(8)
        bad = classify_pairs(h, 3)
        til = weighted_tiling(h, [0, 0, 1, 2, 3, 4], bad, seed=1)
        assert til == weighted_tiling(h, [0, 1, 2, 3, 4], bad, seed=1)
        assert sorted(v for t in til.tiles for v in t) == [0, 1, 2, 3]

    def test_micro_matches_exhaustive(self):
        rng = random.Random(42)
        for trial in range(60):
            n = rng.randint(4, 8)
            h = random_hypergraph(n, rng.choice([0.3, 0.5, 0.8]), seed=500 + trial)
            bad = classify_pairs(h, rng.choice([0, 1, 2]))
            got = weighted_tiling(h, range(n), bad, seed=trial).weight
            assert got == exhaustive_tiling_weight(h, range(n), bad)

    def test_tiles_good_complete_disjoint(self):
        h = random_hypergraph(14, 0.7, seed=43)
        bad = classify_pairs(h, 5)
        til = weighted_tiling(h, range(14), bad, seed=1)
        seen = set()
        for t in til.tiles:
            assert _tile_ok(h, bad, t)
            assert not (set(t) & seen)
            seen |= set(t)
        assert til.weight == sum(WEIGHTS[len(t)] for t in til.tiles)

    def test_deterministic(self):
        h = random_hypergraph(13, 0.6, seed=44)
        bad = classify_pairs(h, 4)
        a = weighted_tiling(h, range(13), bad, seed=3)
        b = weighted_tiling(h, range(13), bad, seed=3)
        assert a.tiles == b.tiles

    def test_respects_domain(self):
        h = complete(12)
        bad = classify_pairs(h, 0)
        til = weighted_tiling(h, range(6), bad)
        assert all(v < 6 for t in til.tiles for v in t)


class TestAlmostK4Factor:
    def test_complete16(self):
        res = almost_k4_factor(complete(16), Config())
        assert len(res.k4_tiles) == 4
        assert res.leftover == frozenset()
        assert res.within_bound

    def test_complete18(self):
        res = almost_k4_factor(complete(18), Config())
        assert len(res.k4_tiles) == 4
        assert len(res.leftover) == 2

    def test_pikhurko16_tiles_respect_structure(self):
        h, parts = pikhurko(16)
        res = almost_k4_factor(h, Config())
        a0 = set(parts.parts[0])
        for t in res.k4_tiles:
            assert is_k4(h, *t)
            assert len(a0 & set(t)) in (0, 2)

    def test_leftover_reported_not_enforced(self):
        res = almost_k4_factor(Hypergraph3(12), Config())
        assert res.k4_tiles == []
        assert len(res.leftover) == 12
        assert isinstance(res.within_bound, bool)


class TestCover:
    def test_complete16_q8(self):
        res = cover_with_squared_paths(complete(16), 8, 0.1)
        assert len(res.paths) == 2
        assert res.uncovered == frozenset()
        assert res.within_bound

    def test_complete10_q8(self):
        res = cover_with_squared_paths(complete(10), 8, 0.1)
        assert len(res.paths) == 1
        assert len(res.uncovered) == 2

    def test_empty_hypergraph(self):
        res = cover_with_squared_paths(Hypergraph3(9), 8, 0.1)
        assert res.paths == []
        assert res.uncovered == frozenset(range(9))

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            cover_with_squared_paths(complete(8), 6, 0.1)
        with pytest.raises(ValueError):
            cover_with_squared_paths(complete(8), 0, 0.1)

    def test_paths_disjoint_exact_length_certified(self):
        h = random_hypergraph(16, 0.9, seed=45)
        res = cover_with_squared_paths(h, 4, 0.5, seed=2)
        seen = set()
        for p in res.paths:
            assert len(p) == 4
            assert is_squared_path(h, p)
            assert not (set(p.vertices) & seen)
            seen |= set(p.vertices)

    def test_domain_respected(self):
        res = cover_with_squared_paths(complete(16), 4, 0.9, domain=range(8))
        assert all(v < 8 for p in res.paths for v in p.vertices)
        assert res.uncovered <= set(range(8))

    @pytest.mark.parametrize(
        "domain", [[0, 1, 2, 3, 9], [-1, 0], [8], 1 << 12, 1 << 8, -1]
    )
    def test_out_of_range_domain_rejected(self, domain):
        with pytest.raises(ValueError):
            cover_with_squared_paths(complete(8), 4, 0.5, domain=domain)

    def test_domain_mask_matches_list(self):
        h = random_hypergraph(12, 0.9, seed=47)
        listed = cover_with_squared_paths(h, 4, 0.5, seed=1, domain=[0, 2, 3, 5, 7, 8, 11])
        masked = cover_with_squared_paths(h, 4, 0.5, seed=1, domain=0b100110101101)
        assert [p.vertices for p in listed.paths] == [p.vertices for p in masked.paths]
        assert listed.uncovered == masked.uncovered

    def test_bool_domain_rejected(self):
        for domain in (True, False):
            with pytest.raises(ValueError, match="domain"):
                cover_with_squared_paths(complete(8), 4, 0.5, domain=domain)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 40),
        st.floats(0.3, 1.0),
        st.integers(0, 10**6),
        st.sampled_from([4, 8, 12]),
        st.one_of(st.none(), st.integers(0, 2**63 - 1)),
        st.sampled_from(["none", "mask", "list", "empty"]),
        st.integers(0, 10**6),
    )
    def test_matches_reference(self, n, p, graph_seed, q, seed, kind, domain_seed):
        h = random_hypergraph(n, p, graph_seed)
        rng = random.Random(domain_seed)
        chosen = [v for v in range(n) if rng.random() < 0.7]
        domain = {
            "none": None,
            "mask": mask_of(chosen),
            "list": chosen,
            "empty": set(),
        }[kind]
        assert_cover_matches_reference(h, q, 0.5, seed, domain)

    @pytest.mark.parametrize("n, delta", [(60, 0.85), (150, 0.9)])
    def test_matches_reference_dense(self, n, delta):
        h = dense_random(n, delta, n)
        rng = random.Random(n)
        for q in (4, 8, 12):
            for seed in (None, 0, 1, rng.getrandbits(63)):
                small = rng.sample(range(n), rng.randint(4, 24))
                for domain in (None, small, mask_of(small), range(0, n, 2)):
                    assert_cover_matches_reference(h, q, 0.1, seed, domain)

    def test_deterministic(self):
        h = random_hypergraph(14, 0.8, seed=46)
        a = cover_with_squared_paths(h, 4, 0.5, seed=7)
        b = cover_with_squared_paths(h, 4, 0.5, seed=7)
        assert [p.vertices for p in a.paths] == [p.vertices for p in b.paths]
