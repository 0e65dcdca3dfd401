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
    GoodPairOracle,
    _apply_new_pair,
    _apply_split,
    _good_masks,
    _grow_mask,
    _tile_ok,
)
from conftest import exhaustive_tiling_weight


def bad_pairs(oracle, n):
    """The bad pairs u < v, read off the oracle's bad masks."""
    return {(u, v) for u in range(n) for v in bits_of(oracle.bad_mask[u]) if u < v}


class TestClassifyPairs:
    def test_complete8_threshold6(self):
        assert bad_pairs(classify_pairs(complete(8), 6), 8) == set()

    def test_complete8_threshold7(self):
        oracle = classify_pairs(complete(8), 7)
        assert len(bad_pairs(oracle, 8)) == 28

    def test_pikhurko8_threshold5(self, pik8):
        h, _ = pik8
        oracle = classify_pairs(h, 5)
        expected = {
            (u, v)
            for u in range(8)
            for v in range(u + 1, 8)
            if pair_degree(h, u, v) == 4
        }
        assert bad_pairs(oracle, 8) == expected
        assert expected  # the construction really has degree-4 pairs

    def test_masks_match_set(self):
        h = random_hypergraph(9, 0.5, seed=40)
        oracle = classify_pairs(h, 3)
        bad = bad_pairs(oracle, 9)
        for u in range(9):
            for v in range(u + 1, 9):
                assert oracle.is_good(u, v) == ((u, v) not in bad)


class TestPrune:
    def test_no_bad_pairs_keeps_all(self):
        h = complete(10)
        oracle = classify_pairs(h, 0)
        assert prune_bad_vertices(h, 0.04, oracle) == frozenset(range(10))

    def test_concentrated_vertex_removed(self):
        # vertex 0 bad with everyone, everything else good
        h = complete(10)
        bad = frozenset((0, v) for v in range(1, 10))
        mask = [0] * 10
        for u, v in bad:
            mask[u] |= 1 << v
            mask[v] |= 1 << u
        from hypersquare.tiling import GoodPairOracle

        oracle = GoodPairOracle(1, tuple(mask))
        survivors = prune_bad_vertices(h, 0.04, oracle)  # limit = 2
        assert survivors == frozenset(range(1, 10))

    def test_everything_bad_near_total_removal(self):
        # the last survivor sits in zero bad pairs, so one vertex remains
        h = complete(8)
        oracle = classify_pairs(h, 7)  # all pairs bad
        assert len(prune_bad_vertices(h, 0.01, oracle)) <= 1

    def test_survivors_below_limit(self):
        import math

        h = random_hypergraph(12, 0.5, seed=41)
        oracle = classify_pairs(h, 4)
        survivors = prune_bad_vertices(h, 0.02, oracle)
        limit = math.sqrt(0.02) * 12
        alive = mask_of(survivors)
        for v in survivors:
            assert oracle.bad_count(v, alive) < limit


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
        good = _good_masks(GoodPairOracle(0, bad), mask_of(range(6)))
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
        oracle = classify_pairs(h, data.draw(st.integers(0, n - 2)))
        domain = data.draw(st.sets(st.integers(0, n - 1), min_size=2))
        good = _good_masks(oracle, mask_of(domain))
        tiles = [
            t
            for size in (2, 3, 4)
            for t in itertools.combinations(sorted(domain), size)
            if _tile_ok(h, oracle, t)
        ]
        assume(tiles)
        for t in data.draw(st.lists(st.sampled_from(tiles), min_size=1, max_size=8)):
            # a K4 takes nothing, even where it lies in a good complete K5
            expected = set() if len(t) == 4 else {
                x
                for x in domain
                if x not in t and _tile_ok(h, oracle, tuple(sorted(t + (x,))))
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

    def test_micro_matches_exhaustive(self):
        rng = random.Random(42)
        for trial in range(60):
            n = rng.randint(4, 8)
            h = random_hypergraph(n, rng.choice([0.3, 0.5, 0.8]), seed=500 + trial)
            oracle = classify_pairs(h, rng.choice([0, 1, 2]))
            got = weighted_tiling(h, range(n), oracle, seed=trial).weight
            assert got == exhaustive_tiling_weight(h, range(n), oracle)

    def test_tiles_good_complete_disjoint(self):
        h = random_hypergraph(14, 0.7, seed=43)
        oracle = classify_pairs(h, 5)
        til = weighted_tiling(h, range(14), oracle, seed=1)
        seen = set()
        for t in til.tiles:
            assert _tile_ok(h, oracle, t)
            assert not (set(t) & seen)
            seen |= set(t)
        assert til.weight == sum(WEIGHTS[len(t)] for t in til.tiles)

    def test_deterministic(self):
        h = random_hypergraph(13, 0.6, seed=44)
        oracle = classify_pairs(h, 4)
        a = weighted_tiling(h, range(13), oracle, seed=3)
        b = weighted_tiling(h, range(13), oracle, seed=3)
        assert a.tiles == b.tiles

    def test_respects_domain(self):
        h = complete(12)
        oracle = classify_pairs(h, 0)
        til = weighted_tiling(h, range(6), oracle)
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

    def test_deterministic(self):
        h = random_hypergraph(14, 0.8, seed=46)
        a = cover_with_squared_paths(h, 4, 0.5, seed=7)
        b = cover_with_squared_paths(h, 4, 0.5, seed=7)
        assert [p.vertices for p in a.paths] == [p.vertices for p in b.paths]
