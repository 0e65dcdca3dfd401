import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypersquare import (
    complete,
    dense_instance,
    dense_random,
    is_k4,
    min_pair_degree,
    pikhurko,
    random_hypergraph,
)
from hypersquare.generators import (
    BLOCK_SAMPLER_MIN_N,
    _pair_masks_by_block,
    _pair_masks_by_triple,
    _repair_to_pair_degree,
)


class TestComplete:
    @pytest.mark.parametrize("n,count", [(3, 1), (4, 4), (5, 10)])
    def test_edge_counts(self, n, count):
        assert complete(n).num_edges == count

    def test_complete4_is_k4(self):
        assert is_k4(complete(4), 0, 1, 2, 3)

    def test_too_small(self):
        with pytest.raises(ValueError):
            complete(2)


class TestPikhurko:
    def test_too_small(self):
        with pytest.raises(ValueError):
            pikhurko(7)

    def test_partition_balanced_and_by_residue(self):
        for n in (8, 10, 13):
            _, parts = pikhurko(n)
            sizes = [len(p) for p in parts.parts]
            assert max(sizes) - min(sizes) <= 1
            assert sorted(v for p in parts.parts for v in p) == list(range(n))
            for i, p in enumerate(parts.parts):
                assert all(v % 4 == i for v in p)

    def test_first_part_spans_no_edge(self, pik8):
        h, parts = pik8
        a0 = parts.parts[0]
        for t in itertools.combinations(a0, 3):
            assert not h.has_edge(*t)

    def test_transversal_of_other_parts_not_edge(self, pik8):
        h, parts = pik8
        for x in parts.parts[1]:
            for y in parts.parts[2]:
                for z in parts.parts[3]:
                    assert not h.has_edge(x, y, z)

    def test_one_in_a0_two_in_same_part_not_edge(self, pik8):
        h, parts = pik8
        for a in parts.parts[0]:
            for i in (1, 2, 3):
                for x, y in itertools.combinations(parts.parts[i], 2):
                    assert not h.has_edge(a, x, y)

    def test_edge_rules_exhaustive(self, pik12):
        # every triple classified by the four stated rules, nothing else
        h, parts = pik12
        part_of = {v: i for i, part in enumerate(parts.parts) for v in part}
        for e in itertools.combinations(range(12), 3):
            c = [0, 0, 0, 0]
            for v in e:
                c[part_of[v]] += 1
            expected = (
                c[0] == 2
                or (c[0] == 1 and max(c[1:]) == 1)
                or (c[0] == 0 and max(c[1:]) >= 2)
            )
            assert h.has_edge(*e) == expected

    @pytest.mark.parametrize("n", [8, 12])
    def test_min_pair_degree_value(self, n):
        h, _ = pikhurko(n)
        assert min_pair_degree(h) == 3 * n // 4 - 2

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_every_k4_meets_a0_in_zero_or_two(self, n):
        h, parts = pikhurko(n)
        a0 = set(parts.parts[0])
        for quad in itertools.combinations(range(n), 4):
            if is_k4(h, *quad):
                hits = len(a0 & set(quad))
                assert hits in (0, 2)


class TestRandomHypergraph:
    def test_p_one_is_complete(self):
        assert random_hypergraph(8, 1.0, seed=0) == complete(8)

    def test_p_zero_is_empty(self):
        assert random_hypergraph(8, 0.0, seed=0).num_edges == 0

    def test_deterministic(self):
        a = random_hypergraph(8, 0.5, seed=42)
        b = random_hypergraph(8, 0.5, seed=42)
        assert a == b

    def test_seed_changes_edges(self):
        a = random_hypergraph(10, 0.5, seed=1)
        b = random_hypergraph(10, 0.5, seed=2)
        assert a != b

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            random_hypergraph(8, 1.5, seed=0)

    def test_int_p_one_is_complete(self):
        assert 64 >= BLOCK_SAMPLER_MIN_N
        assert random_hypergraph(64, 1, 0) == complete(64)

    def test_int_p_zero_is_empty(self):
        assert random_hypergraph(64, 0, 0).num_edges == 0


def reference_pair_masks(n, p, rng):
    """The sampler as one loop over the triples, each kept triple ORed into
    all six of its pair masks."""
    pn = [[0] * n for _ in range(n)]
    for a, b, c in itertools.combinations(range(n), 3):
        if rng.random() < p:
            for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
                pn[x][y] |= 1 << z
                pn[y][x] |= 1 << z
    return pn


def reference_repair(n, required, base_p, rng, drawn):
    """The degree repair drawing each missing vertex by ``rng.randrange``
    over the listed bits; every range size goes into ``drawn``."""
    pn = reference_pair_masks(n, base_p, rng)
    for u in range(n):
        for v in range(u + 1, n):
            while pn[u][v].bit_count() < required:
                missing = [
                    w for w in range(n) if w not in (u, v) and not (pn[u][v] >> w) & 1
                ]
                drawn.add(len(missing))
                w = missing[rng.randrange(len(missing))]
                for x, y, z in ((u, v, w), (u, w, v), (v, w, u)):
                    pn[x][y] |= 1 << z
                    pn[y][x] |= 1 << z
    return pn


class TestSamplerAgainstReference:
    def test_both_paths_give_the_same_masks_and_stream(self):
        pick = random.Random(2024)
        for n in range(71):
            seed = pick.randrange(10**9)
            # the last p is the first draw itself: x < p must be False there
            for p in (0, 1, pick.random(), random.Random(seed).random()):
                ref = random.Random(seed)
                want = reference_pair_masks(n, p, ref)
                after = ref.random()
                for sampler in (_pair_masks_by_triple, _pair_masks_by_block):
                    ours = random.Random(seed)
                    assert sampler(n, p, ours) == want, (sampler.__name__, n, p)
                    assert ours.random() == after

    def test_repair_draws_as_randrange(self):
        drawn = set()
        for n in (0, 1, 3, 5, 8, 13, 21, 34, 39, 40, 41, 55):
            for fraction in (0.0, 0.5, 0.8, 1.0):
                for seed in range(3):
                    required = min(math.ceil(fraction * n), max(n - 2, 0))
                    ours, ref = random.Random(seed), random.Random(seed)
                    h = _repair_to_pair_degree(n, required, fraction, ours)
                    assert h._pn == reference_repair(n, required, fraction, ref, drawn)
                    assert ours.random() == ref.random()
        # every range size up to 38, so the inlined draw's rejection loop
        # runs for every bit length up to 6
        assert drawn >= set(range(1, 39))


class TestDenseRandom:
    def test_postcondition(self):
        h = dense_random(20, 0.85, seed=1)
        assert min_pair_degree(h) >= math.ceil(0.85 * 20)

    def test_postcondition_many_seeds(self):
        for seed in range(5):
            h = dense_random(12, 0.8, seed=seed)
            assert min_pair_degree(h) >= math.ceil(0.8 * 12)

    def test_unreachable_target(self):
        with pytest.raises(ValueError):
            dense_random(10, 0.95, seed=0)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            dense_random(10, 1.1, seed=0)

    def test_deterministic(self):
        assert dense_random(12, 0.8, seed=7) == dense_random(12, 0.8, seed=7)

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(0, 10**6))
    def test_equals_dense_instance_wherever_accepted(self, data, seed):
        # draw the target degree k = ceil(d n) first, so every feasible
        # target from 1 to n - 2 is reached
        n = data.draw(st.integers(3, 60))
        k = data.draw(st.integers(1, n - 2))
        d = data.draw(st.floats((k - 1) / n, k / n, exclude_min=True))
        assume(math.ceil(d * n) <= n - 2)
        assert dense_random(n, d, seed) == dense_instance(n, d, seed)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 60),
        st.one_of(st.floats(0, 1), st.floats()),
        st.integers(0, 10**6),
    )
    def test_raises_outside_its_domain(self, n, d, seed):
        assume(not (0.0 < d < 1.0 and math.ceil(d * n) <= n - 2))
        with pytest.raises(ValueError):
            dense_random(n, d, seed)


class TestDenseInstance:
    def test_fraction_zero_stays_sparse(self):
        h = dense_instance(10, 0.0, seed=3)
        assert h.num_edges == 0

    def test_fraction_one_clamps_to_feasible(self):
        h = dense_instance(10, 1.0, seed=3)
        assert min_pair_degree(h) == 8

    def test_matches_dense_random_inside_range(self):
        assert dense_instance(12, 0.8, seed=5) == dense_random(12, 0.8, seed=5)

    @pytest.mark.parametrize("fraction", [0.8, 0.85, 0.9, 1.0])
    def test_clamped_degree_gives_complete(self, fraction):
        # ceil(fraction * 14) >= 12 = n - 2 asks for every pair's full degree
        for seed in range(20):
            assert dense_instance(14, fraction, seed) == complete(14)

    def test_below_clamp_not_complete(self):
        # ceil(0.78 * 14) = 11 < 12, so some pair misses a vertex
        assert all(dense_instance(14, 0.78, seed) != complete(14) for seed in range(20))
