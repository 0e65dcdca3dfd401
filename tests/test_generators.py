import itertools
import math

import pytest

from hypersquare import (
    complete,
    dense_instance,
    dense_random,
    is_k4,
    min_pair_degree,
    pikhurko,
    random_hypergraph,
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


class TestDenseInstance:
    def test_fraction_zero_stays_sparse(self):
        h = dense_instance(10, 0.0, seed=3)
        assert h.num_edges == 0

    def test_fraction_one_clamps_to_feasible(self):
        h = dense_instance(10, 1.0, seed=3)
        assert min_pair_degree(h) == 8

    def test_matches_dense_random_inside_range(self):
        assert dense_instance(12, 0.8, seed=5) == dense_random(12, 0.8, seed=5)
