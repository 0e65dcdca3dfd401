import random

import pytest

from hypersquare import (
    Config,
    Hypergraph3,
    ResourceLimitError,
    complete,
    connect,
    connect_through_reservoir,
    count_connections,
    dense_instance,
    dense_random,
    is_squared_path,
    random_hypergraph,
    reservoir_probability,
    sample_reservoir,
)
from hypersquare.connector import Reservoir
from hypersquare.core import mask_of


def two_components() -> Hypergraph3:
    left = complete(5).iter_edges()
    right = [tuple(v + 5 for v in e) for e in complete(5).iter_edges()]
    return Hypergraph3(10, list(left) + list(right))


def incomplete_search_case():
    """An instance on which connect(..., cap_m=7) misses a connection that
    exists: count_connections finds exactly one with 5 interior vertices."""
    h = random_hypergraph(12, 0.6489125117336406, 130)
    return h, (6, 3, 11), (2, 7, 9)


class TestConnect:
    def test_incomplete_search_case_has_a_connection(self):
        h, abc, xyz = incomplete_search_case()
        assert count_connections(h, abc, xyz, 5) == 1

    @pytest.mark.xfail(
        strict=True,
        reason="connect deduplicates BFS states on the last three vertices "
        "only, not on the interior vertices already used",
    )
    def test_finds_the_only_connection(self):
        h, abc, xyz = incomplete_search_case()
        seq = connect(h, abc, xyz, cap_m=7)
        assert seq is not None
        assert is_squared_path(h, seq)
        assert seq.vertices[:3] == abc and seq.vertices[-3:] == xyz

    def test_complete_direct(self):
        seq = connect(complete(10), (0, 1, 2), (3, 4, 5))
        assert seq.vertices == (0, 1, 2, 3, 4, 5)

    def test_forbidden_end_rejected(self):
        with pytest.raises(ValueError):
            connect(complete(10), (0, 1, 2), (3, 4, 5), forbidden={3})

    def test_disconnected_returns_none(self):
        assert connect(two_components(), (0, 1, 2), (5, 6, 7), cap_m=6) is None

    def test_overlapping_ends_rejected(self):
        with pytest.raises(ValueError):
            connect(complete(10), (0, 1, 2), (2, 3, 4))

    def test_non_edge_rejected(self):
        h = Hypergraph3(10, set(complete(10).iter_edges()) - {(0, 1, 2)})
        with pytest.raises(ValueError):
            connect(h, (0, 1, 2), (3, 4, 5))

    def test_interior_avoids_forbidden(self):
        h = complete(12)
        # removing the direct windows forces an interior
        edges = set(h.iter_edges()) - {(2, 3, 4), (1, 2, 3)}
        h2 = Hypergraph3(12, edges)
        forbidden = {6, 7}
        seq = connect(h2, (0, 1, 2), (3, 4, 5), forbidden=forbidden)
        assert seq is not None
        interior = set(seq.vertices[3:-3])
        assert not interior & forbidden
        assert is_squared_path(h2, seq)

    def test_minimum_interior_first(self):
        h = complete(12)
        seq = connect(h, (0, 1, 2), (3, 4, 5))
        assert len(seq) == 6  # m = 0 reachable, BFS must find it
        for m in range(3):
            if count_connections(h, (0, 1, 2), (3, 4, 5), m):
                assert len(seq) - 6 == m
                break

    def test_exact_up_to_three_interior_vertices(self):
        # a state names its whole interior until the fourth internal vertex,
        # so the search misses no connection that short
        rng = random.Random(23)
        shortest_seen = set()
        for trial in range(150):
            h = dense_instance(rng.randint(9, 12), rng.choice([0.55, 0.65]), 500 + trial)
            e1 = rng.choice(list(h.iter_edges()))
            disjoint = [e for e in h.iter_edges() if not set(e) & set(e1)]
            if not disjoint:
                continue
            e2 = rng.choice(disjoint)
            cap_m = rng.randint(1, 7)
            shortest = next(
                (m for m in range(min(cap_m, 4)) if count_connections(h, e1, e2, m)),
                None,
            )
            seq = connect(h, e1, e2, cap_m=cap_m)
            found = None if seq is None else len(seq) - 6
            if shortest is None:
                assert found is None or found >= 4
            else:
                assert found == shortest
            shortest_seen.add(shortest)
        assert shortest_seen == {None, 0, 1, 2, 3}

    def test_random_instances_sound(self):
        rng = random.Random(20)
        for trial in range(80):
            n = rng.randint(7, 11)
            h = random_hypergraph(n, rng.choice([0.6, 0.8, 1.0]), seed=trial)
            edges = list(h.iter_edges())
            if len(edges) < 2:
                continue
            e1 = rng.choice(edges)
            disjoint = [e for e in edges if not set(e) & set(e1)]
            if not disjoint:
                continue
            e2 = rng.choice(disjoint)
            seq = connect(h, e1, e2, cap_m=6)
            if seq is not None:
                assert seq.vertices[:3] == e1
                assert seq.vertices[-3:] == e2
                assert is_squared_path(h, seq)


class TestCountConnections:
    def test_m0_direct(self):
        assert count_connections(complete(8), (0, 1, 2), (3, 4, 5), 0) == 1

    def test_m0_is_binary(self):
        rng = random.Random(21)
        for trial in range(40):
            h = random_hypergraph(8, 0.7, seed=trial)
            edges = list(h.iter_edges())
            if not edges:
                continue
            e1 = rng.choice(edges)
            disjoint = [e for e in edges if not set(e) & set(e1)]
            if not disjoint:
                continue
            assert count_connections(h, e1, rng.choice(disjoint), 0) in (0, 1)

    def test_m1_complete8(self):
        assert count_connections(complete(8), (0, 1, 2), (3, 4, 5), 1) == 2

    def test_disconnected_zero(self):
        assert count_connections(two_components(), (0, 1, 2), (5, 6, 7), 1) == 0

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            count_connections(complete(30), (0, 1, 2), (3, 4, 5), 8)

    def test_matches_exhaustive_tuple_scan(self):
        import itertools

        h = random_hypergraph(8, 0.85, seed=0)
        e1, e2 = (0, 1, 2), (3, 4, 5)
        assert h.has_edge(*e1) and h.has_edge(*e2)
        for m in (1, 2):
            brute = 0
            for tup in itertools.product(range(8), repeat=m):
                seq = e1 + tup + e2
                if len(set(seq)) == len(seq) and is_squared_path(
                    h, __import__("hypersquare").VertexSeq(seq)
                ):
                    brute += 1
            assert count_connections(h, e1, e2, m) == brute


class TestReservoir:
    def test_probability_formula(self):
        cfg = Config(theta_star=0.1, cap_m=10)
        assert reservoir_probability(cfg) == pytest.approx(0.0097)

    def test_zero_theta_gives_empty(self):
        h = complete(30)
        r = sample_reservoir(h, Config(theta_star=0.0))
        assert r.members == 0

    def test_deterministic(self):
        h = complete(60)
        cfg = Config(seed=5)
        assert sample_reservoir(h, cfg).members == sample_reservoir(h, cfg).members

    def test_size_bound(self):
        h = complete(200)
        cfg = Config(theta_star=0.3, seed=2)
        r = sample_reservoir(h, cfg)
        assert r.member_count <= 0.3**2 * 200

    def test_available_tracks_used(self):
        r = Reservoir(members=0b1110)
        r.used |= 0b0100
        assert r.available == 0b1010
        assert r.used_count == 1


class TestConnectThroughReservoir:
    def test_interior_stays_in_reservoir(self):
        h = complete(30)
        edges = set(h.iter_edges()) - {(2, 3, 4), (1, 2, 3)}  # force an interior
        h2 = Hypergraph3(30, edges)
        r = Reservoir(members=mask_of(range(20, 30)))
        seq = connect_through_reservoir(h2, r, (0, 1, 2), (3, 4, 5))
        assert seq is not None
        interior = seq.vertices[3:-3]
        assert interior and set(interior) <= set(range(20, 30))
        assert r.used == mask_of(interior)

    def test_used_grows_by_interior_size(self):
        h = complete(30)
        r = Reservoir(members=mask_of(range(20, 30)))
        before = r.used_count
        seq = connect_through_reservoir(h, r, (0, 1, 2), (3, 4, 5))
        assert r.used_count - before == len(seq) - 6

    def test_exhausted_reservoir_falls_back_to_direct(self):
        h = complete(30)
        r = Reservoir(members=mask_of(range(20, 30)), used=mask_of(range(20, 30)))
        seq = connect_through_reservoir(h, r, (0, 1, 2), (3, 4, 5))
        assert seq is not None and len(seq) == 6

    def test_exhausted_reservoir_none_when_direct_invalid(self):
        edges = set(complete(30).iter_edges()) - {(2, 3, 4)}
        h = Hypergraph3(30, edges)
        r = Reservoir(members=0, used=0)
        assert connect_through_reservoir(h, r, (0, 1, 2), (3, 4, 5)) is None

    def test_dense_instances_short_interiors(self):
        h = dense_random(30, 0.85, seed=5)
        rng = random.Random(22)
        edges = list(h.iter_edges())
        r = Reservoir(members=h.full_mask)
        for _ in range(20):
            e1 = rng.choice(edges)
            e2 = rng.choice([e for e in edges if not set(e) & set(e1)])
            r.used = 0
            seq = connect_through_reservoir(h, r, e1, e2)
            assert seq is not None and len(seq) - 6 <= 4
