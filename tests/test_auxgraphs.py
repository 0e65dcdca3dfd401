import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypersquare import (
    AuxGraph,
    Hypergraph3,
    build_g3,
    build_gv,
    build_gvw,
    complete,
    expansion_report,
    is_k4,
    random_hypergraph,
    walk_count_table,
)
from hypersquare.auxgraphs import _tetrahedron_incidence
from conftest import brute_walk_count


def ordered_triples_g3(h, x, y):
    """Direct enumeration of the G3 pair count."""
    return sum(
        1
        for a, b, c in itertools.permutations(range(h.n), 3)
        if is_k4(h, a, b, c, x) and is_k4(h, a, b, c, y)
    )


def ordered_pairs_gv(h, v, x, y):
    return sum(
        1
        for a, b in itertools.permutations(range(h.n), 2)
        if is_k4(h, x, a, b, v) and is_k4(h, y, a, b, v)
    )


def reference_incidence(h, anchors, xs):
    """incidence[x] for each x of ``xs`` as chunks: anchor ab owns one
    chunk of ceil(n / 8) bytes, and for x in N(a, b) bit c - b - 1 of it is
    set for each c > b in N(a, b) & N(a, x) & N(b, x)."""
    pn = h._pn
    width = (h.n + 7) // 8
    incidence = {}
    for x in xs:
        chunks = []
        for a, b in anchors:
            ab = pn[a][b]
            chunk = (ab & pn[a][x] & pn[b][x]) >> (b + 1) if (ab >> x) & 1 else 0
            chunks.append(chunk.to_bytes(width, "little"))
        incidence[x] = int.from_bytes(b"".join(chunks), "little")
    return incidence


def shared_counts(incidence, xs):
    """The popcount of incidence[x] & incidence[y] for x <= y in ``xs``."""
    return [
        (incidence[x] & incidence[y]).bit_count()
        for x, y in itertools.combinations_with_replacement(xs, 2)
    ]


def reference_edges(incidence, members, scale, threshold):
    """The pairs of ``members`` whose scaled shared count meets the
    threshold, as the graph builder's pair loop decides them."""
    return [
        (x, y)
        for x, y in itertools.combinations(members, 2)
        if incidence[x] and scale * (incidence[x] & incidence[y]).bit_count() >= threshold
    ]


def g3_anchors(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def gv_anchors(n, v):
    return [(v, a) for a in range(n) if a != v]


def full_or_empty(n, kind):
    """complete(n), or the edgeless Hypergraph3(n); below 3 vertices both
    are edgeless."""
    return complete(n) if kind == "complete" and n >= 3 else Hypergraph3(n)


class TestG3:
    def test_complete10_beta03_all_adjacent(self):
        g = build_g3(complete(10), 0.3)
        assert ordered_triples_g3(complete(10), 0, 1) == 336
        assert g.num_edges == 45

    def test_complete10_beta04_edgeless(self):
        assert build_g3(complete(10), 0.4).num_edges == 0

    def test_empty_hypergraph(self):
        assert build_g3(Hypergraph3(8), 0.1).num_edges == 0

    @pytest.mark.parametrize(
        "n, p, seed",
        [(7, 0.8, 11), (9, 0.85, 5), (10, 0.8, 2), (12, 0.75, 3), (13, 0.75, 4)],
    )
    def test_counts_match_enumeration(self, n, p, seed):
        h = random_hypergraph(n, p, seed=seed)
        g = build_g3(h, 0.05)
        thr = 0.05 * n**3
        for x in range(n):
            for y in range(x + 1, n):
                assert g.has_edge(x, y) == (ordered_triples_g3(h, x, y) >= thr)

    def test_beta_monotone(self):
        h = random_hypergraph(9, 0.7, seed=12)
        lo = build_g3(h, 0.02)
        hi = build_g3(h, 0.08)
        for x in range(9):
            assert hi.neighbors_mask(x) & ~lo.neighbors_mask(x) == 0


class TestGv:
    def test_complete10_beta03(self):
        h = complete(10)
        assert ordered_pairs_gv(h, 0, 1, 2) == 42
        g = build_gv(h, 0, 0.3)
        assert g.num_edges == 36
        assert not g.has_vertex(0)

    def test_complete10_beta05_edgeless(self):
        assert build_gv(complete(10), 0, 0.5).num_edges == 0

    def test_empty(self):
        assert build_gv(Hypergraph3(8), 3, 0.1).num_edges == 0

    @pytest.mark.parametrize(
        "n, p, seed, v, beta",
        [
            (7, 0.9, 13, 3, 0.22),
            (8, 0.85, 21, 0, 0.12),
            (9, 0.8, 22, 8, 0.07),
            (9, 0.9, 25, 0, 0.2),
            (10, 0.85, 23, 4, 0.13),
            (11, 0.9, 24, 10, 0.15),
        ],
    )
    def test_counts_match_enumeration(self, n, p, seed, v, beta):
        h = random_hypergraph(n, p, seed=seed)
        g = build_gv(h, v, beta)
        thr = beta * n**2
        verdicts = set()
        for x, y in itertools.combinations(range(n), 2):
            if v in (x, y):
                continue
            adjacent = ordered_pairs_gv(h, v, x, y) >= thr
            assert g.has_edge(x, y) == adjacent
            verdicts.add(adjacent)
        # the threshold splits the pairs
        assert verdicts == {False, True}

    def test_beta_monotone(self):
        h = random_hypergraph(8, 0.8, seed=14)
        lo = build_gv(h, 0, 0.02)
        hi = build_gv(h, 0, 0.2)
        for x in range(8):
            assert hi.neighbors_mask(x) & ~lo.neighbors_mask(x) == 0


class TestIncidence:
    """The row-transpose incidence against the chunk reference: the same
    pair counts, and the same G3 and Gv edges on both sides of a threshold.
    Vertices 0-63 and 64-127 sit in different 64-bit word groups, so the
    compared pairs cross groups from n = 65 on."""

    @pytest.mark.parametrize("n", [0, 1, 5, 63, 64, 65, 70, 130])
    @pytest.mark.parametrize("kind", ["empty", "complete"])
    def test_g3_matches_reference(self, n, kind):
        h = full_or_empty(n, kind)
        anchors = g3_anchors(n)
        got = _tetrahedron_incidence(h, anchors)
        assert len(got) == n
        # at n = 130 the chunk reference is slow, so it checks a sample
        xs = range(n) if n <= 70 else [0, 1, 62, 63, 64, 65, 100, 127, 128, 129]
        want = reference_incidence(h, anchors, xs)
        assert shared_counts(got, xs) == shared_counts(want, xs)
        if n < 5 or n > 70:
            return
        # on complete(n) every pair shares 6 C(n - 2, 3) ordered triples,
        # so the first beta puts every pair in G3 and the second none
        shared = 6 * math.comb(n - 2, 3) if kind == "complete" else 0
        for beta in (max(shared, 1) / n**3, (shared + 1) / n**3):
            g = build_g3(h, beta)
            assert list(g.edges()) == reference_edges(want, range(n), 6, beta * n**3)

    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 70, 130])
    @pytest.mark.parametrize("kind", ["empty", "complete"])
    def test_gv_matches_reference(self, n, kind):
        h = full_or_empty(n, kind)
        for v in sorted({0, n // 2, n - 1}):
            anchors = gv_anchors(n, v)
            members = [x for x in range(n) if x != v]
            got = _tetrahedron_incidence(h, anchors)
            want = reference_incidence(h, anchors, members)
            assert shared_counts(got, members) == shared_counts(want, members)
            # on complete(n) every pair shares 2 C(n - 3, 2) ordered pairs
            shared = 2 * math.comb(n - 3, 2) if kind == "complete" and n >= 5 else 0
            for beta in (max(shared, 1) / n**2, (shared + 1) / n**2):
                if beta < 1:
                    g = build_gv(h, v, beta)
                    assert list(g.edges()) == reference_edges(want, members, 2, beta * n**2)

    @pytest.mark.parametrize(
        "n, p, seed", [(5, 0.9, 1), (20, 0.7, 5), (63, 0.8, 2), (65, 0.8, 3), (70, 0.7, 4)]
    )
    def test_random_matches_reference(self, n, p, seed):
        h = random_hypergraph(n, p, seed)
        v = seed % n
        for anchors, members, scale, power in (
            (g3_anchors(n), list(range(n)), 6, 3),
            (gv_anchors(n, v), [x for x in range(n) if x != v], 2, 2),
        ):
            got = _tetrahedron_incidence(h, anchors)
            want = reference_incidence(h, anchors, members)
            assert shared_counts(got, members) == shared_counts(want, members)
            # betas at the quartile counts of the pairs split them unevenly
            counts = sorted(
                (want[x] & want[y]).bit_count() for x, y in itertools.combinations(members, 2)
            )
            for count in {counts[len(counts) // 4], counts[len(counts) // 2], counts[-1]}:
                beta = scale * count / n**power
                if not 0 < beta < 1:
                    continue
                g = build_g3(h, beta) if power == 3 else build_gv(h, v, beta)
                assert list(g.edges()) == reference_edges(want, members, scale, beta * n**power)


class TestGvw:
    def test_complete6(self):
        g = build_gvw(complete(6), 0, 1)
        assert g.vertices() == [2, 3, 4, 5]
        assert g.num_edges == 6

    def test_missing_face(self):
        h = Hypergraph3(6, set(complete(6).iter_edges()) - {(0, 2, 3)})
        g = build_gvw(h, 0, 1)
        assert not g.has_edge(2, 3)

    def test_empty_neighborhood(self):
        h = Hypergraph3(6, [(2, 3, 4)])
        g = build_gvw(h, 0, 1)
        assert g.num_vertices == 0

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            build_gvw(complete(6), 2, 2)

    def test_vertex_set_is_pair_neighborhood(self):
        h = random_hypergraph(9, 0.6, seed=15)
        g = build_gvw(h, 1, 4)
        assert g.vmask == h.pair_neighbors(1, 4)

    def test_adjacency_matches_k4(self):
        h = random_hypergraph(8, 0.7, seed=16)
        g = build_gvw(h, 0, 1)
        for u in g.vertices():
            for w in g.vertices():
                if u < w:
                    assert g.has_edge(u, w) == is_k4(h, u, w, 0, 1)


class TestWalkCounts:
    def test_path_graph(self):
        g = AuxGraph.from_edges(3, [0, 1, 2], [(0, 1), (1, 2)])
        assert walk_count_table(g, 0, 2)[2] == 1

    def test_k4_two_steps(self):
        g = AuxGraph.from_edges(4, range(4), itertools.combinations(range(4), 2))
        assert walk_count_table(g, 0, 2)[1] == 2

    def test_k4_three_steps(self):
        g = AuxGraph.from_edges(4, range(4), itertools.combinations(range(4), 2))
        assert walk_count_table(g, 0, 3)[1] == 7

    def test_zero_length(self):
        g = AuxGraph.from_edges(3, [0, 1, 2], [(0, 1)])
        assert walk_count_table(g, 0, 0)[0] == 1
        assert walk_count_table(g, 0, 0)[1] == 0

    def test_outside_vertex_rejected(self):
        g = AuxGraph.from_edges(3, [0, 1], [(0, 1)])
        with pytest.raises(ValueError):
            walk_count_table(g, 2, 1)

    def test_table_row_one_is_adjacency(self):
        g = AuxGraph.from_edges(5, range(5), [(0, 1), (0, 2), (2, 3)])
        counts = walk_count_table(g, 0, 1)
        assert [counts[v] for v in range(5)] == [0, 1, 1, 0, 0]

    def test_matches_enumeration(self):
        rng = random.Random(17)
        for trial in range(50):
            nv = rng.randint(2, 6)
            edges = [
                e for e in itertools.combinations(range(nv), 2) if rng.random() < 0.6
            ]
            g = AuxGraph.from_edges(nv, range(nv), edges)
            adj = {v: set() for v in range(nv)}
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            x, y = rng.randrange(nv), rng.randrange(nv)
            s = rng.randint(1, 5)
            assert walk_count_table(g, x, s)[y] == brute_walk_count(adj, x, y, s)


def reference_exhaustive_cut(g, gamma):
    """The exhaustive branch in counting order: X is the lowest vertex plus
    rest[i] for each bit i of sub, every side's cut is counted afresh, and
    the first minimum wins.  Returns (best_side, best_crossing)."""
    members = g.vertices()
    nv = len(members)
    side_min = math.sqrt(gamma) * nv
    best_side, best_crossing = (), None
    if nv < 2 or side_min > nv / 2:
        return best_side, best_crossing
    anchor, rest = members[0], members[1:]
    for sub in range(1 << len(rest)):
        xs = {anchor} | {rest[i] for i in range(len(rest)) if (sub >> i) & 1}
        if len(xs) < side_min or nv - len(xs) < side_min:
            continue
        cut = sum(
            1 for x in xs for y in members if y not in xs and g.has_edge(x, y)
        )
        if best_crossing is None or cut < best_crossing:
            best_side, best_crossing = tuple(sorted(xs)), cut
    return best_side, best_crossing


class TestExpansionReport:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 14),
        st.integers(0, 3),
        st.floats(0.0, 1.0),
        st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.25]),
        st.integers(0, 10**6),
    )
    @example(nv=14, extra=2, p=0.0, gamma=0.05, seed=0)
    @example(nv=13, extra=0, p=1.0, gamma=0.1, seed=0)
    def test_exhaustive_matches_counting_order(self, nv, extra, p, gamma, seed):
        rng = random.Random(seed)
        members = sorted(rng.sample(range(nv + extra), nv))
        edges = [e for e in itertools.combinations(members, 2) if rng.random() < p]
        g = AuxGraph.from_edges(nv + extra, members, edges)
        rep = expansion_report(g, gamma)
        assert rep.exhaustive
        assert (rep.best_side, rep.best_crossing) == reference_exhaustive_cut(g, gamma)

    def test_complete10_no_violation(self):
        g = AuxGraph.from_edges(10, range(10), itertools.combinations(range(10), 2))
        rep = expansion_report(g, 0.1)
        assert rep.exhaustive
        assert not rep.violation_found
        assert rep.best_crossing is not None and rep.best_crossing >= rep.threshold

    def test_two_cliques_violation(self):
        edges = list(itertools.combinations(range(8), 2)) + [
            (u + 8, v + 8) for u, v in itertools.combinations(range(8), 2)
        ]
        g = AuxGraph.from_edges(16, range(16), edges)
        rep = expansion_report(g, 0.01)
        assert rep.exhaustive
        assert rep.violation_found
        assert rep.best_crossing == 0

    def test_edgeless_violation(self):
        g = AuxGraph.from_edges(10, range(10), [])
        rep = expansion_report(g, 0.04)
        assert rep.violation_found
        assert rep.best_crossing == 0

    def test_heuristic_label_for_large(self):
        edges = list(itertools.combinations(range(22), 2))
        g = AuxGraph.from_edges(22, range(22), edges)
        rep = expansion_report(g, 0.05, effort=20, seed=1)
        assert not rep.exhaustive
        assert not rep.violation_found

    def test_heuristic_finds_planted_cut(self):
        edges = list(itertools.combinations(range(11), 2)) + [
            (u + 11, v + 11) for u, v in itertools.combinations(range(11), 2)
        ]
        g = AuxGraph.from_edges(22, range(22), edges)
        rep = expansion_report(g, 0.02, effort=60, seed=3)
        assert not rep.exhaustive
        assert rep.violation_found
        assert rep.best_crossing == 0

    @pytest.mark.parametrize(
        "nv, p, gamma",
        [(8, 0.5, 0.05), (14, 0.2, 0.01), (19, 0.4, 0.1), (24, 0.3, 0.05), (40, 0.08, 0.02)],
    )
    def test_best_side_has_its_crossing(self, nv, p, gamma):
        rng = random.Random(nv)
        edges = [e for e in itertools.combinations(range(nv), 2) if rng.random() < p]
        g = AuxGraph.from_edges(nv, range(nv), edges)
        rep = expansion_report(g, gamma, effort=30, seed=2)
        assert rep.exhaustive == (nv <= 20)
        xs = set(rep.best_side)
        assert rep.best_crossing == sum((u in xs) != (v in xs) for u, v in edges)
        assert min(len(xs), nv - len(xs)) >= rep.side_min

    def test_deterministic(self):
        rng = random.Random(18)
        edges = [e for e in itertools.combinations(range(23), 2) if rng.random() < 0.2]
        g = AuxGraph.from_edges(23, range(23), edges)
        a = expansion_report(g, 0.03, effort=25, seed=9)
        b = expansion_report(g, 0.03, effort=25, seed=9)
        assert a == b
