import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersquare import (
    Config,
    Hypergraph3,
    ResourceLimitError,
    certify_hamiltonian,
    complete,
    construct_squared_hamiltonian,
    dense_instance,
    is_k4,
    oracle_has_perfect_k4_tiling,
    oracle_has_squared_hamiltonian,
    pikhurko,
    random_hypergraph,
    threshold_probe,
)
from hypersquare import pipeline
from hypersquare.core import bits_of
from hypersquare.pipeline import _k4_adjacency
from conftest import brute_has_hamiltonian, recursion_headroom

SRC = Path(__file__).resolve().parent.parent / "src"


def relabel(h: Hypergraph3, perm: list[int]) -> Hypergraph3:
    return Hypergraph3(h.n, [tuple(perm[v] for v in e) for e in h.iter_edges()])


class TestConstruct:
    def test_complete_range_sample(self):
        for n in (20, 27, 33, 40):
            h = complete(n)
            report = construct_squared_hamiltonian(h, Config())
            assert report.succeeded, (n, report.stage, report.detail)
            assert certify_hamiltonian(h, report.cycle)

    def test_empty_fails_at_absorbers(self):
        report = construct_squared_hamiltonian(Hypergraph3(20), Config())
        assert report.outcome == "failure"
        assert report.stage == "absorber_family"

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            construct_squared_hamiltonian(complete(4), Config())

    def test_reservoir_limit_is_a_stage_failure(self, monkeypatch):
        def oversized(h, cfg):
            raise ResourceLimitError("reservoir within size bound 0.00 not found")

        monkeypatch.setattr(pipeline, "sample_reservoir", oversized)
        report = construct_squared_hamiltonian(complete(20), Config())
        assert (report.outcome, report.stage, report.attempts) == ("failure", "reservoir", 3)
        assert report.detail == "reservoir within size bound 0.00 not found"

    def test_pikhurko_fails(self):
        h, _ = pikhurko(16)
        report = construct_squared_hamiltonian(h, Config())
        assert report.outcome == "failure"

    def test_stats_populated(self):
        report = construct_squared_hamiltonian(complete(24), Config())
        for key in (
            "reservoir_size",
            "family_size",
            "absorbing_path_size",
            "cover_paths",
            "leftover_size",
            "timings",
        ):
            assert key in report.stats

    def test_deterministic_cycle(self):
        h = complete(26)
        a = construct_squared_hamiltonian(h, Config(seed=11))
        b = construct_squared_hamiltonian(h, Config(seed=11))
        assert a.cycle == b.cycle


def brute_k4_adjacency(h: Hypergraph3) -> list[int]:
    """adj[u] = bitset of the vertices sharing a tetrahedron with u, from
    every 4-set of vertices."""
    edges = set(h.iter_edges())
    adj = [0] * h.n
    for quad in itertools.combinations(range(h.n), 4):
        if all(t in edges for t in itertools.combinations(quad, 3)):
            for u, v in itertools.combinations(quad, 2):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def reference_cycle_oracle(h: Hypergraph3):
    """(status, witness) of the cycle search with the closing-vertex and
    window prunes only, with no deadline or memo cap and the tetrahedron
    adjacency taken from every 4-set.  It visits heads and children in the
    oracle's order, so the first witness must agree as well as the verdict.
    """
    n, pn = h.n, h._pn
    k4adj = brute_k4_adjacency(h)
    need = min(6, n - 1)
    if any(a.bit_count() < need for a in k4adj):
        return "no", None
    full = h.full_mask
    for v1 in range(1, n):
        for v2 in bits_of(pn[0][v1] & ~0b1 & ~(1 << v1)):
            head = 1 | (1 << v1) | (1 << v2)
            k4_head = pn[0][v1] & pn[0][v2] & pn[v1][v2]
            close = k4_head & ~((2 << v1) - 1)
            failed = set()
            order = [0, v1, v2]

            def rec(used, p, q, r, cands, depth):
                key = (used, p, q, r)
                if key in failed:
                    return False
                unused = full & ~used
                scope = unused | (1 << p) | (1 << q) | (1 << r) | head
                if any((k4adj[u] & scope).bit_count() < need for u in bits_of(unused)):
                    cands = 0
                row_q, row_r = pn[q], pn[r]
                depth += 1
                for u in bits_of(cands):
                    nxt = row_q[r] & row_q[u] & row_r[u]
                    if depth == n:
                        if nxt & (row_r[u] >> v1) & (row_r[0] >> v1) & 1:
                            order.append(u)
                            return True
                        continue
                    used_u = used | (1 << u)
                    nxt &= ~used_u
                    if nxt and close & ~used_u:
                        order.append(u)
                        if rec(used_u, q, r, u, nxt, depth):
                            return True
                        order.pop()
                failed.add(key)
                return False

            if close and rec(head, 0, v1, v2, k4_head & ~head, 3):
                return "yes", tuple(order)
    return "no", None


class TestK4Adjacency:
    @settings(max_examples=60)
    @given(st.integers(0, 10), st.floats(0.0, 1.0), st.integers(0, 10**6))
    def test_matches_brute_force(self, n, p, seed):
        h = random_hypergraph(n, p, seed)
        assert _k4_adjacency(h) == brute_k4_adjacency(h)


class TestCycleOracle:
    def test_complete5_yes(self):
        res = oracle_has_squared_hamiltonian(complete(5))
        assert res.status == "yes"
        assert certify_hamiltonian(complete(5), res.witness)

    def test_isolated_vertex_no(self):
        edges = [e for e in complete(6).iter_edges() if 5 not in e]
        assert oracle_has_squared_hamiltonian(Hypergraph3(6, edges)).status == "no"

    def test_pikhurko8_no(self, pik8):
        assert oracle_has_squared_hamiltonian(pik8[0]).status == "no"

    def test_matches_brute_force(self):
        rng = random.Random(50)
        for trial in range(40):
            n = rng.randint(5, 7)
            h = random_hypergraph(n, rng.choice([0.5, 0.75, 1.0]), seed=600 + trial)
            got = oracle_has_squared_hamiltonian(h, 30).status
            assert got == ("yes" if brute_has_hamiltonian(h) else "no")

    def test_isomorphism_invariance(self):
        rng = random.Random(51)
        for trial in range(10):
            n = rng.randint(6, 9)
            h = random_hypergraph(n, 0.8, seed=700 + trial)
            perm = list(range(n))
            rng.shuffle(perm)
            a = oracle_has_squared_hamiltonian(h, 30).status
            b = oracle_has_squared_hamiltonian(relabel(h, perm), 30).status
            assert a == b

    def test_prunes_match_brute_force(self):
        # n <= 8 and sparse enough that some searched instances have a vertex
        # sharing no tetrahedron with some other vertex, so the window test's
        # per-vertex loop runs
        deficient = 0
        for p in (0.4, 0.6, 0.75):
            for n in range(5, 9):
                for seed in range(40):
                    h = random_hypergraph(n, p, seed=1000 * n + seed)
                    adj = _k4_adjacency(h)
                    if all(a.bit_count() >= min(6, n - 1) for a in adj):
                        deficient += any(a | (1 << v) != h.full_mask for v, a in enumerate(adj))
                    res = oracle_has_squared_hamiltonian(h, time_limit=None)
                    assert res.status == ("yes" if brute_has_hamiltonian(h) else "no")
                    if res.status == "yes":
                        vs = res.witness.vertices
                        assert vs[0] == 0 and vs[1] < vs[-1]
                        assert certify_hamiltonian(h, res.witness)
        assert deficient

    @pytest.mark.parametrize("n", range(5, 13))
    def test_closing_tails_match_reference(self, n, monkeypatch):
        # dense instances cross the closing-pair cap in both directions and
        # n = 5, 6, 7 straddles the size where the tail first fits off the
        # head; sparse random ones have few tails, and some heads none
        closing_tails = pipeline._closing_tails
        listed = []  # per listed head: its number of tails, None over the cap

        def listing(*args):
            tails = closing_tails(*args)
            listed.append(None if tails is None else tails[0].bit_count())
            return tails

        monkeypatch.setattr(pipeline, "_closing_tails", listing)
        instances = [
            dense_instance(n, f, seed) for f in (0.4, 0.5, 0.6, 0.7, 0.8) for seed in range(6)
        ]
        instances += [
            random_hypergraph(n, p, 100 * n + seed) for p in (0.5, 0.7) for seed in range(10)
        ]
        for h in instances:
            res = oracle_has_squared_hamiltonian(h, time_limit=None)
            witness = res.witness.vertices if res.witness is not None else None
            assert (res.status, witness) == reference_cycle_oracle(h)
        # tails are listed from n = 7, some heads have none and, from n = 9,
        # some have more closing pairs than the cap
        if n < 7:
            assert not listed
        else:
            assert 0 in listed and any(listed)
        if n >= 9:
            assert None in listed

    def test_planted_cycle_found(self):
        # the square of a relabelled Hamiltonian cycle, plus a few random
        # edges: each vertex shares a tetrahedron with barely more than its
        # six window mates, so the window test is tight on every branch
        rng = random.Random(54)
        for trial in range(30):
            n = rng.randint(8, 12)
            order = list(range(n))
            rng.shuffle(order)
            edges = {
                tuple(sorted((order[i], order[(i + a) % n], order[(i + b) % n])))
                for i in range(n)
                for a, b in ((1, 2), (1, 3), (2, 3))
            }
            extra = [t for t in itertools.combinations(range(n), 3) if t not in edges]
            edges.update(rng.sample(extra, rng.randint(0, n)))
            h = Hypergraph3(n, edges)
            res = oracle_has_squared_hamiltonian(h, time_limit=None)
            assert res.status == "yes"
            assert certify_hamiltonian(h, res.witness)

    def test_window_prune_cuts_a_dead_end(self):
        # vertex 19 keeps only the edges inside 0..6 and 19, so it must sit
        # among 0..6; the window test sees the branch that strands it, which
        # a search without that test runs to its deadline
        edges = [
            e
            for e in complete(20).iter_edges()
            if 19 not in e or max(v for v in e if v != 19) < 7
        ]
        res = oracle_has_squared_hamiltonian(Hypergraph3(20, edges), time_limit=10)
        assert res.status == "yes"
        assert res.witness.vertices == (0, 1, 2, 3, *range(7, 19), 4, 5, 6, 19)

    def test_timeout_outcome(self):
        res = oracle_has_squared_hamiltonian(complete(14), time_limit=0.0)
        assert res.status in ("timeout", "yes")  # precheck may answer instantly
        # pikhurko(20) has no such cycle, and refuting it visits about
        # 530,000 search states, far past the deadline's first clock read
        res2 = oracle_has_squared_hamiltonian(pikhurko(20)[0], time_limit=0.0)
        assert res2.status == "timeout"

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            oracle_has_squared_hamiltonian(complete(4))

    def test_witness_certified_under_optimize(self):
        """python -O strips assert statements; the witness check must stay."""
        code = (
            "import sys\n"
            "from hypersquare import complete, pipeline\n"
            "pipeline.certify_hamiltonian = lambda h, cycle: False\n"
            "try:\n"
            "    pipeline.oracle_has_squared_hamiltonian(complete(6))\n"
            "except AssertionError:\n"
            "    print(sys.flags.optimize, 'raised')\n"
            "else:\n"
            "    print(sys.flags.optimize, 'returned')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["1", "raised"]


class TestTilingOracle:
    def test_complete8_yes(self):
        res = oracle_has_perfect_k4_tiling(complete(8))
        assert res.status == "yes"
        assert len(res.witness) == 2
        covered = sorted(v for t in res.witness for v in t)
        assert covered == list(range(8))
        for t in res.witness:
            assert is_k4(complete(8), *t)

    def test_not_divisible_no(self):
        assert oracle_has_perfect_k4_tiling(complete(10)).status == "no"

    def test_pikhurko8_no(self, pik8):
        assert oracle_has_perfect_k4_tiling(pik8[0]).status == "no"

    def test_pikhurko12_no(self, pik12):
        assert oracle_has_perfect_k4_tiling(pik12[0]).status == "no"

    def test_complete16_yes(self):
        assert oracle_has_perfect_k4_tiling(complete(16)).status == "yes"

    def test_timeout_outcome(self):
        res = oracle_has_perfect_k4_tiling(pikhurko(20)[0], time_limit=0.0)
        assert res.status == "timeout"

    def test_isomorphism_invariance(self):
        rng = random.Random(52)
        for trial in range(8):
            h = random_hypergraph(8, 0.75, seed=800 + trial)
            perm = list(range(8))
            rng.shuffle(perm)
            a = oracle_has_perfect_k4_tiling(h, 30).status
            b = oracle_has_perfect_k4_tiling(relabel(h, perm), 30).status
            assert a == b


class TestOracleDepth:
    """Both exact oracles recurse once per placed vertex or tile, so an input
    too large for the recursion limit is refused with ValueError, and any
    input small enough keeps its answer."""

    def test_cycle_oracle_too_deep(self):
        expected = oracle_has_squared_hamiltonian(complete(12))
        with recursion_headroom(30):
            assert oracle_has_squared_hamiltonian(complete(12)) == expected
            with pytest.raises(ValueError, match="n=40 "):
                oracle_has_squared_hamiltonian(complete(40))

    def test_tiling_oracle_too_deep(self):
        expected = oracle_has_perfect_k4_tiling(complete(40))
        with recursion_headroom(30):
            assert oracle_has_perfect_k4_tiling(complete(40)) == expected
            with pytest.raises(ValueError, match="n=160 "):
                oracle_has_perfect_k4_tiling(complete(160))


class TestOraclePipelineConsistency:
    def test_pipeline_cycle_implies_oracle_yes(self):
        rng = random.Random(53)
        for trial in range(15):
            n = rng.randint(8, 10)
            h = random_hypergraph(n, 0.9, seed=900 + trial)
            report = construct_squared_hamiltonian(h, Config(seed=trial))
            if report.succeeded:
                assert oracle_has_squared_hamiltonian(h, 60).status == "yes"


class TestThresholdProbe:
    def test_row_count_and_header(self):
        csv_text = threshold_probe(10, [0.7, 0.8, 0.9], 5, seed=1)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "fraction,trial,oracle,pipeline,agreement"
        assert len(lines) == 1 + 15

    def test_deterministic(self):
        a = threshold_probe(9, [0.6, 0.8], 3, seed=4)
        b = threshold_probe(9, [0.6, 0.8], 3, seed=4)
        assert a == b

    def test_grid_one_all_yes(self):
        csv_text = threshold_probe(10, [1.0], 3, seed=2)
        rows = csv_text.strip().splitlines()[1:]
        for row in rows:
            _, _, oracle, pipeline, agreement = row.split(",")
            assert oracle == "yes"
            assert pipeline == "cycle"
            assert agreement == "consistent"

    def test_grid_zero_all_no(self):
        csv_text = threshold_probe(10, [0.0], 3, seed=3)
        rows = csv_text.strip().splitlines()[1:]
        for row in rows:
            _, _, oracle, pipeline, agreement = row.split(",")
            assert oracle == "no"
            assert pipeline == "failure"

    def test_skip_flags(self):
        csv_text = threshold_probe(8, [0.5], 2, seed=5, run_oracle=False)
        rows = csv_text.strip().splitlines()[1:]
        for row in rows:
            assert row.split(",")[2] == "skipped"
            assert row.split(",")[4] == "n/a"

    def test_no_violations_on_dense_grid(self):
        csv_text = threshold_probe(9, [0.8, 0.9], 4, seed=6)
        for row in csv_text.strip().splitlines()[1:]:
            assert row.split(",")[4] != "violation"
