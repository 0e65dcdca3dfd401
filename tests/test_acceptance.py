"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and informational rates.
"""

import io
import itertools
import json
import random
import time

from hypersquare import (
    AbsorptionError,
    Config,
    PathConstructionError,
    absorb,
    build_absorber_family,
    build_absorbing_path,
    build_g3,
    build_gv,
    build_gvw,
    certify_hamiltonian,
    classify_pairs,
    complete,
    connect,
    construct_squared_hamiltonian,
    cover_with_squared_paths,
    dense_random,
    derive_seed,
    is_k4,
    is_squared_path,
    min_pair_degree,
    oracle_has_perfect_k4_tiling,
    oracle_has_squared_hamiltonian,
    pikhurko,
    random_hypergraph,
    walk_count_table,
    weighted_tiling,
)
from hypersquare.connector import Reservoir
from hypersquare.cli import main as cli_main
from hypersquare.core import AuxGraph
from conftest import brute_walk_count, exhaustive_tiling_weight

MASTER_SEED = 20240901


def note(msg: str):
    print(f"\n[PASS] {msg}")


def test_criterion_1_extremal_construction():
    for n in (8, 12):
        start = time.perf_counter()
        h, _ = pikhurko(n)
        assert min_pair_degree(h) == 3 * n // 4 - 2
        assert oracle_has_squared_hamiltonian(h, time_limit=115).status == "no"
        assert oracle_has_perfect_k4_tiling(h, time_limit=115).status == "no"
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"pikhurko({n}) took {elapsed:.1f}s"
    note(
        "criterion 1: pikhurko(8)/pikhurko(12) have no squared Hamiltonian "
        "cycle, no perfect K4 tiling, and min pair degree 3n/4 - 2"
    )


def test_criterion_2_k4_structure():
    for n in (8, 12, 16):
        h, parts = pikhurko(n)
        a0 = set(parts.parts[0])
        exceptions = 0
        for quad in itertools.combinations(range(n), 4):
            if is_k4(h, *quad):
                hits = len(a0 & set(quad))
                if hits != 0 and hits != 2:
                    exceptions += 1
        assert exceptions == 0, f"n={n}: {exceptions} bad tetrahedra"
    note(
        "criterion 2: every tetrahedron of pikhurko(8/12/16) meeting the "
        "first part does so in exactly 2 vertices (zero exceptions)"
    )


def test_criterion_3_soundness_sweep():
    violations = 0
    checked = 0
    disjoint_pair = lambda edges: next(
        (
            (e1, e2)
            for e1 in edges
            for e2 in edges
            if not set(e1) & set(e2)
        ),
        None,
    )
    for trial in range(200):
        n = 6 + trial % 5
        p = (0.5, 0.8, 1.0)[trial % 3]
        h = random_hypergraph(n, p, seed=derive_seed(MASTER_SEED, "sweep", trial))
        cfg = Config(seed=derive_seed(MASTER_SEED, "cfg", trial))

        edges = list(h.iter_edges())
        pair = disjoint_pair(edges)
        if pair is not None:
            seq = connect(h, pair[0], pair[1], cap_m=6)
            if seq is not None:
                checked += 1
                if not is_squared_path(h, seq):
                    violations += 1

        q = 8 if n >= 8 else 4
        res = cover_with_squared_paths(h, q, 0.5, seed=cfg.seed)
        for s in res.paths:
            checked += 1
            if not (len(s) == q and is_squared_path(h, s)):
                violations += 1

        fam = build_absorber_family(h, Reservoir(members=0), cfg)
        if fam.tuples:
            try:
                pa = build_absorbing_path(h, fam, Reservoir(members=0), cfg)
            except PathConstructionError:
                pa = None
            if pa is not None:
                checked += 1
                if not is_squared_path(h, pa):
                    violations += 1
                outside = sorted(set(range(n)) - set(pa.vertices))
                if outside:
                    try:
                        spliced = absorb(h, pa, fam, outside[:1])
                    except AbsorptionError:
                        spliced = None
                    if spliced is not None:
                        checked += 1
                        if not is_squared_path(h, spliced):
                            violations += 1

        report = construct_squared_hamiltonian(h, cfg)
        if report.succeeded:
            checked += 1
            if not certify_hamiltonian(h, report.cycle):
                violations += 1

    assert violations == 0
    note(
        f"criterion 3: soundness sweep over 200 random instances, "
        f"{checked} returned sequences certified, zero violations"
    )


def test_criterion_4_oracle_agreement():
    yes_instances = 0
    pipeline_hits = 0
    violations = 0
    for trial in range(50):
        h = dense_random(10, 0.8, seed=derive_seed(MASTER_SEED, "agree", trial))
        oracle = oracle_has_squared_hamiltonian(h, time_limit=60)
        report = construct_squared_hamiltonian(h, Config(seed=trial))
        if report.succeeded and oracle.status == "no":
            violations += 1
        if oracle.status == "yes":
            yes_instances += 1
            if report.succeeded:
                pipeline_hits += 1
    assert violations == 0
    rate = 100.0 * pipeline_hits / max(1, yes_instances)
    note(
        f"criterion 4: pipeline returned a cycle only on oracle-yes "
        f"instances; success rate on {yes_instances} oracle-yes instances: "
        f"{rate:.0f}% (informational)"
    )


def test_criterion_5_walk_counting():
    start = time.perf_counter()
    rng = random.Random(derive_seed(MASTER_SEED, "walks"))
    for trial in range(50):
        nv = rng.randint(2, 6)
        edges = [e for e in itertools.combinations(range(nv), 2) if rng.random() < 0.6]
        g = AuxGraph.from_edges(nv, range(nv), edges)
        adj = {v: set() for v in range(nv)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        x, y = rng.randrange(nv), rng.randrange(nv)
        s = rng.randint(1, 5)
        assert walk_count_table(g, x, s)[y] == brute_walk_count(adj, x, y, s)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    note(
        f"criterion 5: dynamic-programming walk counts equal brute-force "
        f"enumeration on 50 random graphs in {elapsed:.2f}s (< 5s)"
    )


def test_criterion_6_auxiliary_degree_bounds():
    beta = 0.005
    rng = random.Random(derive_seed(MASTER_SEED, "auxdeg"))
    for trial in range(5):
        start = time.perf_counter()
        h = dense_random(40, 0.85, seed=derive_seed(MASTER_SEED, "aux", trial))
        g3 = build_g3(h, beta)
        assert g3.min_degree() >= 10, f"G3 min degree {g3.min_degree()} < n/4"
        for v in rng.sample(range(40), 5):
            gv = build_gv(h, v, beta)
            assert gv.min_degree() >= 10, f"Gv({v}) min degree below n/4"
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"instance {trial} took {elapsed:.1f}s"
    for trial in range(5):
        start = time.perf_counter()
        h = dense_random(40, 0.85, seed=derive_seed(MASTER_SEED, "auxvw", trial))
        for _ in range(5):
            v, w = rng.sample(range(40), 2)
            gvw = build_gvw(h, v, w)
            assert gvw.min_degree() >= gvw.num_vertices / 2
        elapsed = time.perf_counter() - start
        assert elapsed < 30
    note(
        "criterion 6: on dense instances (n=40, target 0.85, beta=0.005) "
        "min degree of G3 and sampled Gv is at least n/4, and sampled Gvw "
        "min degree is at least half its vertex count"
    )


def test_criterion_7_tiling_optimality():
    rng = random.Random(derive_seed(MASTER_SEED, "tiling"))
    for trial in range(100):
        n = rng.randint(4, 7)
        p = rng.choice([0.3, 0.5, 0.7, 0.9])
        h = random_hypergraph(n, p, seed=derive_seed(MASTER_SEED, "tile", trial))
        bad = classify_pairs(h, rng.choice([0, 1, 2]))
        got = weighted_tiling(h, range(n), bad, seed=trial).weight
        want = exhaustive_tiling_weight(h, range(n), bad)
        assert got == want, f"trial {trial}: weight {got} != optimum {want}"
    k12 = complete(12)
    assert weighted_tiling(k12, range(12), classify_pairs(k12, 0)).weight == 33
    note(
        "criterion 7: weighted tiling matches the exhaustive optimum on 100 "
        "micro instances and reaches weight 33 on the complete 12-vertex case"
    )


def test_criterion_8_connection_feasibility():
    start = time.perf_counter()
    h = dense_random(30, 0.85, seed=derive_seed(MASTER_SEED, "conn"))
    edges = list(h.iter_edges())
    rng = random.Random(derive_seed(MASTER_SEED, "connpairs"))
    worst = 0
    for _ in range(50):
        e1 = rng.choice(edges)
        e2 = rng.choice([e for e in edges if not set(e) & set(e1)])
        seq = connect(h, e1, e2, cap_m=12)
        assert seq is not None, f"no connection {e1} -> {e2}"
        interior = len(seq) - 6
        assert interior <= 4, f"interior {interior} > 4"
        worst = max(worst, interior)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    note(
        f"criterion 8: 50 random disjoint edge pairs on a dense 30-vertex "
        f"instance all connect with interior <= 4 (max seen {worst}) "
        f"in {elapsed:.2f}s (< 60s)"
    )


def test_criterion_9_complete_range():
    start = time.perf_counter()
    for n in range(20, 41):
        h = complete(n)
        report = construct_squared_hamiltonian(h, Config())
        assert report.succeeded, f"n={n}: {report.stage}: {report.detail}"
        assert certify_hamiltonian(h, report.cycle)
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    note(
        f"criterion 9: construction succeeds and certifies on complete(n) "
        f"for all n in 20..40 in {elapsed:.2f}s (< 120s)"
    )


def _run_cli_capture(argv, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, out


def test_criterion_10_manifest_determinism(monkeypatch, capsys):
    from hypersquare import format_hypergraph

    runs = [
        (["gen", "dense", "12", "--delta2", "0.8", "--seed", "21"], ""),
        (["probe", "--n", "8", "--grid", "0.6,0.9", "--trials", "2", "--seed", "13"], ""),
        (["construct", "--seed", "5"], format_hypergraph(complete(22))),
        (["cover", "--q", "8", "--seed", "2"], format_hypergraph(complete(16))),
        (["tile", "--seed", "4"], format_hypergraph(complete(16))),
    ]
    for argv, stdin_text in runs:
        _, first = _run_cli_capture(argv, stdin_text, monkeypatch, capsys)
        # recover the embedded manifest and replay its argv
        if first.lstrip().startswith("{"):
            manifest = json.loads(first)["manifest"]
        else:
            line = next(l for l in first.splitlines() if l.startswith("# manifest: "))
            manifest = json.loads(line.removeprefix("# manifest: "))
        replay_argv = list(manifest["argv"])
        outputs = {first}
        for _ in range(3):
            _, out = _run_cli_capture(replay_argv, stdin_text, monkeypatch, capsys)
            outputs.add(out)
        assert len(outputs) == 1, f"{argv}: outputs differ across replays"
    note(
        "criterion 10: gen/probe/construct/cover/tile outputs replay "
        "byte-identically from their embedded manifests (3 runs each)"
    )
