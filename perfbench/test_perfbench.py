"""Tests of the benchmark itself: its ground-truth checks, its exit codes and
its tracer.  Run from the checkout root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

hs = run.load_package()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from hypersquare.certify import VertexSeq  # noqa: E402
from hypersquare.pipeline import OracleResult  # noqa: E402


class CheckTests(unittest.TestCase):
    def setUp(self):
        self.h = hs.generators.complete(9)
        self.cycle = VertexSeq(tuple(range(9)), closed=True)

    def test_valid_cycle_passes(self):
        checks.check_cycle(self.h, self.cycle)

    def test_corrupted_cycles_fail(self):
        vs = self.cycle.vertices
        for bad in (
            VertexSeq(vs[:-1] + (vs[0],), closed=True),  # repeated vertex
            VertexSeq(vs[:-1], closed=True),  # missing vertex
            VertexSeq(vs, closed=False),  # not a cycle
        ):
            with self.assertRaises(checks.CheckError):
                checks.check_cycle(self.h, bad)

    def test_non_squared_cycle_fails(self):
        # every window of 0..8 is a tetrahedron of complete(9); drop one edge
        triples = [e for e in itertools.combinations(range(9), 3) if e != (0, 1, 2)]
        h = hs.core.Hypergraph3(9, triples)
        with self.assertRaises(checks.CheckError):
            checks.check_cycle(h, self.cycle)

    def test_oracle_witnesses_are_recertified(self):
        bad_cycle = OracleResult("yes", VertexSeq((0, 1, 2, 3, 4, 5, 6, 7, 7), closed=True))
        with self.assertRaises(checks.CheckError):
            checks.check_oracle(self.h, "cycle", bad_cycle)
        h8 = hs.generators.complete(8)
        with self.assertRaises(checks.CheckError):
            checks.check_oracle(h8, "tiling", OracleResult("yes", [(0, 1, 2, 3), (3, 4, 5, 6)]))
        with self.assertRaises(checks.CheckError):
            checks.check_oracle(h8, "tiling", OracleResult("yes", [(0, 1, 2, 3)]))
        checks.check_oracle(h8, "tiling", OracleResult("yes", [(0, 1, 2, 3), (4, 5, 6, 7)]))

    def test_known_verdict_enforced(self):
        with self.assertRaises(checks.CheckError):
            checks.check_oracle(self.h, "cycle", OracleResult("no"), expected="yes")

    def test_degree_guarantees(self):
        checks.check_pikhurko(hs.generators.pikhurko(16)[0], 16)
        with self.assertRaises(checks.CheckError):
            checks.check_pikhurko(hs.generators.complete(16), 16)
        with self.assertRaises(checks.CheckError):
            checks.check_dense(hs.generators.dense_instance(14, 0.5, 1), 14, 0.9)

    def test_probe_cycle_on_no_instance_is_a_violation(self):
        wl = workloads.ProbeSmall()
        wl.cells = [self.h]
        rep = hs.pipeline.ConstructionReport("cycle", self.cycle, None, None, {}, 1)
        wl.check(0, (OracleResult("yes", self.cycle), rep))
        with self.assertRaises(checks.CheckError):
            wl.check(0, (OracleResult("no"), rep))

    def test_probe_construct_failure_counts_as_missed(self):
        wl = workloads.ProbeSmall()
        wl.cells = [self.h]
        rep = hs.pipeline.ConstructionReport("failure", None, "connect", None, {}, 3)
        for verdict in (OracleResult("yes", self.cycle), OracleResult("no")):
            self.assertTrue(wl.check(0, (verdict, rep)).missed)

    def test_build_lap_checks_every_call(self):
        wl = workloads.BuildStructure()
        wl.kinds = (("roundtrip", 2), ("complete", 1))
        wl.setup(hs, 1)
        results = wl.op(0)
        out = wl.check(0, results)
        self.assertEqual([kind for kind, _ in out.record], ["roundtrip", "roundtrip", "complete"])
        results[1] = results[2]  # a round trip that returns another hypergraph
        with self.assertRaises(checks.CheckError):
            wl.check(0, results)


class ExitCodeTests(unittest.TestCase):
    def test_corrupted_construct_output_exits_nonzero(self):
        real = hs.pipeline.construct_squared_hamiltonian

        def corrupted(h, cfg=None, attempts=3):
            rep = real(h, cfg, attempts)
            if rep.cycle is not None:
                vs = rep.cycle.vertices
                rep = dataclasses.replace(rep, cycle=VertexSeq(vs[:-1] + vs[:1], closed=True))
            return rep

        hs.pipeline.construct_squared_hamiltonian = corrupted
        try:
            code = run.main(
                ["--workload", "probe-small", "--seed", "1", "--seconds", "0.01"]
            )
        finally:
            hs.pipeline.construct_squared_hamiltonian = real
        self.assertEqual(code, run.EXIT_WRONG)

    def test_nondeterminism_is_flagged(self):
        records = {}
        run.remember(records, 3, ["cycle", 1])
        run.remember(records, 3, ("cycle", 1))
        with self.assertRaises(run.Nondeterminism):
            run.remember(records, 3, ["failure", 1])

    def test_without_source_exits_nonzero_and_prints_no_result(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench")
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "probe-small",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class TracerTests(unittest.TestCase):
    def test_spans_self_time_and_restore(self):
        before = dict(vars(hs.pipeline))
        h = hs.generators.dense_instance(14, 0.8, 3)
        tracer = tracing.Tracer()
        with tracer.active(tracer.install(hs), "ops"):
            tracer.op = 0
            tracer.enabled = True
            t0 = perf_counter()
            hs.pipeline.construct_squared_hamiltonian(h, hs.core.Config(seed=1))
            elapsed = perf_counter() - t0
        self.assertEqual(dict(vars(hs.pipeline)), before)
        names = {s[2] for s in tracer.spans}
        self.assertIn("pipeline.construct_squared_hamiltonian", names)
        self.assertIn("absorber.build_absorber_family", names)
        ids = {s[0] for s in tracer.spans}
        top = [s for s in tracer.spans if s[1] is None]
        self.assertEqual([s[2] for s in top], ["pipeline.construct_squared_hamiltonian"])
        self.assertTrue(all(s[1] in ids for s in tracer.spans if s[1] is not None))
        selfs = tracer.layer_self_seconds()
        total = top[0][5] - top[0][4]
        self.assertAlmostEqual(sum(selfs.values()), total, places=9)
        self.assertLessEqual(total, elapsed)

    def test_counters_count_and_restore(self):
        before = dict(vars(hs.certify))
        method = hs.core.Hypergraph3.__dict__["has_edge"]
        tracer = tracing.Tracer()
        h = hs.generators.complete(9)
        with tracer.active(tracer.install_counters(hs), "count"):
            tracer.enabled = True
            self.assertTrue(hs.certify.certify_hamiltonian(h, VertexSeq(tuple(range(9)), True)))
        self.assertEqual(dict(vars(hs.certify)), before)
        self.assertIs(hs.core.Hypergraph3.__dict__["has_edge"], method)
        # nine cyclic windows of four triples each
        self.assertEqual(tracer.counts[("count", "core.has_edge")], 36)


class ManifestTests(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        layer = tracing.Tracer().per_layer_metrics(1, 1.0, 1)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            [(k, unit) for k, (_v, unit) in layer.items()],
        )
        self.assertEqual(set(run.WORKLOAD_NAMES), set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
