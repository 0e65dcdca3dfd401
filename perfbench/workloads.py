"""The four benchmark workloads.

Each workload builds its inputs from the workload seed alone in ``setup``
and defines an endless, deterministic sequence of operations ``op(j)``.
Operation calls go through module attributes of the package (``hs.pipeline.
construct_squared_hamiltonian``), so the tracer's wrappers see them.  The
first ``prefix`` operations always run; failure ratios, completeness and the
deterministic counters are taken over them, so they do not depend on how
many operations fit in the timed phase.  A phase stops only after a whole
``lap`` of operations, so each run has the same mix of operation kinds.
``key(j)`` names the input an operation repeats: two operations with one key
must give one record.
NOTES.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks
from checks import CheckError


def sub_seed(seed: int, *tags) -> int:
    """Stable 63-bit seed derived from the workload seed and tags."""
    text = repr((seed,) + tags).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


def digest(vertices) -> str:
    return hashlib.sha256(repr(tuple(vertices)).encode()).hexdigest()[:16]


@dataclasses.dataclass
class Outcome:
    """What the benchmark keeps from one checked operation.

    ``record`` is compared across repeats and runs of one seed; ``no_answer``
    marks an operation that raised or timed out; ``missed`` marks a failure
    in the sense of ``failed_ratio`` (construct returned failure, an oracle
    timed out, or a probe cell's oracle said yes and construct found none).
    """

    record: list
    no_answer: bool = False
    missed: bool = False
    counts: Counter = dataclasses.field(default_factory=Counter)


def construct_outcome(h, rep) -> Outcome:
    if rep.outcome == "cycle":
        checks.check_cycle(h, rep.cycle)
    elif rep.outcome != "failure":
        raise CheckError(f"construct returned outcome {rep.outcome!r}")
    st = rep.stats
    fields = ("family_size", "reservoir_used", "cover_paths", "leftover_size")
    record = [rep.outcome, rep.stage, rep.attempts] + [st.get(f) for f in fields]
    record.append(digest(rep.cycle.vertices) if rep.cycle else None)
    counts = Counter({f"construct.{rep.outcome}": 1, "construct.attempts": rep.attempts})
    if rep.stage:
        counts[f"construct.stage.{rep.stage}"] += 1
    for f in fields:
        if st.get(f) is not None:
            counts[f"construct.{f}"] += st[f]
    return Outcome(record, missed=rep.outcome != "cycle", counts=counts)


class ConstructDense:
    name = "construct-dense"
    tail_pct = 75
    prefix, lap = 24, 3
    n, delta, instances = 150, 0.9, 3

    def setup(self, hs, seed: int) -> list[float]:
        self.hs, self.seed, self.graphs = hs, seed, []
        units = []
        for i in range(self.instances):
            s = sub_seed(seed, self.name, "instance", i)
            t0 = perf_counter()
            h = hs.generators.dense_random(self.n, self.delta, s)
            units.append(perf_counter() - t0)
            checks.check_dense(h, self.n, self.delta)
            self.graphs.append(h)
        return units

    def key(self, j: int):
        return j

    def op(self, j: int):
        hs = self.hs
        cfg = hs.core.Config(
            theta_star=0.3, seed=sub_seed(self.seed, self.name, "config", j // self.instances)
        )
        return hs.pipeline.construct_squared_hamiltonian(
            self.graphs[j % self.instances], cfg
        )

    def check(self, j: int, rep) -> Outcome:
        return construct_outcome(self.graphs[j % self.instances], rep)


class ProbeSmall:
    name = "probe-small"
    # p99 would sit on the ten or so slowest of the 1024 random cells, which
    # change from seed to seed; p95 still has hundreds of samples beyond it
    tail_pct = 95
    n, grid = 14, (0.6, 0.7, 0.8, 0.9)
    pool, unit = 1024, 128
    prefix, lap = pool, len(grid)
    oracle_limit = 60.0

    def setup(self, hs, seed: int) -> list[float]:
        self.hs, self.cells = hs, []
        units = []
        for u in range(self.pool // self.unit):
            t0 = perf_counter()
            for i in range(u * self.unit, (u + 1) * self.unit):
                frac = self.grid[i % len(self.grid)]
                s = sub_seed(seed, self.name, i)
                self.cells.append(hs.generators.dense_instance(self.n, frac, s))
            units.append(perf_counter() - t0)
        return units

    def key(self, j: int):
        return j % self.pool

    def op(self, j: int):
        hs = self.hs
        h = self.cells[j % self.pool]
        verdict = hs.pipeline.oracle_has_squared_hamiltonian(h, self.oracle_limit)
        rep = hs.pipeline.construct_squared_hamiltonian(h, hs.core.Config())
        return verdict, rep

    def check(self, j: int, result) -> Outcome:
        verdict, rep = result
        h = self.cells[j % self.pool]
        checks.check_oracle(h, "cycle", verdict)
        if verdict.status == "no" and rep.outcome == "cycle":
            raise CheckError("construct returned a cycle on an oracle-'no' instance")
        out = construct_outcome(h, rep)
        out.record.insert(0, verdict.status)
        out.counts[f"oracle_cycle.{verdict.status}"] += 1
        out.no_answer = verdict.status == "timeout"
        if verdict.status == "yes":
            out.counts["probe.oracle_yes"] += 1
            out.counts["probe.cycle_on_yes"] += rep.outcome == "cycle"
        out.missed |= out.no_answer
        return out


class OracleExhaustive:
    name = "oracle-exhaustive"
    tail_pct = 90
    sizes, strata = (16, 18), 36
    builds = 9
    oracle_limit = 60.0
    # Committed (n, instance seed, exact verdict, oracle ms) rows for the
    # dense_instance(n, 0.5, seed) instances whose cycle oracle took 50-400
    # ms when the table was made; the ms column only stratifies the draw.
    table = Path(__file__).with_name("oracle_seeds.json")

    def setup(self, hs, seed: int) -> list[float]:
        self.hs = hs
        rows = json.loads(self.table.read_text())
        rng = random.Random(sub_seed(seed, self.name, "pick"))
        picks = []
        # one row per size and cost stratum, so every seed gets the same mix
        for n in self.sizes:
            of_n = sorted((r for r in rows if r[0] == n), key=lambda r: (r[3], r[1]))
            for k in range(self.strata):
                lo = k * len(of_n) // self.strata
                hi = (k + 1) * len(of_n) // self.strata
                picks.append(rng.choice(of_n[lo:hi]))
        rng.shuffle(picks)
        self.lap = self.prefix = len(picks) + 1
        # one unit builds the whole pool; the pool is rebuilt `builds` times
        units = []
        for _ in range(self.builds):
            t0 = perf_counter()
            pik = hs.generators.pikhurko(16)[0]
            dense = [hs.generators.dense_instance(n, 0.5, s) for n, s, _v, _ms in picks]
            units.append(perf_counter() - t0)
        checks.check_pikhurko(pik, 16)
        # the extremal construction has no squared Hamiltonian cycle
        self.inputs = [(pik, "no")] + [(h, r[2]) for h, r in zip(dense, picks)]
        return units

    def key(self, j: int):
        return j % len(self.inputs)

    def op(self, j: int):
        pipeline = self.hs.pipeline
        h, _ = self.inputs[j % len(self.inputs)]
        cyc = pipeline.oracle_has_squared_hamiltonian(h, self.oracle_limit)
        til = None
        if h.n % 4 == 0:
            til = pipeline.oracle_has_perfect_k4_tiling(h, self.oracle_limit)
        return cyc, til

    def check(self, j: int, result) -> Outcome:
        cyc, til = result
        h, expected = self.inputs[j % len(self.inputs)]
        checks.check_oracle(h, "cycle", cyc, expected)
        out = Outcome([h.n, cyc.status], counts=Counter({f"oracle_cycle.{cyc.status}": 1}))
        if cyc.status == "yes":
            out.record.append(digest(cyc.witness.vertices))
        if til is not None:
            checks.check_oracle(h, "tiling", til)
            out.record.append(til.status)
            out.counts[f"oracle_tiling.{til.status}"] += 1
        out.no_answer = out.missed = "timeout" in (cyc.status, til and til.status)
        return out


class BuildStructure:
    name = "build-structure"
    # An operation is one lap that builds every kind of structure once or
    # more.  The cheap kinds repeat so that each takes 0.15-0.4 s of a lap
    # (costs measured at n = 60 on a 2-vCPU VM); build_g3 runs once and
    # takes 0.7-1.2 s.  So a slowdown of any one kind moves the lap time by
    # that kind's share, and no kind is hidden behind a percentile.
    kinds = (
        ("g3", 1),
        ("gv", 9),
        ("expansion", 1),
        ("complete", 4),
        ("pikhurko", 3),
        ("random", 4),
        ("dense", 2),
        ("roundtrip", 2),
        ("cli_gen", 2),
        ("cover", 600),
        ("k4_factor", 1),
    )
    # a run holds about six laps, too few for a percentile with 10 samples
    # beyond it, so the tail is the slowest lap
    tail_pct = 100
    prefix, lap = 2, 1
    n, delta, p, beta, gamma, q, mu = 60, 0.85, 0.8, 0.005, 0.003, 8, 0.1
    instances = 4

    def setup(self, hs, seed: int) -> list[float]:
        self.hs, self.seed, self.graphs, self.gvs = hs, seed, [], []
        units = []
        for i in range(self.instances):
            s = sub_seed(seed, self.name, "instance", i)
            t0 = perf_counter()
            h = hs.generators.dense_random(self.n, self.delta, s)
            gv = hs.auxgraphs.build_gv(h, i, self.beta)
            units.append(perf_counter() - t0)
            checks.check_dense(h, self.n, self.delta)
            self.graphs.append(h)
            self.gvs.append(gv)
        return units

    def key(self, j: int):
        return j

    def _calls(self, j: int):
        """(kind, instance, seed) of every call in lap ``j``."""
        for kind, repeats in self.kinds:
            for r in range(repeats):
                yield kind, (j + r) % self.instances, sub_seed(self.seed, self.name, j, kind, r)

    def op(self, j: int):
        return [self._call(*call) for call in self._calls(j)]

    def _call(self, kind: str, inst: int, s: int):
        hs = self.hs
        h = self.graphs[inst]
        n = self.n
        if kind == "g3":
            return hs.auxgraphs.build_g3(h, self.beta)
        if kind == "gv":
            return hs.auxgraphs.build_gv(h, s % n, self.beta)
        if kind == "complete":
            return hs.generators.complete(n)
        if kind == "pikhurko":
            return hs.generators.pikhurko(n)[0]
        if kind == "random":
            return hs.generators.random_hypergraph(n, self.p, s)
        if kind == "dense":
            return hs.generators.dense_random(n, self.delta, s)
        if kind == "roundtrip":
            return hs.core.parse_hypergraph(hs.core.format_hypergraph(h))
        if kind == "expansion":
            return hs.auxgraphs.expansion_report(self.gvs[inst], self.gamma, seed=s)
        if kind == "cover":
            return hs.tiling.cover_with_squared_paths(h, self.q, self.mu, seed=s)
        if kind == "k4_factor":
            return hs.tiling.almost_k4_factor(h, hs.core.Config(seed=s))
        buf = io.StringIO()
        argv = ["gen", "dense", str(n), "--delta2", str(self.delta), "--seed", str(s)]
        with contextlib.redirect_stdout(buf):
            code = hs.cli.main(argv)
        return code, buf.getvalue()

    def check(self, j: int, results) -> Outcome:
        out = Outcome([])
        for call, res in zip(self._calls(j), results, strict=True):
            kind = call[0]
            out.record.append([kind, self._check_call(*call, res)])
            out.counts[f"build.{kind}"] += 1
        return out

    def _check_call(self, kind: str, inst: int, s: int, res) -> int:
        """Check one call's result; return its size for the record."""
        h = self.graphs[inst]
        n = self.n
        if kind in ("g3", "gv"):
            want = h.full_mask & ~(1 << (s % n)) if kind == "gv" else h.full_mask
            if res.n != n or res.vmask != want:
                raise CheckError(f"{kind} graph has the wrong vertex set")
            return res.num_edges
        if kind == "complete":
            if res.num_edges != math.comb(n, 3):
                raise CheckError(f"complete({n}) has {res.num_edges} edges")
            return res.num_edges
        if kind == "pikhurko":
            checks.check_pikhurko(res, n)
            return res.num_edges
        if kind == "random":
            if res.n != n:
                raise CheckError(f"random_hypergraph({n}) has {res.n} vertices")
            return res.num_edges
        if kind == "dense":
            checks.check_dense(res, n, self.delta)
            return res.num_edges
        if kind == "roundtrip":
            if res != h:
                raise CheckError("parse_hypergraph(format_hypergraph(h)) != h")
            return res.num_edges
        if kind == "expansion":
            checks.check_expansion(self.gvs[inst], res)
            return res.best_crossing
        if kind == "cover":
            checks.check_cover(h, self.q, res.paths)
            return len(res.paths)
        if kind == "k4_factor":
            checks.check_k4_tiles(h, res.k4_tiles, covering=False)
            covered = {v for t in res.k4_tiles for v in t}
            if set(res.leftover) != set(range(n)) - covered:
                raise CheckError("almost_k4_factor leftover does not match its tiles")
            return len(res.k4_tiles)
        code, text = res
        if code != 0:
            raise CheckError(f"cli gen exited with {code}")
        g = checks.parse_hypergraph(text)
        checks.check_dense(g, n, self.delta)
        return g.num_edges


WORKLOADS = {w.name: w for w in (ConstructDense, ProbeSmall, OracleExhaustive, BuildStructure)}
