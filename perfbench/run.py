"""hypersquare benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S [--trace 0|1]

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout and nothing is installed.  One workload runs in
one process as a closed loop with one caller.  The timed phase runs whole
laps of operations until the operations' own time reaches ``--seconds`` and
the workload's prefix of operations has run.  Every output is checked
against ground truth outside the timed region; a wrong output or a
nondeterministic one stops the run with exit code 1 and no result line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` splits the time
between an untraced and a traced phase over the same operations, adds a
short pass that only counts the hottest calls, and prints the per-layer
metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Details,
spans and the per-seed determinism records go to ``.perfbench_runs/`` in
the checkout.  ``--all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("construct-dense", "probe-small", "oracle-exhaustive", "build-structure")
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# length of the traced run's call-counting pass, in operation seconds
COUNT_SECONDS = 2.0
EXIT_WRONG = 1
EXIT_NO_SOURCE = 2


class Nondeterminism(Exception):
    """One seed gave two different records for one input."""


def load_package():
    """Import hypersquare from this checkout's src/, never from elsewhere."""
    if not (SRC / "hypersquare" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypersquare

    for layer in tracing.LAYERS:
        importlib.import_module(f"hypersquare.{layer}")
    if Path(hypersquare.__file__).resolve().parent != SRC / "hypersquare":
        raise ImportError(f"hypersquare imported from {hypersquare.__file__}, not {SRC}")
    return hypersquare


def tree_digest(files) -> str:
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    bench = Path(__file__).resolve().parent
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        if got.returncode == 0:
            revision = got.stdout.strip()
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "src_sha256": tree_digest((SRC / "hypersquare").glob("*.py")),
        "bench_sha256": tree_digest([*bench.glob("*.py"), *bench.glob("*.json")]),
    }


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Value at percentile ``pct`` and the number of samples above it."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    rank = int(min(rank, len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Phase:
    """One timed pass over the workload's operation sequence."""

    def __init__(self):
        self.times: list[float] = []
        self.no_answer = 0
        self.errors: list[str] = []

    @property
    def busy(self) -> float:
        return sum(self.times)


def run_phase(wl, seconds, records, prefix_stats=None, tracer=None, prefix=None) -> Phase:
    """Run whole laps of operations until their summed time reaches
    ``seconds`` and the first ``prefix`` (default: the workload's prefix)
    operations have run.  ``prefix_stats`` (when given) collects the
    outcomes of the prefix operations."""
    prefix = wl.prefix if prefix is None else prefix
    ph = Phase()
    busy = 0.0
    j = 0
    while busy < seconds or j < prefix or j % wl.lap:
        if tracer is not None:
            tracer.op = j
            tracer.enabled = True
        t0 = perf_counter()
        try:
            result = wl.op(j)
            error = None
        except Exception:
            result = None
            error = traceback.format_exc()
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        busy += dt
        ph.times.append(dt)
        if error is not None:
            ph.no_answer += 1
            if len(ph.errors) < 3:
                ph.errors.append(error)
            record = ["error", error.strip().splitlines()[-1]]
            out = None
        else:
            out = wl.check(j, result)
            ph.no_answer += out.no_answer
            record = out.record
        remember(records, wl.key(j), record)
        if prefix_stats is not None and j < prefix:
            prefix_stats["ops"] += 1
            if out is None:
                prefix_stats["missed"] += 1
            else:
                prefix_stats["missed"] += out.missed
                prefix_stats.update(out.counts)
        j += 1
    return ph


def remember(records: dict, key, record):
    record = json.loads(json.dumps(record))
    key = str(key)
    if key in records and records[key] != record:
        raise Nondeterminism(f"input {key}: {records[key]} then {record}")
    records[key] = record


def cross_run_check(wl_name: str, env: dict, records: dict) -> str:
    """Compare this run's records with earlier runs of the same seed,
    package source and benchmark source, then merge them in."""
    sources = env["src_sha256"][:12] + env["bench_sha256"][:12]
    path = OUT / "determinism" / f"{wl_name}-seed{env['seed']}-{sources}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {}
    common = records.keys() & earlier.keys()
    for key in sorted(common):
        if earlier[key] != records[key]:
            raise Nondeterminism(
                f"input {key} differs from an earlier run of this seed: "
                f"{earlier[key]} then {records[key]}"
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({**earlier, **records}, sort_keys=True))
    tmp.replace(path)
    return f"{len(common)} inputs matched earlier runs" if earlier else "first run of this seed"


def end_to_end(wl, units, ph: Phase) -> dict:
    times = sorted(ph.times)
    tail, beyond = nearest_rank(times, wl.tail_pct)
    return {
        "setup_s": statistics.median(units),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail,
        "ops_per_s": len(times) / ph.busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "_tail_beyond": beyond,
    }


def report_lines(wl, units, ph, m, stats) -> tuple[list[str], dict]:
    base = stats["ops"]
    extra = {
        "failed_ratio": stats["missed"] / base,
        "failed_ratio_base": base,
        "tail_percentile": wl.tail_pct,
        "tail_samples_beyond": m["_tail_beyond"],
        "setup_units": len(units),
        "setup_total_s": sum(units),
    }
    lines = [
        f"setup_s          {m['setup_s']:.6f} s    median of {len(units)} set-up units, "
        f"{sum(units):.3f} s in all",
        f"op_s.p50         {m['op_s.p50']:.6f} s    n={len(ph.times)}",
        f"op_s.tail        {m['op_s.tail']:.6f} s    p{wl.tail_pct}, "
        f"{m['_tail_beyond']} samples beyond, n={len(ph.times)}",
        f"ops_per_s        {m['ops_per_s']:.6f} 1/s  over {ph.busy:.3f} s of operations",
        f"peak_rss_mb      {m['peak_rss_mb']:.3f} MB",
        f"failed_ratio     {extra['failed_ratio']:.6f} ratio  "
        f"{stats['missed']} of {base} prefix operations",
    ]
    if "probe.oracle_yes" in stats:
        yes = stats["probe.oracle_yes"]
        extra["completeness"] = stats["probe.cycle_on_yes"] / yes if yes else 0.0
        extra["completeness_base"] = yes
        lines.append(
            f"completeness     {extra['completeness']:.6f} ratio  "
            f"{stats['probe.cycle_on_yes']} cycles on {yes} oracle-yes instances"
        )
    return lines, extra


def run_workload(args) -> int:
    try:
        hs = load_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SOURCE
    import checks
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    env = environment(args.seed)
    records: dict = {}
    stats: Counter = Counter()
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    try:
        if args.trace:
            result = traced_run(hs, wl, args, records, stats)
        else:
            result = plain_run(hs, wl, args, records, stats)
        result["determinism"] = cross_run_check(wl.name, env, records)
    except checks.CheckError as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_WRONG
    except Nondeterminism as exc:
        print(f"error: nondeterminism: {exc}", file=sys.stderr)
        return EXIT_WRONG
    print(f"determinism      {result['determinism']}")
    counters = {k: v for k, v in sorted(stats.items()) if k not in ("ops", "missed")}
    print("counters " + json.dumps(counters, sort_keys=True))
    for err in result.pop("errors"):
        print(f"operation error:\n{err}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    detail = {"workload": wl.name, "env": env, "counters": counters, **result}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True)
    )
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


def warm_up(wl, records):
    """Run the first operation once, untimed; its record must match the
    timed repeat."""
    remember(records, wl.key(0), wl.check(0, wl.op(0)).record)


def plain_run(hs, wl, args, records, stats) -> dict:
    units = wl.setup(hs, args.seed)
    warm_up(wl, records)
    ph = run_phase(wl, args.seconds, records, stats)
    m = end_to_end(wl, units, ph)
    lines, extra = report_lines(wl, units, ph, m, stats)
    print("\n".join(lines))
    return {
        "attempted": len(ph.times),
        "failed": ph.no_answer,
        "metrics": {k: {"value": m[k], "unit": u} for k, u in END_TO_END_UNITS.items()},
        "report": extra,
        "errors": ph.errors,
    }


def traced_run(hs, wl, args, records, stats) -> dict:
    tracer = tracing.Tracer()
    with tracer.active(tracer.install(hs), "setup"):
        tracer.enabled = True
        units = wl.setup(hs, args.seed)
    warm_up(wl, records)
    plain = run_phase(wl, args.seconds / 2, records, stats)
    with tracer.active(tracer.install(hs), "ops"):
        traced = run_phase(wl, args.seconds / 2, records, tracer=tracer)
    with tracer.active(tracer.install_counters(hs), "count"):
        counted = run_phase(wl, COUNT_SECONDS, records, tracer=tracer, prefix=0)
    p50_plain = statistics.median(plain.times)
    p50_traced = statistics.median(traced.times)
    layer = tracer.per_layer_metrics(len(traced.times), traced.busy, len(counted.times))
    print(
        f"tracing overhead: op_s.p50 {p50_traced:.6f} s traced vs {p50_plain:.6f} s "
        f"untraced, ratio {p50_traced / p50_plain:.4f}; {len(tracer.spans)} spans kept, "
        f"{tracer.dropped} dropped"
    )
    print(f"{'layer':<12}{'self s/op':>12}{'share':>9}{'of untraced op_s.p50':>24}")
    for name in tracing.LAYERS + ("harness",):
        share = layer[f"{name}.self_share"][0]
        print(
            f"{name:<12}{share * traced.busy / len(traced.times):>12.6f}"
            f"{share:>9.4f}{share * p50_plain:>22.6f} s"
        )
    for name, (value, unit) in layer.items():
        print(f"{name:<42}{value:>16.9g} {unit}")
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{wl.name}-seed{args.seed}.spans.jsonl")
    return {
        "attempted": len(plain.times) + len(traced.times),
        "failed": plain.no_answer + traced.no_answer,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "report": {
            "op_s.p50_untraced": p50_plain,
            "op_s.p50_traced": p50_traced,
            "overhead_ratio": p50_traced / p50_plain,
            "traced_ops": len(traced.times),
            "setup_units": len(units),
        },
        "errors": plain.errors + traced.errors,
    }


def run_all(args) -> int:
    """Every workload in its own process; prints each one's output and a
    summary of the result lines."""
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary")
    for name, res in summary.items():
        for metric, mv in res["metrics"].items():
            print(f"{name:<18} {metric:<42} {mv['value']:>16.9g} {mv['unit']}")
        print(f"{name:<18} attempted={res['attempted']} failed={res['failed']}")
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description="hypersquare benchmark")
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
