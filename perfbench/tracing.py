"""Outside-in layer tracing for the benchmark.

Spans are recorded around calls into the package's public functions by
replacing each function at every module attribute its callers look up (the
defining module, every module that imported the name, and the package
namespace).  Nothing under ``src/`` changes; ``uninstall`` restores the
original objects.

A span carries its name, start, end, parent span and operation id.  Spans of
functions called tens of thousands of times per operation ("hot" spans) are
folded into per-name aggregates instead of being stored one by one; they
still take part in parent/child accounting, so self times stay exact.  The
two functions called up to a million times per operation (COUNTED) are not
timed at all: a separate counting pass counts their calls, so that their
wrappers do not inflate the traced times.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "core",
    "generators",
    "certify",
    "connector",
    "absorber",
    "tiling",
    "auxgraphs",
    "pipeline",
    "cli",
)

# Outcome hooks turn a call's result into counters at the layer boundary.


def _count_found(key):
    def hook(tracer, result, exc):
        if exc is None and result is not None:
            tracer.bump(key)

    return hook


def _count_path_failure(tracer, result, exc):
    if exc is not None and type(exc).__name__ == "PathConstructionError":
        tracer.bump("absorber.path_failures")


def _count_cover_paths(tracer, result, exc):
    if exc is None:
        tracer.bump("tiling.cover_paths", len(result.paths))


def _count_construct(tracer, result, exc):
    if exc is None:
        tracer.bump("pipeline.attempts", result.attempts)
        if result.outcome != "cycle":
            tracer.bump(f"pipeline.failed_stage.{result.stage}")


def _count_timeout(tracer, result, exc):
    if exc is None and result.status == "timeout":
        tracer.bump("pipeline.oracle_timeouts")


# (module, attribute, hot, hook).  "Class.method" patches the class.
SPECS = (
    ("core", "Hypergraph3.__init__", False, None),
    ("core", "parse_hypergraph", False, None),
    ("core", "format_hypergraph", False, None),
    ("generators", "complete", False, None),
    ("generators", "pikhurko", False, None),
    ("generators", "random_hypergraph", False, None),
    ("generators", "dense_random", False, None),
    ("generators", "dense_instance", False, None),
    ("certify", "is_v_absorber", True, None),
    ("certify", "is_squared_cycle", False, None),
    ("certify", "certify_hamiltonian", False, None),
    ("connector", "sample_reservoir", False, None),
    ("connector", "connect", False, _count_found("connector.connect_found")),
    (
        "connector",
        "connect_through_reservoir",
        False,
        _count_found("connector.reservoir_connect_found"),
    ),
    ("absorber", "enumerate_v_absorbers", False, None),
    ("absorber", "build_absorber_family", False, None),
    ("absorber", "build_absorbing_path", False, _count_path_failure),
    ("absorber", "absorb", False, None),
    ("tiling", "classify_pairs", False, None),
    ("tiling", "prune_bad_vertices", False, None),
    ("tiling", "weighted_tiling", False, None),
    ("tiling", "almost_k4_factor", False, None),
    ("tiling", "cover_with_squared_paths", False, _count_cover_paths),
    ("auxgraphs", "build_g3", False, None),
    ("auxgraphs", "build_gv", False, None),
    ("auxgraphs", "expansion_report", False, None),
    ("pipeline", "construct_squared_hamiltonian", False, _count_construct),
    ("pipeline", "oracle_has_squared_hamiltonian", False, _count_timeout),
    ("pipeline", "oracle_has_perfect_k4_tiling", False, _count_timeout),
    ("cli", "main", False, None),
)

CONSTRUCT_STAGES = (
    "reservoir",
    "absorber_family",
    "absorbing_path",
    "connect",
    "absorb",
    "certify",
)


# Most spans kept one by one; later ones are only aggregated and counted as
# dropped, so a long traced run cannot grow without bound.
SPAN_LIMIT = 250_000

# Counted, never timed: (module, attribute, counter name).
COUNTED = (
    ("core", "Hypergraph3.has_edge", "core.has_edge"),
    ("certify", "is_squared_path", "certify.is_squared_path"),
)


def _patch(package, module: str, attr: str, make) -> list:
    """Replace ``module.attr`` by ``make(original)`` wherever a module of the
    package binds it ("Class.method" patches the class); returns undo
    entries."""
    mod = getattr(package, module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(mod, cls_name)
        orig = owner.__dict__[meth]
        setattr(owner, meth, make(orig))
        return [(owner, meth, orig)]
    orig = getattr(mod, attr)
    replacement = make(orig)
    undo = []
    for m in [package] + [getattr(package, name) for name in LAYERS]:
        for key, val in list(vars(m).items()):
            if val is orig:
                setattr(m, key, replacement)
                undo.append((m, key, orig))
    return undo


class Tracer:
    """Span recorder.  ``phase`` is "setup", "ops" or "count"; ``op`` is
    the id of the operation in flight.  Wrappers record only while
    ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.phase = "setup"
        self.op = "setup"
        self.spans: list[tuple] = []
        self.dropped = 0
        # (phase, name) -> [calls, inclusive seconds, self seconds]
        self.agg: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0
        self._origin = perf_counter()

    def bump(self, key: str, by: int = 1):
        self.counts[(self.phase, key)] += by

    def wrap(self, name: str, fn, hot: bool, hook):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                entry = tracer.agg[(tracer.phase, name)]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                if not hot:
                    if len(tracer.spans) < SPAN_LIMIT:
                        tracer.spans.append(
                            (span_id, parent, name, tracer.op, start, end)
                        )
                    else:
                        tracer.dropped += 1
                if hook is not None:
                    hook(tracer, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package) -> list:
        """Wrap every function in SPECS with a span; returns the undo list
        for ``uninstall``."""
        undo = []
        for module, attr, hot, hook in SPECS:
            name = f"{module}.{attr.split('.')[0]}"
            undo += _patch(package, module, attr, lambda f: self.wrap(name, f, hot, hook))
        return undo

    def install_counters(self, package) -> list:
        """Wrap the functions in COUNTED with call counters only.  They run
        up to a million times per large construct, so they are counted in a
        pass of their own and never timed."""
        undo = []
        for module, attr, key in COUNTED:
            undo += _patch(package, module, attr, lambda f: self._counter(key, f))
        return undo

    def _counter(self, key: str, fn):
        tracer = self

        def counted(*args):
            if tracer.enabled:
                tracer.counts[(tracer.phase, key)] += 1
            return fn(*args)

        return counted

    @staticmethod
    def uninstall(undo: list):
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    @contextlib.contextmanager
    def active(self, undo: list, phase: str):
        """Attribute records to ``phase`` until the block ends, then disable
        recording and undo the patches in ``undo``."""
        self.phase = phase
        try:
            yield self
        finally:
            self.enabled = False
            self.uninstall(undo)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, op, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "op": op,
                            "start": round(start - self._origin, 9),
                            "end": round(end - self._origin, 9),
                        }
                    )
                )
                fh.write("\n")

    # -- metrics ------------------------------------------------------

    def _calls(self, name: str) -> int:
        return self.agg[("ops", name)][0] if ("ops", name) in self.agg else 0

    def _per_call(self, name: str, column: int = 1) -> float:
        """Mean inclusive (column 1) or self (column 2) seconds per call."""
        rows = [self.agg[(p, name)] for p in ("setup", "ops") if (p, name) in self.agg]
        calls = sum(r[0] for r in rows)
        return sum(r[column] for r in rows) / calls if calls else 0.0

    def _count(self, key: str, phase: str = "ops") -> int:
        return self.counts.get((phase, key), 0)

    def layer_self_seconds(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (phase, name), (_c, _t, s) in self.agg.items():
            if phase == "ops":
                out[name.split(".")[0]] += s
        return out

    def per_layer_metrics(
        self, ops: int, op_seconds: float, counted_ops: int
    ) -> dict[str, tuple]:
        """Every per-layer metric, name -> (value, unit).

        ``*_s`` metrics are mean inclusive seconds per call over set-up and
        timed calls; counts are per operation of the traced phase, or of the
        counting pass (``counted_ops`` operations) for COUNTED functions;
        ratios have their own base; ``*.self_share`` is the layer's self time over
        the traced operations' total time, the rest being the benchmark's
        own code inside the timed region (``harness.self_share``)."""
        ops = max(ops, 1)

        def per_op(x):
            return x / ops

        def ratio(num, den):
            return num / den if den else 0.0

        connects = self._calls("connector.connect")
        rconnects = self._calls("connector.connect_through_reservoir")
        m = {
            "core.build_s": (self._per_call("core.Hypergraph3"), "s"),
            "core.parse_s": (self._per_call("core.parse_hypergraph"), "s"),
            "core.format_s": (self._per_call("core.format_hypergraph"), "s"),
            "core.has_edge_calls": (
                ratio(self._count("core.has_edge", "count"), counted_ops),
                "count/op",
            ),
            "generators.dense_random_s": (self._per_call("generators.dense_random"), "s"),
            "generators.dense_instance_s": (
                self._per_call("generators.dense_instance"),
                "s",
            ),
            "generators.complete_s": (self._per_call("generators.complete"), "s"),
            "generators.pikhurko_s": (self._per_call("generators.pikhurko"), "s"),
            "generators.random_s": (self._per_call("generators.random_hypergraph"), "s"),
            "certify.is_v_absorber_calls": (
                per_op(self._calls("certify.is_v_absorber")),
                "count/op",
            ),
            "certify.is_v_absorber_s": (self._per_call("certify.is_v_absorber"), "s"),
            "certify.is_squared_path_calls": (
                ratio(self._count("certify.is_squared_path", "count"), counted_ops),
                "count/op",
            ),
            "certify.hamiltonian_s": (self._per_call("certify.certify_hamiltonian"), "s"),
            "connector.connect_calls": (per_op(connects), "count/op"),
            "connector.connect_s": (self._per_call("connector.connect"), "s"),
            "connector.connect_found_ratio": (
                ratio(self._count("connector.connect_found"), connects),
                "ratio",
            ),
            "connector.reservoir_connect_calls": (per_op(rconnects), "count/op"),
            "connector.reservoir_connect_found_ratio": (
                ratio(self._count("connector.reservoir_connect_found"), rconnects),
                "ratio",
            ),
            "absorber.family_s": (self._per_call("absorber.build_absorber_family"), "s"),
            "absorber.family_builds": (
                per_op(self._calls("absorber.build_absorber_family")),
                "count/op",
            ),
            "absorber.enumerate_calls": (
                per_op(self._calls("absorber.enumerate_v_absorbers")),
                "count/op",
            ),
            "absorber.path_s": (self._per_call("absorber.build_absorbing_path"), "s"),
            "absorber.path_failures": (
                per_op(self._count("absorber.path_failures")),
                "count/op",
            ),
            "absorber.absorb_s": (self._per_call("absorber.absorb"), "s"),
            "tiling.cover_s": (self._per_call("tiling.cover_with_squared_paths"), "s"),
            "tiling.cover_paths": (per_op(self._count("tiling.cover_paths")), "count/op"),
            "tiling.k4_factor_s": (self._per_call("tiling.almost_k4_factor"), "s"),
            "tiling.weighted_tiling_s": (self._per_call("tiling.weighted_tiling"), "s"),
            "auxgraphs.g3_s": (self._per_call("auxgraphs.build_g3"), "s"),
            "auxgraphs.gv_s": (self._per_call("auxgraphs.build_gv"), "s"),
            "auxgraphs.expansion_s": (self._per_call("auxgraphs.expansion_report"), "s"),
            "pipeline.construct_self_s": (
                self._per_call("pipeline.construct_squared_hamiltonian", column=2),
                "s",
            ),
            "pipeline.attempts": (
                ratio(
                    self._count("pipeline.attempts"),
                    self._calls("pipeline.construct_squared_hamiltonian"),
                ),
                "count/call",
            ),
        }
        for stage in CONSTRUCT_STAGES:
            key = f"pipeline.failed_stage.{stage}"
            m[key] = (per_op(self._count(key)), "count/op")
        m["pipeline.oracle_cycle_s"] = (
            self._per_call("pipeline.oracle_has_squared_hamiltonian"),
            "s",
        )
        m["pipeline.oracle_tiling_s"] = (
            self._per_call("pipeline.oracle_has_perfect_k4_tiling"),
            "s",
        )
        m["pipeline.oracle_timeouts"] = (
            per_op(self._count("pipeline.oracle_timeouts")),
            "count/op",
        )
        m["cli.gen_s"] = (self._per_call("cli.main"), "s")
        selfs = self.layer_self_seconds()
        for layer in LAYERS:
            m[f"{layer}.self_share"] = (ratio(selfs[layer], op_seconds), "ratio")
        m["harness.self_share"] = (
            ratio(max(op_seconds - sum(selfs.values()), 0.0), op_seconds),
            "ratio",
        )
        return m
