"""End-to-end construction of a squared Hamiltonian cycle, plus the exact
oracles used as ground truth on small instances.

The construction follows the absorption recipe: sample a reservoir, build a
disjoint absorber family avoiding it, chain the family into one absorbing
path, cover the rest with fixed-length squared paths, close everything into
a cycle through the reservoir, and absorb whatever is left into the
absorbing path.  At desk scale the asymptotic guarantees do not apply, so
every stage failure is a first-class reported outcome and a returned cycle
is always certified before it leaves this module.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import time

from . import absorber as absorber_mod
from .absorber import AbsorptionError, PathConstructionError, absorb, build_absorber_family
from .certify import VertexSeq, certify_hamiltonian
from .connector import connect_through_reservoir, sample_reservoir
from .core import Config, Hypergraph3, ResourceLimitError, bits_of, derive_seed, mask_of
from .generators import dense_instance
from .tiling import cover_with_squared_paths


@dataclasses.dataclass
class ConstructionReport:
    """Outcome of one construction run: a certified cycle or the first
    failing stage, with per-stage sizes and timings."""

    outcome: str  # "cycle" or "failure"
    cycle: VertexSeq | None
    stage: str | None
    detail: str | None
    stats: dict
    attempts: int

    @property
    def succeeded(self) -> bool:
        return self.outcome == "cycle"


class _StageFailure(Exception):
    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail


def _attempt_construction(h: Hypergraph3, cfg: Config, stats: dict) -> VertexSeq:
    n = h.n
    timings: dict[str, float] = {}
    stats["timings"] = timings

    t0 = time.perf_counter()
    reservoir = sample_reservoir(h, cfg)
    timings["reservoir"] = time.perf_counter() - t0
    stats["reservoir_size"] = reservoir.member_count

    # Bank as much absorption capacity as disjointness allows: the cover
    # leaves up to q - 1 vertices plus the unused reservoir for the final
    # absorption, far more than the asymptotic 2 theta^2 n at these sizes.
    # A family that large can starve the joins of interior vertices on
    # incomplete instances, so smaller families are tried after a join
    # failure before the whole attempt is abandoned.  The family of k tuples
    # is the first k tuples of the largest one, so it is built once.
    t0 = time.perf_counter()
    size = max(1, (n - reservoir.member_count) // 6)
    largest = build_absorber_family(h, reservoir, cfg, min_tuples=size, max_tuples=size)
    if not largest.tuples:
        raise _StageFailure("absorber_family", "no absorber tuples found")
    join_error = None
    # the greedy may stall below the target size
    for size in range(len(largest.tuples), 0, -1):
        fam = largest.truncated(size)
        try:
            pa = absorber_mod.build_absorbing_path(h, fam, reservoir, cfg)
            break
        except PathConstructionError as exc:
            join_error = exc
    else:
        raise _StageFailure("absorbing_path", str(join_error)) from join_error
    timings["absorber_family"] = time.perf_counter() - t0
    stats["family_size"] = len(fam.tuples)
    stats["family_degraded"] = fam.degraded
    stats["absorbing_path_size"] = len(pa)

    t0 = time.perf_counter()
    domain = h.full_mask & ~mask_of(pa.vertices) & ~reservoir.members
    paths: list[VertexSeq] = []
    qs = [cfg.q] if cfg.q == 4 else [cfg.q, 4]
    for q_eff in qs:
        if domain.bit_count() < q_eff:
            continue
        res = cover_with_squared_paths(
            h,
            q_eff,
            cfg.mu,
            seed=derive_seed(cfg.seed, "cover", q_eff),
            domain=domain,
        )
        paths.extend(res.paths)
        for s in res.paths:
            domain &= ~mask_of(s.vertices)
    timings["cover"] = time.perf_counter() - t0
    stats["cover_paths"] = len(paths)

    t0 = time.perf_counter()
    ring = list(pa.vertices)
    for piece in paths:
        joined = connect_through_reservoir(
            h, reservoir, tuple(ring[-3:]), piece.start_triple, cfg.cap_m
        )
        if joined is None:
            raise _StageFailure(
                "connect",
                f"no reservoir connection {tuple(ring[-3:])} -> {piece.start_triple}",
            )
        ring.extend(joined.vertices[3:-3])
        ring.extend(piece.vertices)
    closing = connect_through_reservoir(
        h, reservoir, tuple(ring[-3:]), tuple(ring[:3]), cfg.cap_m
    )
    if closing is None:
        raise _StageFailure(
            "connect", f"cannot close the cycle {tuple(ring[-3:])} -> {tuple(ring[:3])}"
        )
    ring.extend(closing.vertices[3:-3])
    timings["connect"] = time.perf_counter() - t0
    stats["reservoir_used"] = reservoir.used_count

    leftover = sorted(set(range(n)) - set(ring))
    stats["leftover_size"] = len(leftover)

    t0 = time.perf_counter()
    if leftover:
        try:
            spliced = absorb(h, pa, fam, leftover)
        except AbsorptionError as exc:
            raise _StageFailure("absorb", str(exc)) from exc
        ring = list(spliced.vertices) + ring[len(pa) :]
    timings["absorb"] = time.perf_counter() - t0

    cycle = VertexSeq(tuple(ring), closed=True)
    if not certify_hamiltonian(h, cycle):
        raise _StageFailure("certify", "assembled cycle failed certification")
    return cycle


def construct_squared_hamiltonian(
    h: Hypergraph3, cfg: Config | None = None, attempts: int = 3
) -> ConstructionReport:
    """Run the staged construction, reseeding up to ``attempts`` times.

    Never returns an uncertified cycle; any stage failure of the last
    attempt is reported with its stage name and detail.
    """
    if h.n < 5:
        raise ValueError("construction needs at least 5 vertices")
    cfg = cfg or Config()
    last_failure: _StageFailure | None = None
    stats: dict = {}
    for attempt in range(max(1, attempts)):
        cfg_a = dataclasses.replace(cfg, seed=derive_seed(cfg.seed, "attempt", attempt))
        stats = {"attempt_seed": cfg_a.seed}
        try:
            cycle = _attempt_construction(h, cfg_a, stats)
            return ConstructionReport("cycle", cycle, None, None, stats, attempt + 1)
        except (_StageFailure, ResourceLimitError) as exc:
            if isinstance(exc, _StageFailure):
                last_failure = exc
            else:
                last_failure = _StageFailure("reservoir", str(exc))
    assert last_failure is not None
    return ConstructionReport(
        "failure",
        None,
        last_failure.stage,
        last_failure.detail,
        stats,
        max(1, attempts),
    )


@dataclasses.dataclass(frozen=True)
class OracleResult:
    """Exact verdict: status is 'yes', 'no', or 'timeout'; yes carries a
    certified witness."""

    status: str
    witness: object = None


class _Deadline:
    __slots__ = ("at", "ticks")

    def __init__(self, seconds: float | None):
        self.at = None if seconds is None else time.perf_counter() + seconds
        self.ticks = 0

    def expired(self) -> bool:
        if self.at is None:
            return False
        self.ticks += 1
        if self.ticks & 0x3FF:
            return False
        return time.perf_counter() > self.at


class _Timeout(Exception):
    pass


def _k4_adjacency(h: Hypergraph3) -> list[int]:
    """adj[u] = bitset of vertices sharing some tetrahedron with u.

    u ~ v iff some c in N(u, v) leaves N(u, v) & N(u, c) & N(v, c) nonempty:
    any d in that set spans the tetrahedron uvcd.
    """
    n, pn = h.n, h._pn
    adj = [0] * n
    for u in range(n):
        row_u = pn[u]
        for v in range(u + 1, n):
            nuv, row_v = row_u[v], pn[v]
            for c in bits_of(nuv):
                if nuv & row_u[c] & row_v[c]:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    break
    return adj


def oracle_has_squared_hamiltonian(
    h: Hypergraph3, time_limit: float | None = 120.0
) -> OracleResult:
    """Exhaustive backtracking for a squared Hamiltonian cycle.

    Vertex 0 is pinned first and the direction fixed by second < last, which
    removes the 2n cyclic symmetries.  States are the last three placed
    vertices, and failed (placed-set, state) pairs are memoized.  Two prunes
    cut a branch before it is searched:

    - closing vertex: the last vertex closes the windows through 0, v1 and
      v2 (the first three), so it lies in N(0, v1) & N(0, v2) & N(v1, v2)
      above v1; a branch whose unplaced vertices miss that set dies;
    - window: a branch dies when some unplaced vertex no longer has six
      potential tetrahedron partners among the usable vertices.

    A child with no candidate is dropped before the memo sees it.  Intended
    for n up to about 20.
    """
    n = h.n
    if n < 5:
        raise ValueError("squared Hamiltonian cycles need at least 5 vertices")
    pn = h._pn
    k4adj = _k4_adjacency(h)
    need = min(6, n - 1)
    if any(k4adj[v].bit_count() < need for v in range(n)):
        return OracleResult("no")

    deadline = _Deadline(time_limit)
    full = h.full_mask
    # Only these vertices can fail the window test.  Below depth n the scope
    # holds n - depth + min(depth, 6) vertices, so a vertex sharing a
    # tetrahedron with every other vertex keeps at least need mates in it.
    deficient = mask_of(v for v in range(n) if k4adj[v] | (1 << v) != full)

    def search(v1: int, v2: int) -> tuple[int, ...] | None:
        failed: set[tuple[int, int, int, int]] = set()
        order: list[int] = []
        head = 1 | (1 << v1) | (1 << v2)
        # the vertices spanning a tetrahedron with 0, v1 and v2: the fourth
        # vertex is one, and so is the last, which completes the window
        # (last, 0, v1, v2) and lies above v1 so that each cycle is
        # searched in one direction only
        k4_head = pn[0][v1] & pn[0][v2] & pn[v1][v2]
        close = k4_head & ~((2 << v1) - 1)

        def rec(used: int, p: int, q: int, r: int, cands: int, depth: int) -> bool:
            # cands is nonempty and some unplaced vertex lies in close
            key = (used, p, q, r)
            if key in failed:
                return False
            if deadline.expired():
                raise _Timeout
            unused = full & ~used
            if unused & deficient:
                # any unplaced vertex draws its six window mates from the
                # unplaced vertices, the frontier p, q, r, and the fixed head
                scope = unused | (1 << p) | (1 << q) | (1 << r) | head
                for u in bits_of(unused & deficient):
                    if (k4adj[u] & scope).bit_count() < need:
                        cands = 0
                        break
            row_q, row_r = pn[q], pn[r]
            qr = row_q[r]
            depth += 1
            while cands:
                low = cands & -cands
                cands ^= low
                u = low.bit_length() - 1
                nxt = qr & row_q[u] & row_r[u]
                if depth == n:
                    # u, the one unplaced vertex, is in close; the windows
                    # (q, r, u, 0) and (r, u, 0, v1) are left to check
                    if nxt & (row_r[u] >> v1) & (row_r[0] >> v1) & 1:
                        order.append(u)
                        return True
                    continue
                used_u = used | low
                nxt &= ~used_u
                if nxt and close & ~used_u:
                    order.append(u)
                    if rec(used_u, q, r, u, nxt, depth):
                        return True
                    order.pop()
            if len(failed) < 2_000_000:
                failed.add(key)
            return False

        try:
            if close and rec(head, 0, v1, v2, k4_head & ~head, 3):
                return (0, v1, v2) + tuple(order)
            return None
        finally:
            # rec refers to itself, so without this the memo would outlive
            # the search in a reference cycle until the cyclic GC ran
            failed.clear()
            del rec

    try:
        for v1 in range(1, n):
            for v2 in bits_of(pn[0][v1] & ~0b1 & ~(1 << v1)):
                found = search(v1, v2)
                if found is not None:
                    cycle = VertexSeq(found, closed=True)
                    assert certify_hamiltonian(h, cycle)
                    return OracleResult("yes", cycle)
    except _Timeout:
        return OracleResult("timeout")
    return OracleResult("no")


def oracle_has_perfect_k4_tiling(
    h: Hypergraph3, time_limit: float | None = 120.0
) -> OracleResult:
    """Exact-cover backtracking over tetrahedra, branching on the lowest
    uncovered vertex; failed residual vertex sets are memoized."""
    n = h.n
    if n % 4 != 0 or n == 0:
        return OracleResult("no")
    pn = h._pn
    deadline = _Deadline(time_limit)
    failed: set[int] = set()
    chosen: list[tuple[int, int, int, int]] = []

    def rec(avail: int) -> bool:
        if deadline.expired():
            raise _Timeout
        if not avail:
            return True
        if avail in failed:
            return False
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        for x in bits_of(rest):
            yz_base = pn[v][x] & rest
            for y in bits_of(yz_base & ~((2 << x) - 1)):
                zmask = yz_base & pn[v][y] & pn[x][y]
                for z in bits_of(zmask & ~((2 << y) - 1)):
                    chosen.append((v, x, y, z))
                    if rec(avail & ~((1 << v) | (1 << x) | (1 << y) | (1 << z))):
                        return True
                    chosen.pop()
        if len(failed) < 2_000_000:
            failed.add(avail)
        return False

    try:
        if rec(h.full_mask):
            return OracleResult("yes", [tuple(sorted(t)) for t in chosen])
    except _Timeout:
        return OracleResult("timeout")
    finally:
        # break the rec -> rec reference cycle that would keep the memo alive
        failed.clear()
        del rec
    return OracleResult("no")


PROBE_FIELDS = ("fraction", "trial", "oracle", "pipeline", "agreement")


def _probe_cell(args) -> tuple:
    n, fraction, trial, cell_seed, time_limit, run_oracle, run_pipeline = args
    inst = dense_instance(n, fraction, cell_seed)
    oracle_verdict = "skipped"
    if run_oracle:
        oracle_verdict = oracle_has_squared_hamiltonian(inst, time_limit).status
    pipeline_verdict = "skipped"
    if run_pipeline:
        report = construct_squared_hamiltonian(inst, Config(seed=cell_seed))
        pipeline_verdict = report.outcome
    if run_oracle and run_pipeline:
        if pipeline_verdict == "cycle" and oracle_verdict == "no":
            agreement = "violation"
        else:
            agreement = "consistent"
    else:
        agreement = "n/a"
    return (f"{fraction:g}", trial, oracle_verdict, pipeline_verdict, agreement)


def threshold_probe(
    n: int,
    grid,
    trials: int,
    seed: int,
    time_limit: float | None = 60.0,
    run_oracle: bool = True,
    run_pipeline: bool = True,
    jobs: int = 1,
) -> str:
    """CSV report over a grid of target pair-degree fractions.

    For each fraction, ``trials`` seeded instances are generated and judged
    by the exact oracle and/or the construction pipeline.  Output is
    byte-deterministic under the seed; parallel jobs only change wall time.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    cells = []
    for gi, fraction in enumerate(grid):
        for trial in range(trials):
            cell_seed = derive_seed(seed, "probe", gi, trial)
            cells.append(
                (n, fraction, trial, cell_seed, time_limit, run_oracle, run_pipeline)
            )
    rows = None
    if jobs > 1 and cells:
        import concurrent.futures

        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_probe_cell, cells))
        except (OSError, RuntimeError):
            rows = None  # no subprocess support here; fall back to one worker
    if rows is None:
        rows = [_probe_cell(c) for c in cells]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PROBE_FIELDS)
    writer.writerows(rows)
    return buf.getvalue()
