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
import sys
import time

from . import absorber as absorber_mod
from .absorber import AbsorptionError, PathConstructionError, absorb, build_absorber_family
from .certify import VertexSeq, certify_hamiltonian
from .connector import connect_through_reservoir, sample_reservoir
from .core import Config, Hypergraph3, ResourceLimitError, bits_of, derive_seed, mask_of
from .generators import dense_instance
from .tiling import cover_with_squared_paths

# each exact oracle memoizes at most this many failed search states; past
# the cap, further dead ends are searched again when reached
FAILED_MEMO_CAP = 2_000_000
# the cycle oracle lists a head's closing tails only when the head has at
# most this many closing pairs (y, z).  A head of dense_instance(16|18, 0.5)
# has a median of 5 pairs (p90 15) and 30 tails (p90 113), and its search
# is long; one of dense_instance(14, 0.6-0.9) has a median of 33 pairs
# (p90 90) and up to 7,200 tails, and the first head usually holds a cycle
CLOSING_PAIR_CAP = 24


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
    try:
        reservoir = sample_reservoir(h, cfg)
    except ResourceLimitError as exc:
        raise _StageFailure("reservoir", str(exc)) from exc
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
    largest = build_absorber_family(h, reservoir, cfg, size=size)
    if not largest.tuples:
        raise _StageFailure("absorber_family", "no absorber tuples found")
    # the greedy may stall below the target size.  A one-tuple family has no
    # join, so its path is the tuple itself and the last size always builds
    for size in range(len(largest.tuples), 0, -1):
        fam = largest.truncated(size)
        try:
            pa = absorber_mod.build_absorbing_path(h, fam, reservoir, cfg)
            break
        except PathConstructionError:
            if size == 1:
                raise
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
    stats: dict = {}
    for attempt in range(max(1, attempts)):
        cfg_a = dataclasses.replace(cfg, seed=derive_seed(cfg.seed, "attempt", attempt))
        stats = {"attempt_seed": cfg_a.seed}
        try:
            cycle = _attempt_construction(h, cfg_a, stats)
            return ConstructionReport("cycle", cycle, None, None, stats, attempt + 1)
        except _StageFailure as exc:
            failure = exc
    return ConstructionReport(
        "failure", None, failure.stage, failure.detail, stats, max(1, attempts)
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


def _too_deep(n: int) -> ValueError:
    # each exact oracle recurses once per placed vertex or tile
    limit = sys.getrecursionlimit()
    return ValueError(f"n={n} is too large for the exact oracle: recursion limit {limit}")


def _k4_adjacency(h: Hypergraph3) -> list[int]:
    """adj[u] = bitset of vertices sharing some tetrahedron with u.

    u ~ v iff some c in N(u, v) leaves N(u, v) & N(u, c) & N(v, c) nonempty:
    any d in that set spans the tetrahedron uvcd.  Each tetrahedron found
    also links u, v and c to every such d, so those pairs are not searched.
    """
    n, pn = h.n, h._pn
    adj = [0] * n
    for u in range(n):
        row_u = pn[u]
        for v in range(u + 1, n):
            if adj[u] >> v & 1:
                continue
            nuv, row_v = row_u[v], pn[v]
            for c in bits_of(nuv):
                ds = nuv & row_u[c] & row_v[c]
                if ds:
                    uvc = (1 << u) | (1 << v) | (1 << c)
                    for x in (u, v, c):
                        adj[x] |= (uvc & ~(1 << x)) | ds
                    for d in bits_of(ds):
                        adj[d] |= uvc
                    break
    return adj


def _closing_tails(
    pn: list[list[int]], v1: int, head: int, close: int
) -> tuple[int, list[int]] | None:
    """The tails (w, x, y, z) that can end a cycle opening 0 v1 v2, as
    (every, keep): ``every`` has one bit per tail and ``keep[u]`` the bits of
    the tails avoiding u.  None when the head has more than
    ``CLOSING_PAIR_CAP`` closing pairs (y, z).

    z lies in close, y z 0 v1, x y z 0 and w x y z are tetrahedra, and no
    tail vertex is in the head.
    """
    base = pn[0][v1] & ~head
    pairs = []
    count = 0
    for z in bits_of(close):
        ys = base & pn[z][0] & pn[z][v1]
        count += ys.bit_count()
        if count > CLOSING_PAIR_CAP:
            return None
        pairs.append((z, ys))
    # hit[u] = the tails through u; the tails sharing z, then y, then x are
    # numbered consecutively, so those take one block of bits each
    hit = [0] * len(pn)
    bit = 1
    for z, ys in pairs:
        row_z, from_z = pn[z], bit
        for y in bits_of(ys):
            yz, from_y = row_z[y] & ~head, bit
            for x in bits_of(yz & pn[y][0] & row_z[0]):
                from_x = bit
                for w in bits_of(yz & pn[x][y] & pn[x][z]):
                    hit[w] |= bit
                    bit <<= 1
                hit[x] |= bit - from_x
            hit[y] |= bit - from_y
        hit[z] |= bit - from_z
    every = bit - 1
    return every, [every & ~tails for tails in hit]


def oracle_has_squared_hamiltonian(
    h: Hypergraph3, time_limit: float | None = 120.0
) -> OracleResult:
    """Exhaustive backtracking for a squared Hamiltonian cycle.

    Vertex 0 is pinned first and the direction fixed by second < last, which
    removes the 2n cyclic symmetries.  States are the last three placed
    vertices, and failed (placed-set, state) pairs are memoized.  Three
    prunes cut a branch before it is searched:

    - closing vertex: the last vertex closes the windows through 0, v1 and
      v2 (the first three), so it lies in N(0, v1) & N(0, v2) & N(v1, v2)
      above v1; a branch whose unplaced vertices miss that set dies;
    - closing tail: for n >= 7 the last four vertices w x y z lie off the
      head, z closes it and y z 0 v1, x y z 0 and w x y z are tetrahedra;
      a branch with four or more places left dies when no such tail is
      still unplaced, and a head with no tail is not searched.  The tails
      are listed only for heads with few closing pairs (y, z), see
      ``CLOSING_PAIR_CAP``;
    - window: a branch dies when some unplaced vertex no longer has six
      potential tetrahedron partners among the usable vertices.

    A child with no candidate is dropped before the memo sees it.  Intended
    for n up to about 20; a search deeper than the recursion limit raises
    ValueError.
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
    # alive & unplaced[u] drops u from the closing vertices still unplaced
    unplaced = [~(1 << u) for u in range(n)]

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
        if not close:
            return None
        # alive is the set of closing vertices still unplaced, or, up to
        # depth cut, the set of closing tails still unplaced; either way a
        # function of the placed set alone, so the memo key stays sound
        alive, tail_keep, cut = close, unplaced, n
        # below 7 vertices the tail overlaps the head
        tails = _closing_tails(pn, v1, head, close) if n >= 7 else None
        if tails is not None:
            alive, tail_keep = tails
            if not alive:
                return None
            cut = n - 4

        def rec(
            used: int, p: int, q: int, r: int, cands: int, depth: int, alive: int
        ) -> bool:
            # cands is nonempty and alive is nonempty
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
            if depth > cut:
                # u may be the tail's first vertex or later: fall back to
                # the closing vertex
                alive, keep = close & ~used, unplaced
            else:
                keep = tail_keep
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
                alive_u = alive & keep[u]
                if nxt and alive_u:
                    order.append(u)
                    if rec(used_u, q, r, u, nxt, depth, alive_u):
                        return True
                    order.pop()
            if len(failed) < FAILED_MEMO_CAP:
                failed.add(key)
            return False

        try:
            if rec(head, 0, v1, v2, k4_head & ~head, 3, alive):
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
                    if not certify_hamiltonian(h, cycle):
                        raise AssertionError("oracle witness failed certification")
                    return OracleResult("yes", cycle)
    except _Timeout:
        return OracleResult("timeout")
    except RecursionError:
        raise _too_deep(n) from None
    return OracleResult("no")


def oracle_has_perfect_k4_tiling(
    h: Hypergraph3, time_limit: float | None = 120.0
) -> OracleResult:
    """Exact-cover backtracking over tetrahedra, branching on the lowest
    uncovered vertex; failed residual vertex sets are memoized.  A search
    deeper than the recursion limit raises ValueError."""
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
        if len(failed) < FAILED_MEMO_CAP:
            failed.add(avail)
        return False

    try:
        if rec(h.full_mask):
            return OracleResult("yes", [tuple(sorted(t)) for t in chosen])
    except _Timeout:
        return OracleResult("timeout")
    except RecursionError:
        raise _too_deep(n) from None
    finally:
        # break the rec -> rec reference cycle that would keep the memo alive
        failed.clear()
        del rec
    return OracleResult("no")


PROBE_FIELDS = ("fraction", "trial", "oracle", "pipeline", "agreement")


def threshold_probe(
    n: int,
    grid,
    trials: int,
    seed: int,
    time_limit: float | None = 60.0,
    run_oracle: bool = True,
    run_pipeline: bool = True,
) -> str:
    """CSV report over a grid of target pair-degree fractions.

    For each fraction, ``trials`` seeded instances are generated and judged
    by the exact oracle and/or the construction pipeline.  Output is
    byte-deterministic under the seed.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    rows = []
    for gi, fraction in enumerate(grid):
        for trial in range(trials):
            cell_seed = derive_seed(seed, "probe", gi, trial)
            inst = dense_instance(n, fraction, cell_seed)
            oracle_verdict = "skipped"
            if run_oracle:
                oracle_verdict = oracle_has_squared_hamiltonian(inst, time_limit).status
            pipeline_verdict = "skipped"
            if run_pipeline:
                pipeline_verdict = construct_squared_hamiltonian(
                    inst, Config(seed=cell_seed)
                ).outcome
            if not (run_oracle and run_pipeline):
                agreement = "n/a"
            elif pipeline_verdict == "cycle" and oracle_verdict == "no":
                agreement = "violation"
            else:
                agreement = "consistent"
            rows.append(
                (f"{fraction:g}", trial, oracle_verdict, pipeline_verdict, agreement)
            )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PROBE_FIELDS)
    writer.writerows(rows)
    return buf.getvalue()
