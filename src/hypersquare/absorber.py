"""Absorbers: 6-tuples that can swallow one extra vertex without disturbing
the ends of a host path.

A tuple (a, b, c, d, e, f) absorbs v when both abcdef and abcvdef are
squared paths; v is always inserted between c and d.  The family selection
is greedy, lowest-coverage vertex first, instead of the asymptotic random
selection: at desk scale the random density would leave the family empty,
and only the end properties (disjointness, per-vertex coverage, squared
subpaths, reservoir avoidance) matter downstream.

Once abcdef is a squared path, the windows of abcvdef ask exactly that v lie
in nine pair neighborhoods, those of ab, ac, bc, bd, cd, ce, de, df and ef.
So a tuple's absorbable set, every vertex off the tuple that it absorbs, is
nine ANDs of pair masks (``absorbable_mask``).  The family stores its tuples
and one such mask per tuple, nothing else: coverage, the degraded flag and
absorb's choices are all read off the masks.
"""

from __future__ import annotations

import dataclasses
import math

from .certify import VertexSeq, is_squared_path
from .connector import Reservoir, connect
from .core import Config, Hypergraph3, bits_of, derive_seed, mask_of, shuffled_range


class PathConstructionError(RuntimeError):
    """A join between two absorber tuples could not be found."""


class AbsorptionError(RuntimeError):
    """Some vertex had no unused absorber tuple left; the message says
    whether any tuple of the family absorbs it at all."""

    def __init__(self, vertex: int, absorbable: bool = True):
        if absorbable:
            super().__init__(f"no unused absorber available for vertex {vertex}")
        else:
            super().__init__(f"no tuple of the family absorbs vertex {vertex}")
        self.vertex = vertex


def enumerate_v_absorbers(
    h: Hypergraph3,
    v: int,
    exclude=0,
    limit: int | None = None,
    seed: int | None = None,
) -> list[tuple[int, ...]]:
    """Up to ``limit`` distinct v-absorbers avoiding ``exclude``, chosen
    vertex by vertex in alphabetic order a, b, c, d, e, f.

    Each successive vertex is drawn from the intersection of the pair
    neighborhoods its windows require, so every emitted tuple is an absorber
    by construction.  A seed permutes the candidate order, otherwise ids
    ascend.
    """
    h.check_vertex(v)
    excl = exclude if isinstance(exclude, int) else mask_of(exclude)
    base = h.full_mask & ~excl & ~(1 << v)
    pn = h._pn
    order = list(range(h.n)) if seed is None else shuffled_range(h.n, seed)

    def picks(mask: int):
        # lazy, so a limited search stops scanning at its last tuple, and
        # an empty mask skips the scan
        return (u for u in order if (mask >> u) & 1) if mask else ()

    out: list[tuple[int, ...]] = []
    for a in picks(base):
        rest_a = base & ~(1 << a)
        for b in picks(pn[v][a] & rest_a):
            rest_b = rest_a & ~(1 << b)
            for c in picks(pn[a][b] & pn[v][b] & pn[v][a] & rest_b):
                rest_c = rest_b & ~(1 << c)
                dmask = (
                    pn[a][b] & pn[a][c] & pn[b][c] & pn[b][v] & pn[c][v] & rest_c
                )
                for d in picks(dmask):
                    rest_d = rest_c & ~(1 << d)
                    emask = (
                        pn[b][c] & pn[b][d] & pn[c][d] & pn[c][v] & pn[d][v] & rest_d
                    )
                    for e in picks(emask):
                        rest_e = rest_d & ~(1 << e)
                        fmask = (
                            pn[c][d]
                            & pn[c][e]
                            & pn[d][e]
                            & pn[d][v]
                            & pn[e][v]
                            & rest_e
                        )
                        for f in picks(fmask):
                            out.append((a, b, c, d, e, f))
                            if limit is not None and len(out) >= limit:
                                return out
    return out


def absorbable_mask(h: Hypergraph3, t) -> int:
    """Bitset of the vertices v that the squared path t = (a, b, c, d, e, f)
    absorbs, i.e. those off t with abcvdef a squared path too.

    Assumes t is a squared path, as every tuple enumerate_v_absorbers emits
    is; certify.is_v_absorber is the definition this agrees with."""
    a, b, c, d, e, f = t
    pn = h._pn
    return (
        pn[a][b] & pn[a][c] & pn[b][c] & pn[b][d] & pn[c][d]
        & pn[c][e] & pn[d][e] & pn[d][f] & pn[e][f] & ~mask_of(t)
    )


@dataclasses.dataclass
class AbsorberFamily:
    """Vertex-disjoint absorber tuples on an n-vertex hypergraph and each
    tuple's absorbable mask; coverage and the degraded flag are derived."""

    tuples: list[tuple[int, ...]]
    absorbable: list[int]
    coverage_target: int
    n: int

    def truncated(self, k: int) -> "AbsorberFamily":
        """The family of the first k tuples.  It equals
        build_absorber_family(..., size=k) for any k up to len(tuples) of a
        build with the same hypergraph, reservoir and config: each pick
        depends only on the tuples chosen before it."""
        return AbsorberFamily(
            self.tuples[:k], self.absorbable[:k], self.coverage_target, self.n
        )

    @property
    def degraded(self) -> bool:
        """Some vertex is absorbed by fewer than coverage_target tuples."""
        return any(self.coverage(v) < self.coverage_target for v in range(self.n))

    @property
    def vertex_mask(self) -> int:
        m = 0
        for t in self.tuples:
            m |= mask_of(t)
        return m

    def coverage(self, v: int) -> int:
        return sum((m >> v) & 1 for m in self.absorbable)


def build_absorber_family(
    h: Hypergraph3,
    r: Reservoir,
    cfg: Config,
    size: int | None = None,
) -> AbsorberFamily:
    """Greedy family selection, lowest-coverage vertex first.

    Unsized, the build stops once every vertex owns at least
    max(1, ceil(2 * theta_star**2 * n)) absorbers.  Sized, it adds tuples
    past that coverage target until it holds ``size`` of them; the
    end-to-end construction uses this to balance absorption capacity against
    the room its joins and cover need.  Either way it stops early when no
    disjoint tuple can be added.  The degraded flag records a missed
    coverage target; it is a report, not an error.
    """
    n = h.n
    target = max(1, math.ceil(2 * cfg.theta_star**2 * n))
    selected: list[tuple[int, ...]] = []
    absorbable: list[int] = []
    occupied = r.members
    # levels[k] holds the vertices that exactly k selected tuples absorb
    levels = [h.full_mask]
    # occupied only grows, so a blocked vertex stays blocked for the build
    blocked = 0

    while True:
        if size is not None and len(selected) >= size:
            break
        # lowest coverage first, ties to the lowest id; a vertex at the
        # target is picked only by a sized build
        k = next((k for k, level in enumerate(levels) if level & ~blocked), None)
        if k is None or (k >= target and size is None):
            break
        low = levels[k] & ~blocked
        pick = (low & -low).bit_length() - 1
        cand = enumerate_v_absorbers(
            h,
            pick,
            exclude=occupied,
            limit=1,
            seed=derive_seed(cfg.seed, "absorber", len(selected), pick),
        )
        if not cand:
            blocked |= 1 << pick
            continue
        t = cand[0]
        selected.append(t)
        absorbable.append(absorbable_mask(h, t))
        occupied |= mask_of(t)
        # each vertex the new tuple absorbs moves up one level
        m = absorbable[-1]
        levels = [lv & ~m | lo & m for lo, lv in zip([0, *levels], [*levels, 0])]

    return AbsorberFamily(selected, absorbable, target, n)


def build_absorbing_path(
    h: Hypergraph3,
    fam: AbsorberFamily,
    r: Reservoir,
    cfg: Config,
) -> VertexSeq:
    """Chain the family tuples in selection order into one squared path.

    Joins avoid the reservoir and everything already placed, so the result
    lives outside the reservoir, contains every tuple as a consecutive run,
    and has at most (cap_m + 6) * len(fam.tuples) vertices.
    """
    if not fam.tuples:
        raise ValueError("absorber family is empty")
    family_mask = fam.vertex_mask
    seq = list(fam.tuples[0])
    used = mask_of(seq)
    for i, t in enumerate(fam.tuples[1:], start=1):
        # interiors must dodge every family tuple, placed or not, or a later
        # tuple would arrive with one of its vertices already on the path
        ends = mask_of(seq[-3:]) | mask_of(t[:3])
        forbidden = (r.members | used | family_mask) & ~ends
        joined = connect(
            h, tuple(seq[-3:]), t[:3], forbidden=forbidden, cap_m=cfg.cap_m
        )
        if joined is None:
            raise PathConstructionError(
                f"cannot join tuple {i - 1} to tuple {i} "
                f"({tuple(seq[-3:])} -> {t[:3]})"
            )
        interior = joined.vertices[3:-3]
        seq.extend(interior)
        seq.extend(t)
        used |= mask_of(interior) | mask_of(t)
    out = VertexSeq(tuple(seq))
    if not is_squared_path(h, out):
        raise AssertionError("absorbing path is not a squared path")
    if len(out) > (cfg.cap_m + 6) * len(fam.tuples):
        raise AssertionError("absorbing path is longer than its joins allow")
    if mask_of(out.vertices) & r.members:
        raise AssertionError("absorbing path uses a reservoir vertex")
    return out


def absorb(h: Hypergraph3, pa: VertexSeq, fam: AbsorberFamily, x) -> VertexSeq:
    """Insert every vertex of x into the host path, one unused absorber tuple
    per vertex, preserving the end triples.

    Vertices are processed one at a time, most constrained first, and each
    takes the unused tuple least useful to the rest; AbsorptionError names
    the first vertex left without an unused absorber.
    """
    xs = sorted(set(x))
    vs = pa.vertices
    overlap = set(xs) & set(vs)
    if overlap:
        raise ValueError(f"absorbed vertices already on the path: {sorted(overlap)}")
    at = {v: i for i, v in enumerate(vs)}
    starts = []
    for t in fam.tuples:
        s = at.get(t[0])
        if s is None or vs[s : s + 6] != t:
            raise ValueError(f"tuple {t} is not a contiguous subpath of the host path")
        starts.append(s)
    absorbable = fam.absorbable
    # bit i of absorbers[u] is set iff tuple i absorbs u
    absorbers = {
        u: mask_of(i for i, m in enumerate(absorbable) if (m >> u) & 1) for u in xs
    }
    free = (1 << len(absorbable)) - 1
    remaining = mask_of(xs)
    after: dict[int, int] = {}

    def demand(i: int) -> int:
        return (absorbable[i] & remaining).bit_count()

    # min keeps the first minimum, so ties go to the lowest vertex and tuple
    while remaining:
        v = min(bits_of(remaining), key=lambda u: (absorbers[u] & free).bit_count())
        options = absorbers[v] & free
        if not options:
            raise AbsorptionError(v, absorbable=bool(absorbers[v]))
        remaining &= ~(1 << v)
        choice = min(bits_of(options), key=demand)
        free &= ~(1 << choice)
        # v goes between the tuple's c and d
        after[starts[choice] + 2] = v
    seq = []
    for i, u in enumerate(vs):
        seq.append(u)
        if i in after:
            seq.append(after[i])
    out = VertexSeq(tuple(seq))
    if not is_squared_path(h, out):
        raise AssertionError("absorbed path is not a squared path")
    if out.start_triple != pa.start_triple or out.end_triple != pa.end_triple:
        raise AssertionError("absorbing changed the path's end triples")
    if set(out.vertices) != set(vs) | set(xs):
        raise AssertionError("absorbed path has the wrong vertex set")
    return out
