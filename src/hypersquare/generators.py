"""Instance sources: complete, extremal four-part, random, and
degree-targeted hypergraphs.  Every randomized generator is a pure function
of its arguments and seed.
"""

from __future__ import annotations

import dataclasses
import math
import random

from .core import Hypergraph3, mask_of


@dataclasses.dataclass(frozen=True)
class PikhurkoPartition:
    """Balanced four-part vertex partition; vertex v sits in part v mod 4."""

    parts: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def complete(n: int) -> Hypergraph3:
    """All C(n, 3) triples: N(u, v) is every vertex but u and v."""
    if n < 3:
        raise ValueError("complete hypergraph needs n >= 3")
    full = (1 << n) - 1
    pn = [
        [full & ~((1 << u) | (1 << v)) if u != v else 0 for v in range(n)]
        for u in range(n)
    ]
    return Hypergraph3.from_pair_masks(n, pn)


def _pikhurko_edge(parts: tuple[int, int, int]) -> bool:
    """Whether a triple whose vertices lie in these parts is an edge."""
    c = [0, 0, 0, 0]
    for p in parts:
        c[p] += 1
    rest_max = max(c[1], c[2], c[3])
    return (
        c[0] == 2
        or (c[0] == 1 and rest_max == 1)
        or (c[0] == 0 and rest_max >= 2)
    )


def pikhurko(n: int) -> tuple[Hypergraph3, PikhurkoPartition]:
    """Four-part extremal construction witnessing that the pair-degree
    constant for squared Hamiltonicity cannot drop to 3/4.

    With parts A0..A3 (vertex v in part v mod 4), a triple is an edge iff
      - it has exactly 2 vertices in A0, or
      - it meets A0 and two distinct parts among A1..A3, or
      - it lies inside a single part Ai, i >= 1, or
      - it splits 2 + 1 over two parts Ai, Aj, i, j >= 1.
    Triples inside A0, triples with one vertex in A0 and two in the same
    other part, and transversals of A1, A2, A3 are non-edges.

    Membership depends only on the parts, so N(u, v) is the union of the
    parts allowed as third part for (u mod 4, v mod 4), minus u and v.
    """
    if n < 8:
        raise ValueError("four-part construction needs n >= 8")
    part_mask = [mask_of(range(i, n, 4)) for i in range(4)]
    # the parts are disjoint, so the sum of their masks is their union
    allowed = [
        [
            sum(part_mask[r] for r in range(4) if _pikhurko_edge((p, q, r)))
            for q in range(4)
        ]
        for p in range(4)
    ]
    pn = [
        [
            allowed[u % 4][v % 4] & ~((1 << u) | (1 << v)) if u != v else 0
            for v in range(n)
        ]
        for u in range(n)
    ]
    parts = tuple(tuple(v for v in range(n) if v % 4 == i) for i in range(4))
    return Hypergraph3.from_pair_masks(n, pn), PikhurkoPartition(parts)


def _random_pair_masks(n: int, p: float, rng) -> list[list[int]]:
    """Pair masks of the random 3-graph keeping each triple a < b < c with
    probability p, one ``rng.random()`` draw per triple in lexicographic
    order."""
    rand = rng.random
    pn = [[0] * n for _ in range(n)]
    # fill the upper triangle N(u, v), u < v, then mirror it
    for a in range(n):
        row_a, bit_a = pn[a], 1 << a
        for b in range(a + 1, n - 1):
            row_b, bit_b = pn[b], 1 << b
            kept = 0
            for c in range(b + 1, n):
                if rand() < p:
                    kept |= 1 << c
                    row_a[c] |= bit_b
                    row_b[c] |= bit_a
            row_a[b] |= kept
    for a in range(n):
        for c in range(a + 1, n):
            pn[c][a] = pn[a][c]
    return pn


def random_hypergraph(n: int, p: float, seed: int) -> Hypergraph3:
    """Each triple included independently with probability p; identical
    (n, p, seed) reproduce identical edge sets."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p={p} must lie in [0, 1]")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return Hypergraph3.from_pair_masks(n, _random_pair_masks(n, p, random.Random(seed)))


def _repair_to_pair_degree(n: int, required: int, base_p: float, rng) -> Hypergraph3:
    """Random base of density base_p, then add missing triples through
    deficient pairs until every pair degree reaches ``required``.  Additions
    only increase degrees, so one lexicographic sweep suffices.  Everything
    lives in the pair masks: a pair's degree is its mask's popcount."""
    pn = _random_pair_masks(n, base_p, rng)
    full = (1 << n) - 1
    for u in range(n):
        row = pn[u]
        for v in range(u + 1, n):
            while row[v].bit_count() < required:
                missing = full & ~row[v] & ~(1 << u) & ~(1 << v)
                # the k-th set bit of missing; randrange draws exactly as
                # rng.choice over the listed bits would
                for _ in range(rng.randrange(missing.bit_count())):
                    missing &= missing - 1
                w = (missing & -missing).bit_length() - 1
                for x, y, z in ((u, v, w), (u, w, v), (v, w, u)):
                    pn[x][y] |= 1 << z
                    pn[y][x] |= 1 << z
    return Hypergraph3.from_pair_masks(n, pn)


def dense_random(n: int, delta2_target: float, seed: int) -> Hypergraph3:
    """Random hypergraph repaired until min pair degree >= ceil(delta2_target * n).

    Add-only repair: while some pair is deficient, a uniformly random missing
    triple through it is added, so termination is guaranteed and the result
    is deterministic under the seed.
    """
    if not 0.0 < delta2_target < 1.0:
        raise ValueError(f"delta2_target={delta2_target} must lie in (0, 1)")
    required = math.ceil(delta2_target * n)
    if required > n - 2:
        raise ValueError(
            f"target pair degree {required} unreachable with n={n} (max {n - 2})"
        )
    rng = random.Random(seed)
    return _repair_to_pair_degree(n, required, delta2_target, rng)


def dense_instance(n: int, fraction: float, seed: int) -> Hypergraph3:
    """Probe-friendly variant of dense_random: the target degree is clamped
    to the feasible range [0, n - 2], so grid fractions 0.0 and 1.0 are
    usable (0.0 keeps the sparse random base, 1.0 forces a near-complete
    instance)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction={fraction} must lie in [0, 1]")
    required = min(math.ceil(fraction * n), max(n - 2, 0))
    rng = random.Random(seed)
    return _repair_to_pair_degree(n, required, fraction, rng)
