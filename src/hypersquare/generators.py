"""Instance sources: complete, extremal four-part, random, and
degree-targeted hypergraphs.  Every randomized generator is a pure function
of its arguments and seed.
"""

from __future__ import annotations

import dataclasses
import math
import random

from .core import Hypergraph3, mask_of, pair_masks_from_upper


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


# Below this many vertices the per-triple loop beats the block sampler,
# whose n transposes then cost more than the mask ORs they replace
# (measured sweep in CHANGES.md).
BLOCK_SAMPLER_MIN_N = 40


def _pair_masks_by_triple(n: int, p: float, rng) -> list[list[int]]:
    """``_random_pair_masks`` one triple at a time, setting all three
    orientations of each kept triple."""
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


def _pair_masks_by_block(n: int, p: float, rng) -> list[list[int]]:
    """``_random_pair_masks`` one vertex at a time: the draws of every
    triple a < b < c with first vertex a become one digit string, whose
    runs are the upper masks N(a, b) ∩ (b, n); ``pair_masks_from_upper``
    then fills in the other orientations.

    The k draws of a block are read as one ``rng.getrandbits(64 * k)``.
    CPython's ``random()`` is x = (a * 2**26 + b) / 2**53, a and b the top
    27 and 26 bits of two consecutive 32-bit generator words, and
    ``getrandbits`` lays its words out from the least significant up, so
    draw i is bytes 8i..8i+7 and leaves the generator where k ``random()``
    calls would.  x < p exactly when a * 2**26 + b < ceil(p * 2**53); the
    top byte of that numerator is byte 8i + 3, which settles the test
    unless it equals the bound's own top byte (about one draw in 256).
    """
    bound = math.ceil(float(p) * 2.0**53)
    top = bound >> 45
    # b"1" keeps the triple, b"0" drops it, b"?" needs the whole numerator
    settle = bytes(49 if v < top else 63 if v == top else 48 for v in range(256))
    up = [[0] * n for _ in range(n)]
    for a in range(n - 2):
        k = (n - a - 1) * (n - a - 2) // 2
        words = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        digits = bytearray(words[3::8].translate(settle))
        i = digits.find(63)
        while i >= 0:
            pair = int.from_bytes(words[8 * i : 8 * i + 8], "little")
            numerator = ((pair & 0xFFFFFFFF) >> 5) << 26 | pair >> 38
            digits[i] = 49 if numerator < bound else 48
            i = digits.find(63, i + 1)
        # reversed, so that each run reads from c = n - 1 down to c = b + 1
        digits.reverse()
        row, end = up[a], k
        for b in range(a + 1, n - 1):
            start = end - (n - b - 1)
            row[b] = int(digits[start:end], 2) << (b + 1)
            end = start
    return pair_masks_from_upper(n, up)


def _random_pair_masks(n: int, p: float, rng) -> list[list[int]]:
    """Pair masks of the random 3-graph keeping each triple a < b < c with
    probability p, one ``rng.random()`` draw per triple in lexicographic
    order.  Both paths read the same stream and give the same masks."""
    if n < BLOCK_SAMPLER_MIN_N:
        return _pair_masks_by_triple(n, p, rng)
    return _pair_masks_by_block(n, p, rng)


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
    getrandbits = rng.getrandbits
    full = (1 << n) - 1
    for u in range(n):
        row, bit_u = pn[u], 1 << u
        for v in range(u + 1, n):
            short = required - row[v].bit_count()
            if short <= 0:
                continue
            row_v, bit_v = pn[v], 1 << v
            missing = start = full & ~row[v] & ~bit_u & ~bit_v
            size = missing.bit_count()
            # each pick takes one w out of missing and adds the triple uvw;
            # N(u, v) itself is written once, after the last pick
            for m in range(size, size - short, -1):
                # rng.randrange(m), drawn as CPython's _randbelow draws it;
                # m >= 1 because required <= n - 2
                k = m.bit_length()
                i = getrandbits(k)
                while i >= m:
                    i = getrandbits(k)
                # the i-th set bit of missing
                rest = missing
                for _ in range(i):
                    rest &= rest - 1
                bit_w = rest & -rest
                missing ^= bit_w
                w = bit_w.bit_length() - 1
                row_w = pn[w]
                row[w] |= bit_v
                row_w[u] = row[w]
                row_v[w] |= bit_u
                row_w[v] = row_v[w]
            row[v] = row_v[u] = row[v] | (start ^ missing)
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
    # the target is feasible, so dense_instance does not clamp it
    return dense_instance(n, delta2_target, seed)


def dense_instance(n: int, fraction: float, seed: int) -> Hypergraph3:
    """Probe-friendly variant of dense_random: the target degree
    ceil(fraction * n) is clamped to the feasible range [0, n - 2], so grid
    fractions 0.0 and 1.0 are usable.  0.0 keeps the sparse random base, and
    every fraction with ceil(fraction * n) >= n - 2, roughly fraction >
    (n - 3) / n, gives exactly complete(n)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction={fraction} must lie in [0, 1]")
    required = min(math.ceil(fraction * n), max(n - 2, 0))
    rng = random.Random(seed)
    return _repair_to_pair_degree(n, required, fraction, rng)
