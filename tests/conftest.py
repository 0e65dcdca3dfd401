"""Shared independent oracles for the test suite.

These deliberately avoid the package's bitset machinery: they enumerate
subsets and windows directly from edge lists, so agreement with the library
is meaningful.
"""

import contextlib
import itertools
import sys

import pytest

from hypersquare import Hypergraph3, VertexSeq, certify_hamiltonian
from hypersquare.tiling import WEIGHTS


def brute_squared_path(h: Hypergraph3, vertices) -> bool:
    """Window-by-window squared path check straight from the edge list."""
    vs = tuple(vertices)
    if len(set(vs)) != len(vs):
        return False
    edges = set(h.iter_edges())
    if len(vs) == 3:
        return tuple(sorted(vs)) in edges
    for i in range(len(vs) - 3):
        window = vs[i : i + 4]
        for triple in itertools.combinations(window, 3):
            if tuple(sorted(triple)) not in edges:
                return False
    return True


def brute_has_hamiltonian(h: Hypergraph3) -> bool:
    """Permutation enumeration; use only for n <= 8."""
    if h.n < 5:
        return False
    for perm in itertools.permutations(range(1, h.n)):
        if certify_hamiltonian(h, VertexSeq((0,) + perm, closed=True)):
            return True
    return False


def brute_walk_count(adj: dict[int, set[int]], x: int, y: int, s: int) -> int:
    """Count x-y walks of length s by explicit enumeration."""
    if s == 0:
        return 1 if x == y else 0
    total = 0
    for mid in itertools.product(sorted(adj), repeat=s - 1):
        walk = (x,) + mid + (y,)
        if all(walk[i + 1] in adj[walk[i]] for i in range(s)):
            total += 1
    return total


def exhaustive_tiling_weight(h: Hypergraph3, domain, bad: tuple[int, ...]) -> int:
    """Maximum weight over all tilings by good complete tiles of size 2-4;
    bad[u] holds the v with uv a bad pair."""
    edges = set(h.iter_edges())

    def tile_ok(tile) -> bool:
        for a, b in itertools.combinations(tile, 2):
            if (bad[a] >> b) & 1:
                return False
        return all(
            tuple(sorted(t)) in edges for t in itertools.combinations(tile, 3)
        )

    best = 0

    def rec(avail: tuple[int, ...], weight: int):
        nonlocal best
        best = max(best, weight)
        if not avail:
            return
        v, rest = avail[0], avail[1:]
        rec(rest, weight)
        for size in (2, 3, 4):
            for combo in itertools.combinations(rest, size - 1):
                tile = (v,) + combo
                if tile_ok(tile):
                    rec(
                        tuple(u for u in rest if u not in combo),
                        weight + WEIGHTS[size],
                    )

    rec(tuple(sorted(domain)), 0)
    return best


@pytest.fixture(scope="session")
def pik8():
    from hypersquare import pikhurko

    return pikhurko(8)


@pytest.fixture(scope="session")
def pik12():
    from hypersquare import pikhurko

    return pikhurko(12)


@contextlib.contextmanager
def recursion_headroom(frames: int):
    """Lower the recursion limit to the current stack depth plus frames, so
    a search that recurses once per vertex passes it on a small input."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)
