"""Ground-truth checks on the program's outputs.

These run outside the timed region and apart from the assertions inside the
code under test.  They use the package's own certifiers (bound here at
import, before any tracing wrapper is installed) plus direct counting.  A
failed check raises ``CheckError``; the benchmark then stops with a nonzero
exit, it never counts the output as a failed operation.
"""

from __future__ import annotations

import math

from hypersquare.certify import VertexSeq, certify_hamiltonian, is_squared_path
from hypersquare.core import is_k4, min_pair_degree, parse_hypergraph


class CheckError(Exception):
    """A program output disagrees with ground truth."""


def check_cycle(h, cycle) -> None:
    """A returned cycle must visit every vertex once and certify."""
    if not isinstance(cycle, VertexSeq) or not cycle.closed:
        raise CheckError(f"expected a closed vertex sequence, got {cycle!r}")
    if sorted(cycle.vertices) != list(range(h.n)):
        raise CheckError("cycle is not a permutation of the vertex set")
    if not certify_hamiltonian(h, cycle):
        raise CheckError("cycle fails certify_hamiltonian")


def check_k4_tiles(h, tiles, covering: bool) -> None:
    """Tiles must be vertex-disjoint tetrahedra, covering V if asked."""
    seen = set()
    for t in tiles:
        if len(t) != 4 or not is_k4(h, *t):
            raise CheckError(f"tile {t} is not a tetrahedron")
        if seen & set(t):
            raise CheckError(f"tile {t} overlaps an earlier tile")
        seen |= set(t)
    if covering and seen != set(range(h.n)):
        raise CheckError("tiling does not cover the vertex set")


def check_oracle(h, kind: str, result, expected: str | None = None) -> None:
    """Re-certify a 'yes' witness; compare with a known verdict if given."""
    if result.status not in ("yes", "no", "timeout"):
        raise CheckError(f"oracle {kind} returned status {result.status!r}")
    if expected is not None and result.status not in (expected, "timeout"):
        raise CheckError(
            f"oracle {kind} said {result.status!r}, ground truth is {expected!r}"
        )
    if result.status != "yes":
        return
    if kind == "cycle":
        check_cycle(h, result.witness)
    else:
        check_k4_tiles(h, result.witness, covering=True)


def check_min_pair_degree(h, need: int) -> None:
    got = min_pair_degree(h)
    if got < need:
        raise CheckError(f"minimum pair degree {got} below the required {need}")


def check_dense(h, n: int, delta: float) -> None:
    """dense_random(n, delta, s) guarantees min pair degree >= ceil(delta n)."""
    if h.n != n:
        raise CheckError(f"expected {n} vertices, got {h.n}")
    check_min_pair_degree(h, math.ceil(delta * n))


def check_pikhurko(h, n: int) -> None:
    """The four-part construction has minimum pair degree 3n/4 - 2."""
    got = min_pair_degree(h)
    if n % 4 == 0 and got != 3 * n // 4 - 2:
        raise CheckError(f"pikhurko({n}) has minimum pair degree {got}, not {3 * n // 4 - 2}")


def check_cover(h, q: int, paths) -> None:
    seen = set()
    for s in paths:
        vs = s.vertices
        if len(vs) != q or not is_squared_path(h, s):
            raise CheckError(f"cover path {vs} is not a squared path on {q} vertices")
        if seen & set(vs):
            raise CheckError(f"cover path {vs} overlaps an earlier path")
        seen |= set(vs)


def check_expansion(g, report) -> None:
    """The reported best cut must have the crossing count it claims."""
    if report.best_crossing is None:
        return
    xmask = 0
    for v in report.best_side:
        xmask |= 1 << v
    ymask = g.vmask & ~xmask
    crossing = sum(
        (g.neighbors_mask(v) & ymask).bit_count() for v in report.best_side
    )
    if crossing != report.best_crossing:
        raise CheckError(
            f"expansion report claims {report.best_crossing} crossing edges, "
            f"the cut has {crossing}"
        )
