"""Hypergraph representation, degree and neighborhood computations, and the
shared parameter record.

Vertices are dense integers 0..n-1 throughout the package.  Vertex sets are
manipulated as Python integers used as bitsets, so that the hot operation of
every search, intersecting pair neighborhoods, is a handful of bitwise ANDs.
The n x n matrix of pair-neighborhood bitsets N(u, v) is the only store of
the edges: membership is one bit test, and the edge list is read off the
upper rows when asked for.  Generators that produce the pair masks directly
hand them to ``Hypergraph3.from_pair_masks``, which validates them.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import operator
import random


class ParseError(ValueError):
    """Malformed input text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ResourceLimitError(RuntimeError):
    """An operation gave up because a search or retry budget ran out."""


def bits_of(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    """Pack an iterable of vertex ids into a bitset."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _row_width(n: int) -> int:
    """Bits per row when an n x n bit matrix is packed into one int: the
    least power of two that is at least n and at least one byte."""
    return max(8, 1 << (n - 1).bit_length())


@functools.cache
def _swap_steps(w: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each delta swap that transposes a packed w x w
    matrix.  The step for block size s swaps bit (i, j) with (i ^ s, j ^ s)
    wherever bit s is set in j and clear in i; the mask holds those (i, j)."""
    wb = w // 8
    steps = []
    s = w >> 1
    while s:
        cols = sum(1 << j for j in range(w) if j & s).to_bytes(wb, "little")
        blank = bytes(wb)
        mask = b"".join([blank if i & s else cols for i in range(w)])
        steps.append((s * (w - 1), int.from_bytes(mask, "little")))
        s >>= 1
    return tuple(steps)


def _pack(rows, w: int) -> int:
    """Rows below ``1 << w`` as one int, row i at bit i * w."""
    wb = w // 8
    return int.from_bytes(b"".join([r.to_bytes(wb, "little") for r in rows]), "little")


def _transpose_packed(x: int, w: int) -> int:
    """Transpose of a packed w x w bit matrix, by log2(w) delta swaps."""
    for shift, mask in _swap_steps(w):
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    return x


def transpose_bits(rows: list[int], n: int) -> list[int]:
    """Transpose an n x n bit matrix: bit i of the result's row j is bit j of
    ``rows[i]``.  Needs ``len(rows) == n`` and every row below ``1 << n``.

    The rows are packed into one int of w-bit rows, w a power of two; the
    packed matrix is transposed by delta swaps and cut back into n rows.
    """
    if not n:
        return []
    w = _row_width(n)
    wb = w // 8
    buf = _transpose_packed(_pack(rows, w), w).to_bytes(w * wb, "little")
    return [int.from_bytes(buf[j * wb : (j + 1) * wb], "little") for j in range(n)]


# 64 x 64 blocks per int in columns_of_rows: enough that the per-int
# overhead is paid rarely, few enough that the six repeated masks and each
# step's temporaries stay at 8 KB whatever the number of rows
_BLOCKS_PER_INT = 16


def columns_of_rows(buf, groups: int) -> list[int]:
    """Transpose a bit matrix given as rows of ``groups`` little-endian
    64-bit words in ``buf``: bit i of the result's int j is bit j of row i,
    for j < 64 * groups.

    Word g of every row forms the g-th group of columns.  Each group is cut
    into runs of whole 64 x 64 blocks, a short last run padded with zero
    rows.  A run is read as one int, and the delta swaps of
    ``_swap_steps(64)``, each mask repeated across the run's blocks,
    transpose all its blocks at once.  Word j of a transposed block holds
    column j of the block's 64 rows, so a column is every 64th word of its
    group's output.  The casts only select raw 8-byte items, so the byte
    order of the machine does not matter.
    """
    words = memoryview(buf).cast("Q")
    rows = len(words) // groups
    # words per run
    run = 64 * max(1, min((rows + 63) // 64, _BLOCKS_PER_INT))
    masks = [
        (shift, int.from_bytes(mask.to_bytes(512, "little") * (run // 64), "little"))
        for shift, mask in _swap_steps(64)
    ]
    out = bytearray()
    for g in range(groups):
        group = words[g::groups]
        for start in range(0, rows, run):
            x = int.from_bytes(group[start : start + run], "little")
            for shift, mask in masks:
                t = (x ^ (x >> shift)) & mask
                x ^= t ^ (t << shift)
            out += x.to_bytes(8 * run, "little")
    cols = memoryview(out).cast("Q")
    span = len(cols) // groups
    return [
        int.from_bytes(cols[g * span + j : (g + 1) * span : 64], "little")
        for g in range(groups)
        for j in range(64)
    ]


def pair_masks_from_upper(n: int, up: list[list[int]]) -> list[list[int]]:
    """The full pair-mask matrix of the edge set given by its upper masks
    ``up[a][b]`` = N(a, b) ∩ (b, n) for a < b (zero elsewhere).

    For y > a, N(a, y) holds the c > y of ``up[a][y]`` and the c < y that
    sit in y's bit of ``up[c][a]`` (c < a) or of ``up[a][c]`` (a < c < y):
    one transpose of those n rows gives every y's share at once.
    """
    pn = [[0] * n for _ in range(n)]
    for a in range(n):
        up_a, row = up[a], pn[a]
        below = transpose_bits([up[x][a] for x in range(a)] + up_a[a:], n)
        for y in range(a + 1, n):
            row[y] = pn[y][a] = below[y] | up_a[y]
    return pn


def derive_seed(master: int, *tags) -> int:
    """Derive a stable 63-bit sub-seed from a master seed and hashable tags.

    Uses SHA-256 of the repr, so results do not depend on interpreter hash
    randomization and are reproducible across processes.
    """
    text = repr((master,) + tags).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


def shuffled_range(n: int, seed: int) -> list[int]:
    """list(range(n)) after random.Random(seed).shuffle: the same
    Fisher-Yates steps and rejection draws, without the per-step calls.
    ``[items[i] for i in shuffled_range(len(items), seed)]`` is the shuffle
    of a list of items."""
    order = list(range(n))
    getrandbits = random.Random(seed).getrandbits
    for i in range(n - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return order


class Hypergraph3:
    """Immutable 3-uniform hypergraph on vertices 0..n-1.

    The edges live only in the pair masks: ``pair_neighbors(u, v)`` returns
    the bitset N(u, v) = {w : uvw is an edge}, and ``iter_edges()`` yields
    the edges as sorted triples in lexicographic order, derived afresh from
    the masks on every call.  Build one from an edge list with
    ``Hypergraph3(n, edges)``, or from the n x n matrix of those bitsets with
    ``Hypergraph3.from_pair_masks(n, pn)``.  Instances are safe to share
    across threads; nothing here mutates after construction.
    """

    __slots__ = ("n", "full_mask", "_pn")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        pn = [[0] * n for _ in range(n)]
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != 3 or t[0] == t[1] or t[1] == t[2]:
                raise ValueError(f"edge {e!r} must have 3 distinct vertices")
            if t[0] < 0 or t[2] >= n:
                raise ValueError(f"edge {e!r} out of range for n={n}")
            a, b, c = t
            pn[a][b] |= 1 << c
            pn[b][a] |= 1 << c
            pn[a][c] |= 1 << b
            pn[c][a] |= 1 << b
            pn[b][c] |= 1 << a
            pn[c][b] |= 1 << a
        self.n = n
        self.full_mask = (1 << n) - 1
        self._pn = pn

    @classmethod
    def from_pair_masks(cls, n: int, pn) -> "Hypergraph3":
        """Hypergraph whose pair neighborhoods are ``pn[u][v]`` = N(u, v).

        Raises ValueError unless pn is an n x n matrix of bitsets below
        ``1 << n`` with no self bits (N(u, u) empty, u and v outside N(u, v)),
        symmetric (N(u, v) == N(v, u)) and triple-consistent
        (w in N(u, v) iff v in N(u, w)); those are exactly the matrices some
        edge set produces.  The rows are copied.
        """
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [list(row) for row in pn]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"pair masks must form a {n} x {n} matrix")
        w = _row_width(n)
        for u, row in enumerate(rows):
            union = functools.reduce(operator.or_, row, 0)
            if union < 0 or union >> n:
                raise ValueError(f"some N({u}, v) has a bit outside [0, {n})")
            if row[u]:
                raise ValueError(f"N({u}, {u}) must be empty")
            # with symmetry this also keeps v out of N(u, v) = N(v, u)
            if (union >> u) & 1:
                raise ValueError(f"some N({u}, v) contains {u}")
            if row != list(map(operator.itemgetter(u), rows)):
                raise ValueError(f"some N({u}, v) differs from N(v, {u})")
            # with symmetry, triple consistency says the link matrix of u,
            # rows[u], is a symmetric bit matrix
            packed = _pack(row, w)
            if packed != _transpose_packed(packed, w):
                raise ValueError(f"pair masks not triple-consistent at vertex {u}")
        self = object.__new__(cls)
        self.n = n
        self.full_mask = (1 << n) - 1
        self._pn = rows
        return self

    def iter_edges(self):
        """Yield every edge (u, v, w), u < v < w, in lexicographic order."""
        n, pn = self.n, self._pn
        for u in range(n):
            row = pn[u]
            for v in range(u + 1, n - 1):
                for w in bits_of(row[v] >> (v + 1) << (v + 1)):
                    yield (u, v, w)

    @property
    def num_edges(self) -> int:
        # every edge uvw lies in N(u, v), N(u, w) and N(v, w)
        pn = self._pn
        return sum(pn[u][v].bit_count() for u in range(self.n) for v in range(u)) // 3

    def has_edge(self, a: int, b: int, c: int) -> bool:
        """Edge membership; total over ints (repeats and out-of-range yield
        False)."""
        n = self.n
        # the range check matters: pn[-1] would silently read the last row
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            return False
        return bool((self._pn[a][b] >> c) & 1)

    def check_vertex(self, v: int, name: str = "vertex") -> int:
        if not isinstance(v, int) or not 0 <= v < self.n:
            raise ValueError(f"{name} {v!r} out of range [0, {self.n})")
        return v

    def pair_neighbors(self, u: int, v: int) -> int:
        """Bitset of w with uvw an edge.  Requires u != v, both in range."""
        self.check_vertex(u)
        self.check_vertex(v)
        if u == v:
            raise ValueError("pair requires two distinct vertices")
        return self._pn[u][v]

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph3)
            and self.n == other.n
            and self._pn == other._pn
        )

    def __hash__(self):
        return hash((self.n, tuple(map(tuple, self._pn))))

    def __repr__(self):
        return f"Hypergraph3(n={self.n}, edges={self.num_edges})"


def pair_degree(h: Hypergraph3, u: int, v: int) -> int:
    """Number of edges containing both u and v."""
    return h.pair_neighbors(u, v).bit_count()


def min_pair_degree(h: Hypergraph3) -> int:
    """Minimum of pair_degree over all unordered vertex pairs."""
    if h.n < 2:
        raise ValueError("minimum pair degree needs at least 2 vertices")
    pn = h._pn
    return min(
        pn[u][v].bit_count() for u in range(h.n) for v in range(u + 1, h.n)
    )


def is_k4(h: Hypergraph3, w: int, x: int, y: int, z: int) -> bool:
    """True iff the four vertices are distinct and span a tetrahedron.  A
    repeat lies in some triple, where has_edge is False, so distinctness
    needs no test of its own."""
    return (
        h.has_edge(w, x, y)
        and h.has_edge(w, x, z)
        and h.has_edge(w, y, z)
        and h.has_edge(x, y, z)
    )


@dataclasses.dataclass(frozen=True)
class Config:
    """Tunable constants: the values of the paper's constant hierarchy that
    the code reads.

    alpha and tau set the tetrahedron factor's good-pair threshold
    (3/4 + alpha) n and bad-vertex limit sqrt(tau) n; theta_star the
    reservoir size and the absorbers' coverage target; cap_m the longest
    connection; q and mu the cover's path length and reported leftover
    bound.  Defaults are desk-scale choices, small enough that the
    threshold fractions are meaningful at n <= 200.
    theta_star = 0 is allowed as a degenerate value and yields an empty
    reservoir.
    """

    alpha: float = 0.05
    theta_star: float = 0.15
    cap_m: int = 12
    q: int = 8
    tau: float = 0.01
    mu: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "tau", "mu"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise ValueError(f"{name}={val} must lie in (0, 1)")
        if not 0.0 <= self.theta_star < 1.0:
            raise ValueError(f"theta_star={self.theta_star} must lie in [0, 1)")
        if self.cap_m < 1:
            raise ValueError("cap_m must be at least 1")
        if self.q < 4 or self.q % 4 != 0:
            raise ValueError("q must be a positive multiple of 4")
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class AuxGraph:
    """Immutable simple undirected graph on a subset of 0..n-1.

    ``vmask`` is the vertex set as a bitset and ``adj[v]`` the neighborhood
    bitset of v (zero outside the vertex set).  Symmetry and irreflexivity
    are validated at construction.
    """

    __slots__ = ("n", "vmask", "_adj")

    def __init__(self, n: int, vmask: int, adj: list[int]):
        if len(adj) != n:
            raise ValueError("adjacency list length must equal n")
        if vmask >> n:
            raise ValueError("vertex mask out of range")
        for v in range(n):
            row = adj[v]
            if row >> n:
                raise ValueError(f"adjacency row {v} out of range")
            if not (vmask >> v) & 1:
                if row:
                    raise ValueError(f"vertex {v} outside the graph has neighbors")
                continue
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
            if row & ~vmask:
                raise ValueError(f"vertex {v} adjacent to a non-vertex")
        for v in range(n):
            for u in bits_of(adj[v]):
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at {u},{v}")
        self.n = n
        self.vmask = vmask
        self._adj = list(adj)

    @classmethod
    def from_edges(cls, n: int, vertices, edges) -> "AuxGraph":
        vmask = vertices if isinstance(vertices, int) else mask_of(vertices)
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, vmask, adj)

    def has_vertex(self, v: int) -> bool:
        return 0 <= v < self.n and bool((self.vmask >> v) & 1)

    def has_edge(self, u: int, v: int) -> bool:
        """Edge membership; total over ints (out-of-range yields False)."""
        n = self.n
        return 0 <= u < n and 0 <= v < n and bool((self._adj[u] >> v) & 1)

    def neighbors_mask(self, v: int) -> int:
        # the range check matters: _adj[-1] would silently read the last row
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v!r} out of range [0, {self.n})")
        return self._adj[v]

    def degree(self, v: int) -> int:
        return self.neighbors_mask(v).bit_count()

    @property
    def num_vertices(self) -> int:
        return self.vmask.bit_count()

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self._adj) // 2

    def vertices(self) -> list[int]:
        return list(bits_of(self.vmask))

    def edges(self):
        """Yield edges as sorted pairs in lexicographic order."""
        for u in bits_of(self.vmask):
            for v in bits_of(self._adj[u]):
                if v > u:
                    yield (u, v)

    def min_degree(self) -> int:
        degs = [self._adj[v].bit_count() for v in bits_of(self.vmask)]
        return min(degs) if degs else 0

    def __repr__(self):
        return f"AuxGraph(|V|={self.num_vertices}, |E|={self.num_edges})"


# Text format: first non-comment line "n <N>", then one edge "i j k" per
# line with i < j < k, '#' starts a comment, duplicates rejected.  The
# canonical form, which format_hypergraph writes, has the header "n <N>" and
# then the edges in lexicographic order, one "i j k" per line with single
# spaces, each line ending in "\n".

# body characters per chunk of the fast parse: bounds its transient memory
_PARSE_CHUNK = 1 << 14
# deletes the ASCII digits in str.translate
_NO_DIGITS = dict.fromkeys(range(ord("0"), ord("9") + 1))
# maps the digits of bin() to the 0/1 selector bytes of itertools.compress
_BIN_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def parse_hypergraph(text: str) -> Hypergraph3:
    """The hypergraph that ``text`` describes; ParseError names the first
    offending line.  Text whose edge lines are in canonical form, in any
    order, takes a fast path; any other text, valid or not, is read line by
    line, with the same result."""
    h = _parse_canonical(text)
    return _parse_lines(text) if h is None else h


def _parse_canonical(text: str) -> Hypergraph3 | None:
    """The hypergraph of ``text`` if it is blank and comment lines, the
    header "n <ASCII digits>" and then canonical edge lines; None on
    anything else.  ``_parse_lines`` reads every text this accepts as the
    same Hypergraph3, so this never raises ParseError.

    The edge lines are read in chunks of about ``_PARSE_CHUNK`` characters,
    each split into tokens once and its line structure checked on the
    separators left when the digits are deleted; every per-edge step but
    the final OR into the masks is a C-level pass.
    """
    # the header: lines split at "\n" only, each skipped by the rule of
    # _parse_lines until the first that is not
    pos = 0
    while True:
        end = text.find("\n", pos)
        if end < 0:
            return None
        line = text[pos:end].strip()
        if line and not line.startswith("#"):
            break
        pos = end + 1
    head = text[:end]
    # splitlines would also cut at "\r", "\x0c", "\u2028" and others
    if head.split("\n") != head.splitlines():
        return None
    header = text[pos:end]
    digits = header[2:]
    if header[:2] != "n " or not (digits.isascii() and digits.isdigit()):
        return None
    n = int(digits)
    pos = end + 1
    size = len(text)
    if pos < size and text[-1] != "\n":
        return None
    index = {str(v): v for v in range(n)}
    bit = {name: 1 << v for name, v in index.items()}
    up = [[0] * n for _ in range(n)]
    row_of = dict(zip(index, up))
    lines = 0
    try:
        while pos < size:
            cut = text.find("\n", min(pos + _PARSE_CHUNK, size - 1)) + 1
            chunk = text[pos:cut]
            pos = cut
            toks = chunk.split()
            count = len(toks) // 3
            # each line three nonempty runs of ASCII digits with one space
            # between them: the digits deleted, only the separators remain
            if len(toks) != 3 * count or chunk.translate(_NO_DIGITS) != "  \n" * count:
                return None
            lines += count
            i_t, j_t, k_t = toks[0::3], toks[1::3], toks[2::3]
            # the lookups reject every token but the canonical names 0..n-1
            rows = map(row_of.__getitem__, i_t)
            for row, b, c in zip(rows, map(index.__getitem__, j_t), map(bit.__getitem__, k_t)):
                row[b] |= c
    except KeyError:
        return None
    # i < j < k on every line: up[a][b] is zero unless a < b, and has no
    # bit at or below b
    low = [(2 << b) - 1 for b in range(n)]
    for a, row in enumerate(up):
        if any(row[: a + 1]) or any(map(operator.and_, row, low)):
            return None
    # no line repeats an edge
    if sum(map(int.bit_count, itertools.chain.from_iterable(up))) != lines:
        return None
    return Hypergraph3.from_pair_masks(n, pair_masks_from_upper(n, up))


def _parse_lines(text: str) -> Hypergraph3:
    """parse_hypergraph one line at a time: any valid text, and the
    ParseError of the first offending line."""
    n = None
    up = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ParseError(line_no, f"expected header 'n <N>', got {line!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(line_no, f"bad vertex count {parts[1]!r}") from None
            if n < 0:
                raise ParseError(line_no, "vertex count must be nonnegative")
            up = [[0] * n for _ in range(n)]
            continue
        if len(parts) != 3:
            raise ParseError(line_no, f"expected 'i j k', got {line!r}")
        try:
            i, j, k = map(int, parts)
        except ValueError:
            raise ParseError(line_no, f"non-integer vertex in {line!r}") from None
        if not 0 <= i < j < k < n:
            raise ParseError(line_no, f"edge {i} {j} {k} violates 0 <= i < j < k < {n}")
        row, bit = up[i], 1 << k
        if row[j] & bit:
            raise ParseError(line_no, f"duplicate edge {i} {j} {k}")
        row[j] |= bit
    if n is None:
        raise ParseError(1, "missing header 'n <N>'")
    return Hypergraph3.from_pair_masks(n, pair_masks_from_upper(n, up))


def format_hypergraph(h: Hypergraph3) -> str:
    """The canonical text of ``h``: the header, then its edges in the order
    of ``iter_edges``, one "i j k" line each."""
    n, pn = h.n, h._pn
    names = [str(w) for w in range(n)]
    parts = [f"n {n}\n"]
    for u in range(n):
        row = pn[u]
        for v in range(u + 1, n - 1):
            m = row[v] >> (v + 1)
            if m:
                # flags[t] is bit t of m, that is, whether u v (v+1+t) is an edge
                flags = bin(m)[:1:-1].encode().translate(_BIN_FLAGS)
                prefix = f"{u} {v} "
                edges = ("\n" + prefix).join(itertools.compress(names[v + 1 :], flags))
                parts.append(prefix + edges + "\n")
    return "".join(parts)
