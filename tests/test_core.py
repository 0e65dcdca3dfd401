import functools
import itertools
import operator
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersquare import (
    AuxGraph,
    Config,
    Hypergraph3,
    ParseError,
    complete,
    format_hypergraph,
    is_k4,
    min_pair_degree,
    pair_degree,
    parse_hypergraph,
    pikhurko,
    random_hypergraph,
)
from hypersquare.core import (
    bits_of,
    columns_of_rows,
    derive_seed,
    mask_of,
    shuffled_range,
    transpose_bits,
)


def random_instance(n: int, p: float, seed: int) -> Hypergraph3:
    return random_hypergraph(n, p, seed)


class TestHypergraph3:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Hypergraph3(5, [(0, 1)])
        with pytest.raises(ValueError):
            Hypergraph3(5, [(0, 1, 1)])
        with pytest.raises(ValueError):
            Hypergraph3(5, [(0, 1, 5)])

    def test_edges_canonicalized(self):
        h = Hypergraph3(5, [(2, 1, 0), (0, 1, 2)])
        assert list(h.iter_edges()) == [(0, 1, 2)]
        assert h.has_edge(2, 0, 1)
        assert not h.has_edge(0, 1, 3)

    def test_has_edge_total(self):
        # (0, 1, 3) makes an unchecked pn[-1][0] = N(3, 0) contain 1
        h = Hypergraph3(4, [(0, 1, 2), (0, 1, 3)])
        assert not h.has_edge(0, 0, 1)
        assert not h.has_edge(0, 1, 9)
        assert not h.has_edge(-1, 0, 1)
        assert not h.has_edge(0, 1, -1)
        assert not h.has_edge(0, 1, 4)
        assert not h.has_edge(4, 0, 1)
        assert not h.has_edge(0, 1, 1)
        assert not h.has_edge(1, 0, 1)

    @settings(max_examples=60)
    @given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 10**6))
    def test_masks_agree_with_edge_list(self, n, p, seed):
        rng = random.Random(seed)
        wanted = [t for t in itertools.combinations(range(n), 3) if rng.random() < p]
        shuffled = [tuple(rng.sample(t, 3)) for t in wanted]
        rng.shuffle(shuffled)
        h = Hypergraph3(n, shuffled)
        assert list(h.iter_edges()) == wanted
        assert h.num_edges == len(wanted)
        g = Hypergraph3(n, h.iter_edges())
        assert g == h
        assert hash(g) == hash(h)
        if wanted:
            dropped = wanted[rng.randrange(len(wanted))]
            smaller = Hypergraph3(n, [t for t in wanted if t != dropped])
            assert smaller != h
            assert not smaller.has_edge(*dropped)

    def test_pair_neighbors_roundtrip(self):
        h = random_instance(9, 0.4, seed=3)
        rebuilt = {}
        for a, b, c in h.iter_edges():
            for u, v, w in ((a, b, c), (a, c, b), (b, c, a)):
                key = (min(u, v), max(u, v))
                rebuilt[key] = rebuilt.get(key, 0) | (1 << w)
        for u in range(9):
            for v in range(u + 1, 9):
                assert h.pair_neighbors(u, v) == rebuilt.get((u, v), 0)

    def test_edge_count_identity(self):
        h = random_instance(10, 0.5, seed=8)
        total = sum(
            h.pair_neighbors(u, v).bit_count()
            for u in range(10)
            for v in range(u + 1, 10)
        )
        assert total == 3 * h.num_edges


def reference_transpose_bits(rows, n):
    """Transpose through n-digit binary strings, one slice per result row."""
    if not n:
        return []
    digits = "".join([format(r, f"0{n}b") for r in reversed(rows)])
    return [int(digits[j::n], 2) for j in range(n - 1, -1, -1)]


def reference_from_pair_masks(n, pn):
    """The pair-mask validation row by row, with a string transpose per row."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    rows = [list(row) for row in pn]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"pair masks must form a {n} x {n} matrix")
    for u, row in enumerate(rows):
        union = functools.reduce(operator.or_, row, 0)
        if union < 0 or union >> n:
            raise ValueError(f"some N({u}, v) has a bit outside [0, {n})")
        if row[u]:
            raise ValueError(f"N({u}, {u}) must be empty")
        if (union >> u) & 1:
            raise ValueError(f"some N({u}, v) contains {u}")
        if row != [rows[v][u] for v in range(n)]:
            raise ValueError(f"some N({u}, v) differs from N(v, {u})")
        if row != reference_transpose_bits(row, n):
            raise ValueError(f"pair masks not triple-consistent at vertex {u}")


def validation_error(validate, n, pn):
    try:
        validate(n, pn)
    except ValueError as exc:
        return str(exc)
    return None


class TestFromPairMasks:
    def _masks(self, n, edges):
        return [row[:] for row in Hypergraph3(n, edges)._pn]

    @pytest.mark.parametrize(
        "h",
        [
            complete(7),
            pikhurko(12)[0],
            random_hypergraph(11, 0.5, 4),
            random_hypergraph(9, 0.0, 1),
            Hypergraph3(0),
            Hypergraph3(4, [(0, 1, 2)]),
        ],
        ids=["complete", "pikhurko", "random", "empty", "n0", "one-edge"],
    )
    def test_round_trip(self, h):
        g = Hypergraph3.from_pair_masks(h.n, h._pn)
        assert g == h
        assert g._pn == h._pn
        assert g.full_mask == h.full_mask

    @settings(max_examples=40)
    @given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 10**6))
    def test_round_trip_random(self, n, p, seed):
        h = random_hypergraph(n, p, seed)
        assert Hypergraph3.from_pair_masks(n, h._pn) == h

    def test_copies_its_input(self):
        pn = self._masks(5, [(0, 1, 2)])
        g = Hypergraph3.from_pair_masks(5, pn)
        pn[0][1] = 0
        assert g.pair_neighbors(0, 1) == 1 << 2

    def test_rejects_asymmetric(self):
        pn = self._masks(5, [(0, 1, 2)])
        pn[1][0] = 0
        with pytest.raises(ValueError, match="differs from"):
            Hypergraph3.from_pair_masks(5, pn)

    def test_rejects_triple_inconsistent(self):
        # 2 in N(0, 1) = N(1, 0), but 1 not in N(0, 2) and 0 not in N(1, 2)
        pn = [[0] * 5 for _ in range(5)]
        pn[0][1] = pn[1][0] = 1 << 2
        with pytest.raises(ValueError, match="triple-consistent"):
            Hypergraph3.from_pair_masks(5, pn)

    def test_rejects_self_bit(self):
        pn = self._masks(5, [(0, 1, 2)])
        pn[0][1] |= 1 << 1
        pn[1][0] |= 1 << 1
        with pytest.raises(ValueError, match="contains"):
            Hypergraph3.from_pair_masks(5, pn)
        pn = self._masks(5, [(0, 1, 2)])
        pn[3][3] = 1 << 4
        with pytest.raises(ValueError, match="must be empty"):
            Hypergraph3.from_pair_masks(5, pn)

    def test_rejects_bit_out_of_range(self):
        pn = self._masks(5, [(0, 1, 2)])
        pn[0][1] |= 1 << 5
        pn[1][0] |= 1 << 5
        with pytest.raises(ValueError, match="outside"):
            Hypergraph3.from_pair_masks(5, pn)
        pn = self._masks(5, [])
        pn[2][3] = pn[3][2] = -1
        with pytest.raises(ValueError, match="outside"):
            Hypergraph3.from_pair_masks(5, pn)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="matrix"):
            Hypergraph3.from_pair_masks(4, self._masks(5, []))
        with pytest.raises(ValueError, match="matrix"):
            Hypergraph3.from_pair_masks(3, [[0, 0, 0], [0, 0], [0, 0, 0]])
        with pytest.raises(ValueError):
            Hypergraph3.from_pair_masks(-1, [])

    @pytest.mark.parametrize("seed", range(3))
    def test_rejects_one_flipped_bit_as_before(self, seed):
        rng = random.Random(seed)
        cases = [random_hypergraph(n, rng.random(), rng.randrange(10**6)) for n in range(1, 13)]
        cases += [complete(9), pikhurko(12)[0], random_hypergraph(45, 0.6, seed)]
        for h in cases:
            n = h.n
            for _ in range(60):
                pn = [row[:] for row in h._pn]
                u, v, w = rng.randrange(n), rng.randrange(n), rng.randrange(n + 1)
                if rng.random() < 0.5:
                    pn[u][v] ^= 1 << w
                else:
                    # both orientations, so the later checks are reached
                    pn[u][v] ^= 1 << w
                    if u != v:
                        pn[v][u] ^= 1 << w
                assert validation_error(Hypergraph3.from_pair_masks, n, pn) == (
                    validation_error(reference_from_pair_masks, n, pn)
                )

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 31, 32, 33, 64, 65, 150, 257])
    def test_transpose_bits_matches_reference(self, n):
        rng = random.Random(n)
        for density in (0.0, 0.5, 1.0):
            rows = [
                sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)
            ]
            flipped = transpose_bits(rows, n)
            assert flipped == reference_transpose_bits(rows, n)
            assert transpose_bits(flipped, n) == rows

    @settings(max_examples=40)
    @given(st.integers(0, 20), st.data())
    def test_transpose_bits(self, n, data):
        rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
        flipped = transpose_bits(rows, n)
        for i in range(n):
            for j in range(n):
                assert (flipped[j] >> i) & 1 == (rows[i] >> j) & 1
        assert transpose_bits(flipped, n) == rows


def reference_columns(rows, groups):
    """Column j of the rows, one bit test per entry."""
    return [
        sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(64 * groups)
    ]


class TestColumnsOfRows:
    # 1024 rows fill one int of the transpose; 2113 need three, the last
    # one short
    @pytest.mark.parametrize("groups", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 200, 1024, 1025, 2113])
    def test_matches_reference(self, count, groups):
        rng = random.Random(count * 10 + groups)
        for density in (0.0, 0.5, 1.0):
            rows = [
                sum(1 << j for j in range(64 * groups) if rng.random() < density)
                for _ in range(count)
            ]
            buf = b"".join([r.to_bytes(8 * groups, "little") for r in rows])
            assert columns_of_rows(buf, groups) == reference_columns(rows, groups)
            assert columns_of_rows(bytearray(buf), groups) == reference_columns(rows, groups)

    @settings(max_examples=40)
    @given(st.integers(1, 3), st.data())
    def test_columns_of_rows(self, groups, data):
        rows = data.draw(st.lists(st.integers(0, (1 << (64 * groups)) - 1), max_size=140))
        buf = b"".join([r.to_bytes(8 * groups, "little") for r in rows])
        cols = columns_of_rows(buf, groups)
        assert len(cols) == 64 * groups
        for i, r in enumerate(rows):
            assert sum(((c >> i) & 1) << j for j, c in enumerate(cols)) == r
        assert all(c >> len(rows) == 0 for c in cols)


class TestDegrees:
    def test_pair_degree_complete(self):
        assert pair_degree(complete(5), 0, 1) == 3

    def test_pair_degree_empty(self):
        h = Hypergraph3(6)
        assert all(
            pair_degree(h, u, v) == 0
            for u in range(6)
            for v in range(u + 1, 6)
        )

    def test_pair_degree_args(self):
        h = complete(5)
        with pytest.raises(ValueError):
            pair_degree(h, 0, 0)
        with pytest.raises(ValueError):
            pair_degree(h, 0, 5)

    def test_min_pair_degree_complete(self):
        assert min_pair_degree(complete(7)) == 5

    def test_min_pair_degree_one_missing_edge(self):
        edges = set(complete(7).iter_edges()) - {(0, 1, 2)}
        assert min_pair_degree(Hypergraph3(7, edges)) == 4

    def test_min_pair_degree_needs_two_vertices(self):
        with pytest.raises(ValueError):
            min_pair_degree(Hypergraph3(1))

    @pytest.mark.parametrize("n,expected", [(8, 4), (12, 7)])
    def test_min_pair_degree_pikhurko(self, n, expected):
        # independent check: count edges through each pair from the edge list
        h, _ = pikhurko(n)
        by_pair = {}
        for e in h.iter_edges():
            for u, v in itertools.combinations(e, 2):
                by_pair[(u, v)] = by_pair.get((u, v), 0) + 1
        brute = min(
            by_pair.get((u, v), 0) for u in range(n) for v in range(u + 1, n)
        )
        assert brute == expected == 3 * n // 4 - 2
        assert min_pair_degree(h) == expected

    def test_degree_identities(self):
        h = random_instance(9, 0.6, seed=5)
        degree = Counter(v for e in h.iter_edges() for v in e)
        assert sum(degree.values()) == 3 * h.num_edges
        for v in range(9):
            assert 2 * degree[v] == sum(
                pair_degree(h, u, v) for u in range(9) if u != v
            )


class TestK4:
    def test_complete_k4(self):
        assert is_k4(complete(4), 0, 1, 2, 3)

    def test_missing_face(self):
        h = Hypergraph3(4, set(complete(4).iter_edges()) - {(0, 1, 2)})
        assert not is_k4(h, 0, 1, 2, 3)

    def test_repeats_false(self):
        assert not is_k4(complete(5), 0, 0, 1, 2)

    def test_permutation_invariance(self):
        h = random_instance(7, 0.7, seed=9)
        for quad in itertools.combinations(range(7), 4):
            vals = {is_k4(h, *perm) for perm in itertools.permutations(quad)}
            assert len(vals) == 1

    @pytest.mark.parametrize(
        "h",
        [complete(6), pikhurko(8)[0], random_instance(7, 0.6, seed=11)],
        ids=["complete6", "pikhurko8", "random7"],
    )
    def test_matches_definition_on_every_quadruple(self, h):
        edges = set(h.iter_edges())
        found = 0
        # out-of-range vertices and repeats included
        for quad in itertools.product(range(-1, h.n + 1), repeat=4):
            expected = len(set(quad)) == 4 and all(
                tuple(sorted(t)) in edges for t in itertools.combinations(quad, 3)
            )
            assert is_k4(h, *quad) == expected
            found += expected
        assert found


class TestConfig:
    def test_defaults_valid(self):
        cfg = Config()
        assert cfg.q % 4 == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"tau": 1.0},
            {"theta_star": 1.0},
            {"cap_m": 0},
            {"q": 6},
            {"q": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Config(**kwargs)

    def test_theta_star_zero_allowed(self):
        assert Config(theta_star=0.0).theta_star == 0.0


class TestAuxGraphType:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            AuxGraph(3, 0b111, [0b010, 0b000, 0b000])

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            AuxGraph(2, 0b11, [0b01, 0b00])

    def test_edges_outside_vertex_set_rejected(self):
        with pytest.raises(ValueError):
            AuxGraph.from_edges(3, [0, 1], [(0, 2)])

    def test_from_edges(self):
        g = AuxGraph.from_edges(4, [0, 1, 2, 3], [(0, 1), (1, 2)])
        assert g.num_edges == 2
        assert g.degree(1) == 2
        assert g.min_degree() == 0

    @pytest.mark.parametrize("u, v", [(0, -1), (-1, 1), (1, 4), (4, 1), (0, 99)])
    def test_has_edge_total_over_ints(self, u, v):
        g = AuxGraph.from_edges(4, range(4), [(0, 1), (0, 3), (1, 2)])
        assert not g.has_edge(u, v)

    @pytest.mark.parametrize("v", [-1, -4, 4])
    def test_out_of_range_vertex_rejected(self, v):
        g = AuxGraph.from_edges(4, range(4), [(0, 3), (1, 3)])
        with pytest.raises(ValueError):
            g.neighbors_mask(v)
        with pytest.raises(ValueError):
            g.degree(v)

    def test_non_vertex_in_range_has_empty_row(self):
        g = AuxGraph.from_edges(4, [0, 1, 3], [(0, 3)])
        assert g.neighbors_mask(2) == 0
        assert g.degree(2) == 0


class TestTextFormat:
    def test_roundtrip(self):
        h = random_instance(9, 0.5, seed=13)
        assert parse_hypergraph(format_hypergraph(h)) == h

    def test_comments_and_blanks_ignored(self):
        text = "# hello\n\nn 4\n# edge next\n0 1 2\n"
        assert list(parse_hypergraph(text).iter_edges()) == [(0, 1, 2)]

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_hypergraph("n 4\n0 1 2\n0 1 2\n")
        assert err.value.line_no == 3

    def test_unsorted_edge_rejected(self):
        with pytest.raises(ParseError):
            parse_hypergraph("n 4\n2 1 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_hypergraph("0 1 2\n")

    def test_bad_token_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_hypergraph("n 4\n0 1 x\n")
        assert err.value.line_no == 2


class TestTinyInstances:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_api_survives_tiny_n(self, n):
        h = Hypergraph3(n, [(0, 1, 2)] if n >= 3 else [])
        assert parse_hypergraph(format_hypergraph(h)) == h
        if n >= 3:
            assert pair_degree(h, 0, 1) == 1


class TestBitHelpers:
    def test_shuffled_range_matches_stdlib_shuffle(self):
        rng = random.Random(2024)
        seeds = [0, 1, 2**63 - 1] + [rng.getrandbits(63) for _ in range(20)]
        for n in range(201):
            for seed in seeds:
                order = list(range(n))
                random.Random(seed).shuffle(order)
                assert shuffled_range(n, seed) == order

    def test_shuffled_range_shuffles_a_list_of_items(self):
        rng = random.Random(7)
        for _ in range(300):
            items = rng.sample(range(-50, 500), rng.randint(0, 60))
            seed = rng.getrandbits(63)
            want = list(items)
            random.Random(seed).shuffle(want)
            assert [items[i] for i in shuffled_range(len(items), seed)] == want

    @given(st.sets(st.integers(min_value=0, max_value=200)))
    def test_bits_roundtrip(self, values):
        assert list(bits_of(mask_of(values))) == sorted(values)

    @settings(max_examples=30)
    @given(st.integers(), st.integers(), st.integers())
    def test_derive_seed_stable_and_spread(self, master, a, b):
        assert derive_seed(master, a, b) == derive_seed(master, a, b)
        assert derive_seed(master, a, b) >= 0
