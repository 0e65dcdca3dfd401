import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersquare import (
    Hypergraph3,
    VertexSeq,
    certify_hamiltonian,
    complete,
    format_sequence,
    is_k4,
    is_squared_cycle,
    is_squared_path,
    is_squared_walk,
    is_v_absorber,
    parse_sequence,
    pikhurko,
    random_hypergraph,
)
from conftest import brute_squared_path


def drop(h: Hypergraph3, *triples) -> Hypergraph3:
    return Hypergraph3(h.n, set(h.iter_edges()) - {tuple(sorted(t)) for t in triples})


class TestSquaredPath:
    def test_complete_path(self):
        assert is_squared_path(complete(6), VertexSeq((0, 1, 2, 3, 4, 5)))

    def test_broken_window(self):
        h = drop(complete(6), (2, 3, 4))
        assert not is_squared_path(h, VertexSeq((0, 1, 2, 3, 4, 5)))

    def test_length_three_convention(self):
        h = Hypergraph3(3, [(0, 1, 2)])
        assert is_squared_path(h, VertexSeq((0, 1, 2)))
        assert not is_squared_path(Hypergraph3(3), VertexSeq((0, 1, 2)))

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            is_squared_path(complete(5), VertexSeq((0, 1)))

    def test_closed_rejected(self):
        with pytest.raises(ValueError):
            is_squared_path(complete(6), VertexSeq((0, 1, 2, 3, 4), closed=True))

    def test_repeats_false(self):
        assert not is_squared_path(complete(6), VertexSeq((0, 1, 2, 0)))

    def test_reversal_invariance(self):
        h = random_hypergraph(8, 0.8, seed=4)
        rng = random.Random(0)
        for _ in range(200):
            k = rng.randint(3, 8)
            vs = tuple(rng.sample(range(8), k))
            s = VertexSeq(vs)
            assert is_squared_path(h, s) == is_squared_path(h, s.reversed())

    def test_contiguous_subsequence(self):
        h = complete(8)
        s = (0, 1, 2, 3, 4, 5, 6, 7)
        assert is_squared_path(h, VertexSeq(s))
        for i in range(len(s)):
            for j in range(i + 3, len(s) + 1):
                assert is_squared_path(h, VertexSeq(s[i:j]))

    def test_window_soundness(self):
        h = random_hypergraph(8, 0.9, seed=6)
        rng = random.Random(1)
        for _ in range(100):
            vs = tuple(rng.sample(range(8), 6))
            if is_squared_path(h, VertexSeq(vs)):
                for i in range(len(vs) - 3):
                    assert is_k4(h, *vs[i : i + 4])

    def test_agrees_with_direct_window_enumeration(self):
        rng = random.Random(2)
        for trial in range(60):
            n = rng.randint(4, 7)
            h = random_hypergraph(n, rng.choice([0.4, 0.7, 1.0]), seed=trial)
            k = rng.randint(3, n)
            vs = tuple(rng.sample(range(n), k))
            assert is_squared_path(h, VertexSeq(vs)) == brute_squared_path(h, vs)


class TestSquaredCycle:
    def test_complete_cycle(self):
        assert is_squared_cycle(complete(5), VertexSeq((0, 1, 2, 3, 4), closed=True))

    def test_wrap_window_broken(self):
        h = drop(complete(5), (4, 0, 1))
        assert not is_squared_cycle(h, VertexSeq((0, 1, 2, 3, 4), closed=True))

    def test_length_four_raises(self):
        with pytest.raises(ValueError):
            is_squared_cycle(complete(4), VertexSeq((0, 1, 2, 3), closed=True))

    def test_open_rejected(self):
        with pytest.raises(ValueError):
            is_squared_cycle(complete(5), VertexSeq((0, 1, 2, 3, 4)))

    def test_rotation_invariance(self):
        h = random_hypergraph(8, 0.85, seed=7)
        rng = random.Random(3)
        for _ in range(100):
            vs = tuple(rng.sample(range(8), rng.randint(5, 8)))
            s = VertexSeq(vs, closed=True)
            vals = {is_squared_cycle(h, s.rotated(k)) for k in range(len(vs))}
            assert len(vals) == 1

    def test_explicit_wrap_windows_match(self):
        # the three wrap windows plus the path windows equal the cyclic form
        h = random_hypergraph(7, 0.9, seed=8)
        rng = random.Random(4)
        for _ in range(100):
            vs = tuple(rng.sample(range(7), rng.randint(5, 7)))
            path_part = is_squared_path(h, VertexSeq(vs)) if len(set(vs)) == len(vs) else False
            wraps = all(
                brute_squared_path(h, w)
                for w in (vs[-3:] + vs[:1], vs[-2:] + vs[:2], vs[-1:] + vs[:3])
            )
            assert is_squared_cycle(h, VertexSeq(vs, closed=True)) == (
                path_part and wraps and len(set(vs)) == len(vs)
            )


class TestSquaredWalk:
    def test_distant_repeat_allowed(self):
        assert is_squared_walk(complete(6), VertexSeq((0, 1, 2, 3, 0, 4, 5)))

    def test_close_repeat_rejected(self):
        assert not is_squared_walk(complete(6), VertexSeq((0, 1, 2, 0, 3, 4)))

    def test_every_path_is_a_walk(self):
        h = random_hypergraph(8, 0.8, seed=9)
        rng = random.Random(5)
        for _ in range(200):
            vs = tuple(rng.sample(range(8), rng.randint(3, 8)))
            if is_squared_path(h, VertexSeq(vs)):
                assert is_squared_walk(h, VertexSeq(vs))

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            is_squared_walk(complete(5), VertexSeq((0, 1)))


class TestVAbsorber:
    def test_complete(self):
        assert is_v_absorber(complete(8), 7, (0, 1, 2, 3, 4, 5))

    def test_missing_splice_edge(self):
        h = drop(complete(8), (7, 2, 3))
        assert not is_v_absorber(h, 7, (0, 1, 2, 3, 4, 5))

    def test_repeat_false(self):
        assert not is_v_absorber(complete(8), 7, (0, 1, 2, 3, 4, 4))

    def test_v_in_tuple_false(self):
        assert not is_v_absorber(complete(8), 5, (0, 1, 2, 3, 4, 5))

    def test_insertion_soundness(self):
        # inserting v between c and d inside a host path keeps it a squared
        # path with the same ends
        h = complete(12)
        host = tuple(range(10))
        assert is_squared_path(h, VertexSeq(host))
        for start in range(0, 4):
            t = host[start : start + 6]
            if is_v_absorber(h, 11, t):
                spliced = host[: start + 3] + (11,) + host[start + 3 :]
                s = VertexSeq(spliced)
                assert is_squared_path(h, s)
                assert s.start_triple == host[:3]
                assert s.end_triple == host[-3:]


class TestHamiltonian:
    def test_complete_cycle(self):
        assert certify_hamiltonian(complete(6), VertexSeq((0, 1, 2, 3, 4, 5), closed=True))

    def test_missing_vertex(self):
        assert not certify_hamiltonian(complete(6), VertexSeq((0, 1, 2, 3, 4), closed=True))

    def test_pikhurko_samples_rejected(self):
        h, _ = pikhurko(8)
        rng = random.Random(10)
        for _ in range(100):
            perm = list(range(8))
            rng.shuffle(perm)
            assert not certify_hamiltonian(h, VertexSeq(tuple(perm), closed=True))


class TestSequenceFormat:
    @given(
        st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=12),
        st.booleans(),
    )
    @settings(max_examples=60)
    def test_roundtrip(self, vs, closed):
        s = VertexSeq(tuple(vs), closed)
        assert parse_sequence(format_sequence(s)) == s

    def test_closed_prefix(self):
        assert parse_sequence("C 0 1 2 3 4").closed
        assert not parse_sequence("0 1 2").closed
