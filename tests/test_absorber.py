import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypersquare import (
    AbsorptionError,
    Config,
    Hypergraph3,
    PathConstructionError,
    VertexSeq,
    absorb,
    absorbable_mask,
    build_absorber_family,
    build_absorbing_path,
    complete,
    dense_instance,
    dense_random,
    enumerate_v_absorbers,
    is_squared_path,
    is_v_absorber,
    pikhurko,
    random_hypergraph,
    sample_reservoir,
)
from hypersquare.connector import Reservoir
from hypersquare.core import derive_seed, mask_of


class TestEnumerate:
    def test_complete12_total_count(self):
        out = enumerate_v_absorbers(complete(12), 0)
        assert len(out) == 11 * 10 * 9 * 8 * 7 * 6

    def test_empty_hypergraph(self):
        assert enumerate_v_absorbers(Hypergraph3(12), 0) == []

    def test_exclusion_leaves_too_few(self):
        h = complete(12)
        exclude = mask_of(range(1, 8))  # only 4 usable besides v=0
        assert enumerate_v_absorbers(h, 0, exclude=exclude) == []

    def test_all_outputs_are_absorbers(self):
        h = random_hypergraph(10, 0.9, seed=30)
        for v in range(10):
            for t in enumerate_v_absorbers(h, v, limit=50, seed=1):
                assert is_v_absorber(h, v, t)

    def test_limit_respected(self):
        out = enumerate_v_absorbers(complete(12), 3, limit=17)
        assert len(out) == 17

    def test_seed_permutes_deterministically(self):
        h = complete(12)
        a = enumerate_v_absorbers(h, 0, limit=5, seed=9)
        b = enumerate_v_absorbers(h, 0, limit=5, seed=9)
        c = enumerate_v_absorbers(h, 0, limit=5, seed=10)
        assert a == b
        assert a != c

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(5, 10),
        st.floats(0.3, 1.0),
        st.integers(0, 10**6),
        st.integers(0, 9),
        st.integers(0, 2**10 - 1),
        st.one_of(st.none(), st.integers(0, 2**63 - 1)),
        st.integers(1, 40),
    )
    def test_limit_is_prefix_of_full_enumeration(
        self, n, p, graph_seed, v, exclude, seed, limit
    ):
        h = random_hypergraph(n, p, graph_seed)
        v %= n
        exclude &= h.full_mask & ~(1 << v)
        full = enumerate_v_absorbers(h, v, exclude=exclude, seed=seed)
        assert len(set(full)) == len(full)
        for t in full:
            assert not (mask_of(t) & exclude)
            assert is_v_absorber(h, v, t)
        limited = enumerate_v_absorbers(h, v, exclude=exclude, limit=limit, seed=seed)
        assert limited == full[:limit]

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(6, 8),
        st.floats(0.5, 1.0),
        st.integers(0, 10**6),
        st.integers(0, 7),
        st.integers(0, 2**63 - 1),
    )
    def test_full_enumeration_is_every_absorber(self, n, p, graph_seed, v, seed):
        h = random_hypergraph(n, p, graph_seed)
        v %= n
        others = [u for u in range(n) if u != v]
        expected = {
            t for t in itertools.permutations(others, 6) if is_v_absorber(h, v, t)
        }
        full = enumerate_v_absorbers(h, v, seed=seed)
        assert len(full) == len(expected) and set(full) == expected


def reference_family(h, r, cfg, min_tuples=None, max_tuples=None):
    """The greedy selection with explicit candidate lists, a
    (coverage, vertex) pick key and coverage counted by is_v_absorber.
    Returns the tuples and the set of rules the picks went through: "tie"
    (equal nonzero coverage), "blocked" (a vertex without an absorber) and
    "extra" (a pick past the coverage target)."""
    n = h.n
    target = max(1, math.ceil(2 * cfg.theta_star**2 * n))
    goal = min_tuples if min_tuples is not None else 0
    selected = []
    occupied = r.members
    coverage = [0] * n
    blocked = set()
    events = set()
    for _ in range(4 * n + 64):
        if max_tuples is not None and len(selected) >= max_tuples:
            break
        pool = [v for v in range(n) if coverage[v] < target and v not in blocked]
        if not pool:
            if len(selected) >= goal:
                break
            pool = [v for v in range(n) if v not in blocked]
            if not pool:
                break
            events.add("extra")
        pick = min(pool, key=lambda v: (coverage[v], v))
        if coverage[pick] and [coverage[v] for v in pool].count(coverage[pick]) > 1:
            events.add("tie")
        cand = enumerate_v_absorbers(
            h,
            pick,
            exclude=occupied,
            limit=1,
            seed=derive_seed(cfg.seed, "absorber", len(selected), pick),
        )
        if not cand:
            blocked.add(pick)
            events.add("blocked")
            continue
        selected.append(cand[0])
        occupied |= mask_of(cand[0])
        blocked.clear()
        for u in range(n):
            coverage[u] += is_v_absorber(h, u, cand[0])
    return selected, events


class TestFamily:
    @pytest.mark.parametrize(
        "n, delta, seed, theta_star, sized, events",
        [
            (40, 0.9, 1, 0.3, True, {"tie"}),
            (48, 0.8, 3, 0.15, False, {"tie", "blocked"}),
            (36, 0.75, 6, 0.15, True, {"blocked"}),
            (30, 0.9, 9, 0.1, True, {"tie", "extra"}),
            # delta None: pikhurko(n), whose part A0 has no absorber at all
            (20, None, 1, 0.15, True, {"tie", "blocked", "extra"}),
            (24, None, 1, 0.15, False, {"tie", "blocked"}),
        ],
    )
    def test_pick_matches_reference_key(self, n, delta, seed, theta_star, sized, events):
        h = pikhurko(n)[0] if delta is None else dense_random(n, delta, seed)
        cfg = Config(theta_star=theta_star, seed=seed)
        r = sample_reservoir(h, cfg)
        size = max(1, (n - r.member_count) // 6) if sized else None
        fam = build_absorber_family(h, r, cfg, size=size)
        tuples, seen = reference_family(h, r, cfg, min_tuples=size, max_tuples=size)
        assert fam.tuples == tuples
        assert seen == events

    @pytest.mark.parametrize("n", [16, 20, 24])
    @pytest.mark.parametrize("sized", [False, True])
    def test_blocked_vertex_scanned_once(self, n, sized, monkeypatch):
        empty = Counter()

        def counting(h, v, *args, **kwargs):
            out = enumerate_v_absorbers(h, v, *args, **kwargs)
            empty[v] += not out
            return out

        monkeypatch.setattr("hypersquare.absorber.enumerate_v_absorbers", counting)
        h = pikhurko(n)[0]
        cfg = Config(seed=1)
        r = sample_reservoir(h, cfg)
        size = max(1, (n - r.member_count) // 6) if sized else None
        build_absorber_family(h, r, cfg, size=size)
        assert empty and max(empty.values()) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(7, 40),
        st.sampled_from([0.05, 0.15, 0.3, 0.5, 0.7, 0.9]),
        st.integers(0, 5),
    )
    def test_unsized_on_complete_needs_no_floor(self, n, theta_star, seed):
        # absorb --demo builds an unsized family on complete(n).  A floor of
        # two tuples never binds there: a tuple does not absorb its own six
        # vertices, and once those are blocked every vertex is.
        h = complete(n)
        cfg = Config(theta_star=theta_star, seed=seed)
        r = sample_reservoir(h, cfg)
        fam = build_absorber_family(h, r, cfg)
        assert fam.tuples == reference_family(h, r, cfg, min_tuples=2)[0]

    def test_complete40_coverage(self):
        h = complete(40)
        cfg = Config()
        fam = build_absorber_family(h, sample_reservoir(h, cfg), cfg)
        assert fam.tuples
        assert all(fam.coverage(v) >= 1 for v in range(40))
        assert not fam.degraded

    def test_empty_hypergraph_degraded(self):
        h = Hypergraph3(20)
        cfg = Config()
        fam = build_absorber_family(h, sample_reservoir(h, cfg), cfg)
        assert fam.tuples == []
        assert fam.degraded

    def test_deterministic(self):
        h = complete(30)
        cfg = Config(seed=4)
        r = Reservoir(members=0)
        a = build_absorber_family(h, r, cfg)
        b = build_absorber_family(h, r, cfg)
        assert a.tuples == b.tuples

    def test_tuples_disjoint_and_valid(self):
        h = random_hypergraph(24, 0.95, seed=31)
        cfg = Config(seed=2)
        fam = build_absorber_family(h, Reservoir(members=0), cfg)
        seen = set()
        for t in fam.tuples:
            assert len(set(t)) == 6
            assert not (set(t) & seen)
            seen |= set(t)
            assert is_squared_path(h, __import__("hypersquare").VertexSeq(t))

    def test_avoids_reservoir(self):
        h = complete(30)
        cfg = Config(seed=3)
        r = Reservoir(members=mask_of(range(24, 30)))
        fam = build_absorber_family(h, r, cfg, size=4)
        assert not (fam.vertex_mask & r.members)

    def test_size_extends_family(self):
        h = complete(36)
        cfg = Config(seed=1)
        small = build_absorber_family(h, Reservoir(members=0), cfg)
        large = build_absorber_family(h, Reservoir(members=0), cfg, size=5)
        assert len(large.tuples) == 5 > len(small.tuples)
        assert large.tuples[: len(small.tuples)] == small.tuples

    def test_per_vertex_index_correct(self):
        h = complete(24)
        cfg = Config(seed=6)
        fam = build_absorber_family(h, Reservoir(members=0), cfg, size=3)
        for v in range(24):
            for i, t in enumerate(fam.tuples):
                expected = is_v_absorber(h, v, t)
                assert bool((fam.absorbable[i] >> v) & 1) == expected


class TestAbsorbableMask:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(6, 12),
        st.floats(0.5, 1.0),
        st.integers(0, 10**6),
        st.integers(0, 11),
    )
    def test_matches_is_v_absorber(self, n, p, seed, v):
        h = random_hypergraph(n, p, seed)
        v %= n
        for t in enumerate_v_absorbers(h, v, limit=12, seed=seed):
            expected = mask_of(u for u in range(n) if is_v_absorber(h, u, t))
            assert absorbable_mask(h, t) == expected
            assert (absorbable_mask(h, t) >> v) & 1

    def test_family_masks_match_tuples(self):
        h = random_hypergraph(30, 0.95, seed=5)
        cfg = Config(seed=3)
        fam = build_absorber_family(h, Reservoir(members=0), cfg)
        assert fam.absorbable == [absorbable_mask(h, t) for t in fam.tuples]


class TestTruncatedFamily:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(18, 36),
        st.floats(0.8, 1.0),
        st.integers(0, 10**6),
        st.sampled_from([0.15, 0.3, 0.5]),
        st.integers(0, 10**6),
    )
    def test_prefix_equals_fresh_build(self, n, p, seed, theta_star, cfg_seed):
        h = random_hypergraph(n, p, seed)
        cfg = Config(theta_star=theta_star, seed=cfg_seed)
        r = sample_reservoir(h, cfg)
        size = max(1, (n - r.member_count) // 6)
        largest = build_absorber_family(h, r, cfg, size=size)
        assert largest.truncated(len(largest.tuples)) == largest
        for k in range(1, len(largest.tuples) + 1):
            cut = largest.truncated(k)
            fresh = build_absorber_family(h, r, cfg, size=k)
            assert cut == fresh
            assert cut.degraded == fresh.degraded


class TestAbsorbingPath:
    def test_three_tuples_complete(self):
        h = complete(40)
        cfg = Config(seed=7)
        r = Reservoir(members=0)
        fam = build_absorber_family(h, r, cfg, size=3)
        pa = build_absorbing_path(h, fam, r, cfg)
        # complete case joins directly, so exactly 18 vertices
        assert len(pa) == 18
        assert is_squared_path(h, pa)
        for t in fam.tuples:
            assert any(
                pa.vertices[i : i + 6] == t for i in range(len(pa) - 5)
            )

    def test_single_tuple_is_itself(self):
        h = complete(20)
        cfg = Config(seed=8)
        r = Reservoir(members=0)
        fam = build_absorber_family(h, r, cfg).truncated(1)
        pa = build_absorbing_path(h, fam, r, cfg)
        assert pa.vertices == fam.tuples[0]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(10, 24),
        st.floats(0.6, 0.95),
        st.integers(0, 10**6),
        st.sampled_from([0.0, 0.15, 0.3, 0.5]),
        st.integers(0, 2**63 - 1),
    )
    def test_one_tuple_family_always_builds(self, n, fraction, graph_seed, theta, seed):
        # the construction's smallest fallback family: one tuple, built clear
        # of the reservoir at the size the pipeline asks for, needs no join
        h = dense_instance(n, fraction, graph_seed)
        cfg = Config(theta_star=theta, seed=seed)
        r = sample_reservoir(h, cfg)
        fam = build_absorber_family(h, r, cfg, size=max(1, (n - r.member_count) // 6))
        assume(fam.tuples)
        pa = build_absorbing_path(h, fam.truncated(1), r, cfg)
        assert pa.vertices == fam.tuples[0]

    def test_empty_family_rejected(self):
        h = complete(20)
        cfg = Config()
        fam = build_absorber_family(h, Reservoir(members=0), cfg).truncated(0)
        with pytest.raises(ValueError):
            build_absorbing_path(h, fam, Reservoir(members=0), cfg)

    def test_impossible_join_raises(self):
        # two complete components; tuples in different components cannot join
        left = complete(8).iter_edges()
        right = [tuple(v + 8 for v in e) for e in complete(8).iter_edges()]
        h = Hypergraph3(16, list(left) + list(right))
        cfg = Config(cap_m=4)
        fam = build_absorber_family(h, Reservoir(members=0), cfg)
        assert len(fam.tuples) >= 2
        comp = lambda t: 0 if t[0] < 8 else 1
        if len({comp(t) for t in fam.tuples[:2]}) == 1:
            # force tuples into different components
            other = [t for t in fam.tuples if comp(t) != comp(fam.tuples[0])]
            assert other, "family unexpectedly one-sided"
            fam.tuples = [fam.tuples[0], other[0]]
        else:
            fam.tuples = fam.tuples[:2]
        with pytest.raises(PathConstructionError):
            build_absorbing_path(h, fam, Reservoir(members=0), cfg)

    def test_avoids_reservoir_everywhere(self):
        h = complete(40)
        cfg = Config(seed=9)
        r = Reservoir(members=mask_of(range(34, 40)))
        fam = build_absorber_family(h, r, cfg, size=4)
        pa = build_absorbing_path(h, fam, r, cfg)
        assert not (mask_of(pa.vertices) & r.members)


def reference_absorb(h, pa, fam, xs):
    """absorb's rule over explicit lists and is_v_absorber: the vertex with
    the fewest free absorbers first, then its free tuple that absorbs the
    fewest remaining vertices, ties to the lowest id.  Returns the host
    sequence, or the first vertex left without a free absorber."""
    vs = pa.vertices
    free = list(range(len(fam.tuples)))
    remaining = sorted(xs)
    after = {}

    def absorbs(i, u):
        return is_v_absorber(h, u, fam.tuples[i])

    while remaining:
        options = {u: [i for i in free if absorbs(i, u)] for u in remaining}
        v = min(remaining, key=lambda u: (len(options[u]), u))
        if not options[v]:
            return v
        remaining.remove(v)
        choice = min(
            options[v], key=lambda i: (sum(absorbs(i, u) for u in remaining), i)
        )
        free.remove(choice)
        after[vs.index(fam.tuples[choice][2])] = v
    seq = []
    for i, u in enumerate(vs):
        seq.append(u)
        if i in after:
            seq.append(after[i])
    return tuple(seq)


class TestAbsorb:
    def test_choices_match_reference(self):
        rng = random.Random(5)
        checked = errors = 0
        for seed in range(12):
            h = dense_random(30, 0.85, seed)
            cfg = Config(seed=seed)
            r = Reservoir(members=0)
            fam = build_absorber_family(h, r, cfg, size=3)
            try:
                pa = build_absorbing_path(h, fam, r, cfg)
            except PathConstructionError:
                continue
            outside = sorted(set(range(30)) - set(pa.vertices))
            for _ in range(6):
                xs = rng.sample(outside, rng.randint(1, min(len(outside), 4)))
                expected = reference_absorb(h, pa, fam, xs)
                if isinstance(expected, int):
                    with pytest.raises(AbsorptionError) as err:
                        absorb(h, pa, fam, xs)
                    assert err.value.vertex == expected
                    errors += 1
                else:
                    assert absorb(h, pa, fam, xs).vertices == expected
                checked += 1
        assert checked >= 30 and 0 < errors < checked

    def _setup(self, n=20, tuples=2, seed=10):
        h = complete(n)
        cfg = Config(seed=seed)
        r = Reservoir(members=0)
        fam = build_absorber_family(h, r, cfg, size=tuples)
        pa = build_absorbing_path(h, fam, r, cfg)
        return h, fam, pa

    def test_absorb_two(self):
        h, fam, pa = self._setup()
        outside = sorted(set(range(20)) - set(pa.vertices))[:2]
        out = absorb(h, pa, fam, outside)
        assert is_squared_path(h, out)
        assert set(out.vertices) == set(pa.vertices) | set(outside)
        assert out.start_triple == pa.start_triple
        assert out.end_triple == pa.end_triple

    def test_absorb_empty_identity(self):
        h, fam, pa = self._setup()
        assert absorb(h, pa, fam, []) == pa

    def test_too_many_vertices(self):
        h, fam, pa = self._setup()
        outside = sorted(set(range(20)) - set(pa.vertices))[:3]
        # every tuple absorbs every outside vertex, and all are used
        with pytest.raises(AbsorptionError, match="^no unused absorber available") as err:
            absorb(h, pa, fam, outside)
        assert err.value.vertex in outside

    def test_error_when_no_tuple_absorbs_the_vertex(self):
        # vertex 19 lies in no edge, so no tuple absorbs it
        h = Hypergraph3(20, list(complete(19).iter_edges()))
        cfg = Config(seed=10)
        r = Reservoir(members=0)
        fam = build_absorber_family(h, r, cfg, size=2)
        pa = build_absorbing_path(h, fam, r, cfg)
        with pytest.raises(AbsorptionError, match="^no tuple of the family absorbs vertex 19$") as err:
            absorb(h, pa, fam, [19])
        assert err.value.vertex == 19

    def test_on_path_vertex_rejected(self):
        h, fam, pa = self._setup()
        with pytest.raises(ValueError):
            absorb(h, pa, fam, [pa.vertices[0]])

    def test_insertion_between_c_and_d(self):
        h, fam, pa = self._setup(tuples=1)
        v = sorted(set(range(20)) - set(pa.vertices))[0]
        out = absorb(h, pa, fam, [v])
        t = fam.tuples[0]
        assert out.vertices == t[:3] + (v,) + t[3:]

    def test_tuple_not_contiguous_in_path_rejected(self):
        h, fam, pa = self._setup()
        outside = sorted(set(range(20)) - set(pa.vertices))[:1]
        # reversed, every tuple runs backwards; cut short, the second is absent
        for host in (pa.reversed(), VertexSeq(fam.tuples[0])):
            with pytest.raises(ValueError, match="contiguous"):
                absorb(h, host, fam, outside)
