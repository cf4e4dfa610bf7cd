import functools
import itertools
import json
import math
import random
import re
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import compat_oracle
import flip_oracle
import object_oracle
from box_oracle import box_adjacency
from spherelam import cli, curves, lattice, shear, triangulation
from spherelam.curves import (
    V00, V01, V10, V11,
    Puncture,
    TaggedArc,
    Tagging,
    _keys_compatible,
    _key_images,
    _lattice_frame,
    base_triangulation,
    endpoint_sets,
)
from spherelam.errors import (
    DomainError, InternalError, InternalNonUnique, InvalidParameters, NotFareyTriple,
)
from spherelam.lattice import (
    INF, MINUS_ONE, ZERO, Slope, det2, enumerate_slopes, farey1_triples, farey_distance,
    mediant, standard_form,
)
from spherelam.triangulation import (
    FIG1_MATRIX,
    TaggedTriangulation,
    TriType,
    build_type,
    classify,
    enumerate_triangulations,
    flip,
    mutate,
    signed_adjacency,
    _enumerate_typed,
    _farey2_pairs,
)

PLAIN, NOTCHED = Tagging.PLAIN, Tagging.NOTCHED
ALL_PLAIN = tuple((p, PLAIN) for p in (V00, V01, V10, V11))

_F1, _F2 = (ZERO, INF, MINUS_ONE), (Slope(1, 1), Slope(1, -1))
_VU = ((V00, PLAIN), (V11, PLAIN))
# one spec per rejection rule of build_type, in the order it checks them
INVALID_SPECS = [
    TriType("VII", _F2, v=V00, taggings=_VU),
    TriType("I", (ZERO, INF, Slope(2, 1)), taggings=ALL_PLAIN),
    TriType("II", (ZERO, INF), v=V00, taggings=ALL_PLAIN),
    TriType("VI", _F1, taggings=((V00, PLAIN),)),
    TriType("V", _F2, taggings=_VU),
    # v must be the smaller endpoint mod 2
    TriType("II", _F2, v=V11, taggings=ALL_PLAIN),
    TriType("III", _F2, v=V11, v_prime=V01, taggings=_VU),
    TriType("III", _F2, v=V00, taggings=_VU),
    TriType("III", _F2, v=V00, v_prime=V11, taggings=_VU),
    TriType("IV", _F2, v=V00, taggings=_VU),
    TriType("IV", _F2, v=V00, v_prime=V11, taggings=_VU),
    # tags outside the free punctures of the type, or missing there
    TriType("I", _F1, taggings=ALL_PLAIN[:3]),
    TriType("II", _F2, v=V00, taggings=_VU),
    TriType("III", _F2, v=V00, v_prime=V01, taggings=ALL_PLAIN),
    TriType("IV", _F2, v=V00, v_prime=V01, taggings=_VU),
    TriType("V", _F2, v=V00, taggings=ALL_PLAIN),
    TriType("VI", _F1, v=V00, taggings=((V01, PLAIN),)),
]


def sweep_flip(tri, k):
    """The former height-capped flip, kept as an oracle: the candidate
    slopes are the present ones, the mediants of their Farey-1 pairs and
    every slope up to height min(2h + 2, 64), each candidate arc is checked
    by the tuple rule of :mod:`compat_oracle`, not by the integer kernel."""
    removed = tri.arcs[k]
    rest = tuple(a for i, a in enumerate(tri.arcs) if i != k)
    slopes = {arc.slope for arc in tri.arcs}
    for s, t in itertools.combinations(list(slopes), 2):
        if farey_distance(s, t) == 1:
            slopes.add(mediant(s, t))
    slopes.update(enumerate_slopes(min(2 * tri.height + 2, 64)))
    found = []
    for slope in sorted(slopes):
        if any(farey_distance(slope, a.slope) > 2 for a in rest):
            continue
        for pair in endpoint_sets(slope):
            for t0, t1 in itertools.product(Tagging, repeat=2):
                cand = TaggedArc(slope, ((pair[0], t0), (pair[1], t1)))
                if cand == removed or cand in rest:
                    continue
                if not all(compat_oracle.arcs_compatible(cand, a) for a in rest):
                    continue
                try:
                    found.append(TaggedTriangulation(rest[:k] + (cand,) + rest[k:]))
                except ValueError:
                    continue
    assert len(found) == 1, found
    return found[0]


def sweep_flip_at_height_two(tri, k):
    """(flip(tri, k) by :func:`sweep_flip`, m): the sweep runs on the image
    of tri under the lattice map m sending a Farey-1 pair of its slopes to
    0 and inf, where every slope has height <= 2 (compatible slopes are at
    Farey distance <= 2), so it is exact at any height of tri."""
    s, t = next((s, t) for s, t in itertools.combinations({a.slope for a in tri.arcs}, 2)
                if farey_distance(s, t) == 1)
    m = object_oracle.pair_to_basis(s, t)
    image = TaggedTriangulation(tuple(a.image(m) for a in tri.arcs))
    assert image.height <= 2
    return sweep_flip(image, k), m


def type_i_start(rng, lo, hi, tags=None):
    """A type-I triangulation of height in [lo, hi]: a random primitive
    f = (a, b), a Farey neighbour g = (c, d) with 0 <= c < a, and the
    lower of f - g and f + g."""
    while True:
        a, b = rng.randint(1, hi), rng.randint(-hi, hi)
        if math.gcd(a, b) == 1 and max(a, abs(b)) >= lo:
            break
    c = pow(b, -1, a) if a > 1 else 0  # c*b = 1 mod a
    d = (c * b - 1) // a  # a*d - b*c = -1
    third = min(standard_form(a - c, b - d), standard_form(a + c, b + d),
                key=lambda s: s.height)
    triple = (standard_form(a, b), standard_form(c, d), third)
    if tags is None:
        tags = tuple((p, rng.choice((PLAIN, NOTCHED))) for p in (V00, V01, V10, V11))
    return build_type(TriType("I", triple, taggings=tags))


def plain_walk(start, steps, rng):
    """(T, k, flip(T, k)) along a random walk through all-plain flips."""
    t = start
    for _ in range(steps):
        ks = list(range(6))
        rng.shuffle(ks)
        for k in ks:
            f = flip(t, k)
            if f.all_plain:
                yield t, k, f
                t = f
                break


@functools.lru_cache(maxsize=None)
def height_three():
    """Every triangulation of height <= 3, built once for the tests that
    sweep all of them."""
    return list(enumerate_triangulations(3))


@st.composite
def unimodular_maps(draw, bound=10**6):
    """An orientation-preserving lattice map with entries in [-bound, bound]:
    a primitive first column (p, r), the second column (q, s) with
    p*s - q*r = 1 from the extended gcd, then moved by a multiple of the
    first while it stays in bound."""
    p = draw(st.integers(-bound, bound))
    r = draw(st.integers(-bound, bound).filter(lambda r: math.gcd(p, r) == 1))
    x0, x1, y0, y1, a, b = 1, 0, 0, 1, p, r  # a = x0*p + y0*r, b = x1*p + y1*r
    while b:
        n = a // b
        a, b, x0, x1, y0, y1 = b, a - n * b, x1, x0 - n * x1, y1, y0 - n * y1
    s, q = a * x0, -a * y0  # a = +-1, so p*s - q*r = a * a = 1
    n = draw(st.integers(-3, 3))
    if max(abs(q + n * p), abs(s + n * r)) <= bound:
        q, s = q + n * p, s + n * r
    return lattice.UnimodularMap(((p, q), (r, s)))


def fresh_table(monkeypatch):
    """An empty adjacency table, a new search and an empty flip memo, the
    process's own put back after the test."""
    monkeypatch.setattr(triangulation, "_TABLE", {})
    monkeypatch.setattr(triangulation, "_SEARCH", triangulation._search())
    monkeypatch.setattr(triangulation, "_FLIP_MEMO", {})


def full_table():
    """The adjacency table with its search run to the end."""
    for _ in triangulation._SEARCH:
        pass
    return triangulation._TABLE


def deep_tagged_walks(seed, steps=40):
    """(T, k, flip(T, k)) along seeded random flip walks from tagged type-I
    starts of heights 10^3 to 10^6, one walk per decade."""
    rng = random.Random(seed)
    for exponent in (3, 4, 5):
        t = type_i_start(rng, 10**exponent, 10**(exponent + 1))
        for _ in range(steps):
            k = rng.randrange(6)
            f = flip(t, k)
            yield t, k, f
            t = f


class TestBaseTriangulation:
    def test_structure(self):
        t0 = base_triangulation()
        slopes = [a.slope for a in t0.arcs]
        assert slopes == [ZERO, INF, MINUS_ONE, ZERO, INF, MINUS_ONE]
        assert t0.arcs[0].punctures == {V00, V10}
        assert t0.arcs[1].punctures == {V00, V01}
        assert t0.arcs[2].punctures == {V00, V11}
        assert t0.all_plain
        assert t0.degree_sequence == (3, 3, 3, 3)

    def test_classify(self):
        tt = classify(base_triangulation())
        assert tt.tag == "I"
        assert set(tt.slopes) == {ZERO, INF, MINUS_ONE}

    def test_fig1_matrix(self):
        assert signed_adjacency(base_triangulation()) == FIG1_MATRIX
        assert box_adjacency(base_triangulation()) == FIG1_MATRIX

    def test_all_pairs_compatible(self):
        base_triangulation()  # the constructor verifies all 15 pairs


class TestBuildClassify:
    def test_type_ii_structure(self):
        spec = TriType("II", (Slope(1, 1), Slope(1, -1)), v=V00, taggings=ALL_PLAIN)
        tri = build_type(spec)
        pair_arcs = [a for a in tri.arcs if a.slope in (Slope(1, 1), Slope(1, -1))]
        assert len(pair_arcs) == 2
        assert all(a.punctures == {V00, V11} for a in pair_arcs)
        others = sorted(
            (a.slope, tuple(sorted(a.punctures))) for a in tri.arcs if a not in pair_arcs
        )
        assert others == [
            (ZERO, (V00, V10)),
            (ZERO, (V01, V11)),
            (INF, (V00, V01)),
            (INF, (V10, V11)),
        ]

    def test_type_vi_degrees(self):
        spec = TriType("VI", (ZERO, INF, MINUS_ONE), v=V00, taggings=((V00, PLAIN),))
        tri = build_type(spec)
        assert tri.degree_sequence == (2, 2, 2, 6)
        assert classify(tri).tag == "VI"

    def test_round_trip_all_types(self):
        for tri in enumerate_triangulations(2):
            tt = classify(tri)
            assert build_type(tt) == tri

    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_classify_recovers_enumerated_spec(self, height):
        # the exact spec, so an equivalent but different v or v' fails
        for spec, tri in _enumerate_typed(height):
            assert classify(tri) == spec, spec

    def test_invalid_parameters(self):
        for spec in INVALID_SPECS:
            with pytest.raises(InvalidParameters):
                build_type(spec)

    @pytest.mark.parametrize("args, kwargs", [
        (("II", _F2), dict(v="00", taggings=ALL_PLAIN)),
        (("I", ((1, 0), (0, 1), (1, -1))), dict(taggings=ALL_PLAIN)),
        (("III", _F2), dict(v=V00, v_prime=(0, 1), taggings=_VU)),
        (("I", _F1), dict(taggings=(("00", PLAIN),) + ALL_PLAIN[1:])),
        (("I", _F1), dict(taggings=((V00, "plain"),) + ALL_PLAIN[1:])),
        (("I", _F1), dict(taggings=((V00, PLAIN, PLAIN),) + ALL_PLAIN[1:])),
        (("I", _F1), dict(taggings=([V00, PLAIN],) + ALL_PLAIN[1:])),
        (("VI", _F1), dict(v=V00, taggings=(V00, PLAIN))),
    ])
    def test_fields_of_the_wrong_class(self, args, kwargs):
        # a slope that is not a Slope, a v or v' that is not a Puncture or
        # None, a tagging that is not a (Puncture, Tagging) pair: refused
        # when the spec is made, not met as an AttributeError in build_type
        with pytest.raises(InvalidParameters, match="^a type takes Slopes, v and v' "):
            TriType(*args, **kwargs)

    def test_companions(self):
        # the companion vectors of a Farey-2 pair, sign-normalised and
        # sorted; _frame checks the pair
        assert triangulation._companions((1, 1), (1, -1)) == [(1, 0), (0, 1)]
        assert triangulation._companions((1, -1), (1, 1)) == [(1, 0), (0, 1)]
        assert triangulation._companions((1, 3), (1, 1)) == [(1, 2), (0, 1)]
        with pytest.raises(InvalidParameters, match="^types II-V need a Farey-2 pair$"):
            triangulation._frame("II", [(1, 0), (0, 1)], 0, None)

    def test_farey2_pair_checked_once(self, monkeypatch):
        # _frame checks the pair on its vectors, then finds the companions
        # unchecked: _companions runs once, and no gcd
        spec = TriType("II", (Slope(1, 1), Slope(1, -1)), v=V00, taggings=ALL_PLAIN)
        calls = Counter()
        real_gcd, real_companions = math.gcd, triangulation._companions
        monkeypatch.setattr(math, "gcd", lambda *args: calls.update(["gcd"]) or real_gcd(*args))
        monkeypatch.setattr(triangulation, "_companions", lambda p, q: (
            calls.update(["_companions"]) or real_companions(p, q)))
        build_type(spec)
        assert calls == Counter({"_companions": 1})
        Slope(2, 1)  # the counters are live
        assert calls["gcd"] == 1


class TestEnumeration:
    def test_counts_match_parameter_spaces(self):
        slopes = enumerate_slopes(2)
        f1 = len(farey1_triples(slopes))
        f2 = len(_farey2_pairs(slopes))
        expected = {
            "I": f1 * 16,
            "II": f2 * 2 * 16,
            "III": f2 * 2 * 2 * 4,
            "IV": f2 * 4 * 2 * 8,
            "V": f2 * 4 * 4,
            "VI": f1 * 4 * 2,
        }
        counts = Counter(classify(t).tag for t in enumerate_triangulations(2))
        assert dict(counts) == expected

    def test_no_duplicates(self):
        tris = list(enumerate_triangulations(2))
        assert len(set(tris)) == len(tris)

    def test_degree_sequences_admissible(self):
        for t in enumerate_triangulations(2):
            assert t.degree_sequence in {(3, 3, 3, 3), (2, 2, 4, 4), (2, 2, 3, 5),
                                         (2, 2, 2, 6)}

    def test_all_plain_types(self):
        # only types I and II admit all-plain taggings
        kinds = {classify(t).tag for t in enumerate_triangulations(2) if t.all_plain}
        assert kinds == {"I", "II"}

    def test_triple_count_height_one(self):
        # brute force: pairwise Farey-1 triples from the four height-1 slopes
        slopes = enumerate_slopes(1)
        triples = [
            t for t in itertools.combinations(slopes, 3)
            if all(farey_distance(a, b) == 1 for a, b in itertools.combinations(t, 2))
        ]
        assert len(triples) == 2
        type_i = [t for t in enumerate_triangulations(1) if classify(t).tag == "I"]
        assert len(type_i) == len(triples) * 16


class TestFlip:
    def test_base_flips_are_type_ii(self):
        t0 = base_triangulation()
        for k in range(6):
            assert classify(flip(t0, k)).tag == "II"

    def test_involution(self):
        for t in list(enumerate_triangulations(1))[::7]:
            for k in range(6):
                f = flip(t, k)
                assert flip(f, f.arcs.index(next(iter(set(f.arcs) - set(t.arcs))))) == t

    def test_matches_sweep_oracle(self):
        for t in enumerate_triangulations(2):
            for k in range(6):
                rest = t._keys[:k] + t._keys[k + 1:]
                assert len(flip_oracle.flip_slopes(rest)) <= 12
                assert flip(t, k).arcs == sweep_flip(t, k).arcs

    def test_candidate_vectors_are_the_slopes(self):
        # the former candidate set, one standard_form Slope per integral
        # (i*s + j*t) / d over the 12 (i, j) above (0, 0) with |i|, |j| <= 2,
        # against the integer vectors kept now
        def slope_candidates(rest):
            s = rest[0].slope
            t = next(a.slope for a in rest if a.slope != s)
            d = det2(s, t)
            out = set()
            for i, j in itertools.product(range(-2, 3), repeat=2):
                if (i, j) <= (0, 0):
                    continue  # one of each pair +-(i, j), and not (0, 0)
                x, y = i * s.a + j * t.a, i * s.b + j * t.b
                if x % d == 0 and y % d == 0:
                    out.add(standard_form(x // d, y // d))
            return out

        for t in enumerate_triangulations(3):
            for k in range(6):
                rest = t.arcs[:k] + t.arcs[k + 1:]
                got = flip_oracle.flip_slopes([a._key for a in rest])
                assert got == {w.vector for w in slope_candidates(rest)}
                assert all(standard_form(a, b).vector == (a, b) for a, b in got)

    def test_large_height_type_i(self):
        rng = random.Random(7)
        for _ in range(20):
            t = type_i_start(rng, 100, 10_000)
            assert 100 <= t.height <= 10_000
            for k in range(6):
                f = flip(t, k)
                assert flip(f, k) == t
                assert build_type(classify(f)) == f

    def test_large_height_tagged_walks(self):
        # walks through every type, far above the former slope cap of 64
        rng = random.Random(11)
        kinds = Counter()
        for _ in range(10):
            t = type_i_start(rng, 100, 10_000)
            for _ in range(30):
                k = rng.randrange(6)
                f = flip(t, k)
                assert flip(f, k) == t
                assert build_type(classify(f)) == f
                kinds[classify(f).tag] += 1
                t = f
        assert set(kinds) == {"I", "II", "III", "IV", "V", "VI"}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 5), st.integers(0, 2**32),
           st.lists(st.integers(0, 5), min_size=1, max_size=20))
    def test_reach_at_large_heights(self, exponent, seed, ks):
        # tagged type-I starts of height 10^3 to 10^6; the sweep oracle is
        # exact only below height 32, so it runs on the height-2 image
        t = type_i_start(random.Random(seed), 10**exponent, 10**(exponent + 1))
        assert 10**3 <= t.height <= 10**6
        for k in ks:
            f = flip(t, k)
            assert flip(f, k) == t
            assert build_type(classify(t)) == t
            swept, m = sweep_flip_at_height_two(t, k)
            assert tuple(a.image(m) for a in f.arcs) == swept.arcs
            t = f

    def test_exactly_one_key_survives(self):
        # six distinct pairwise compatible arcs are a triangulation, so the
        # kernel alone leaves one of the 8 keys of each candidate slope of
        # the oracle; the one-pass flip gives the oracle's keys in arc order
        cases = 0
        for t in height_three():
            taken = t._keys
            for k in range(6):
                rest = taken[:k] + taken[k + 1:]
                survivors = [key for a, b in flip_oracle.flip_slopes(rest)
                             for key in flip_oracle.slope_keys(a, b)
                             if key not in taken and all(_keys_compatible(key, r) for r in rest)]
                assert len(survivors) == 1
                assert flip(t, k)._keys == flip_oracle.flip_keys(t, k) == \
                    rest[:k] + (survivors[0],) + rest[k:]
                cases += 1
        assert cases == 12_000

    def test_matches_flip_oracle_on_deep_walks(self):
        # seeded tagged walks from type-I starts of height 10^3 to 10^7
        rng = random.Random(37)
        kinds, heights = Counter(), []
        for exponent in (3, 4, 5, 6):
            t = type_i_start(rng, 10**exponent, 10**(exponent + 1))
            for _ in range(60):
                k = rng.randrange(6)
                f = flip(t, k)
                assert f._keys == flip_oracle.flip_keys(t, k)
                kinds[classify(f).tag] += 1
                heights.append(f.height)
                t = f
        assert set(kinds) == {"I", "II", "III", "IV", "V", "VI"}
        assert max(heights) >= 10**6

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 1999), st.integers(0, 5), unimodular_maps())
    def test_flip_is_equivariant(self, index, k, m):
        # for T of height <= 3 in any tagging and an orientation-preserving
        # lattice map m with entries up to 10^6, flip(m.T, k) has the keys of
        # m.flip(T, k) in arc order: the kernel does not see the height
        t = height_three()[index]
        image = TaggedTriangulation._of_keys(tuple(_key_images(t._keys, m.linear)))
        assert flip(image, k)._keys == tuple(_key_images(flip(t, k)._keys, m.linear))

    @pytest.mark.parametrize("pairs", [
        {1: (), 2: ()},
        {d: 2 * pairs for d, (pairs, _) in triangulation._CANDIDATES.items()},
    ], ids=["no key", "two keys"])
    def test_filter_not_leaving_one_key_is_internal(self, monkeypatch, pairs):
        # an empty candidate table leaves no key, a doubled one each key
        # twice; the empty flip memo sends the flip to the kernel
        fresh_table(monkeypatch)
        monkeypatch.setattr(triangulation, "_CANDIDATES", triangulation._candidate_table(pairs))
        with pytest.raises(InternalNonUnique, match=f"produced {2 * bool(pairs[1])} completions"):
            flip(base_triangulation(), 0)

    def test_filter_bounds_kernel_calls(self, monkeypatch):
        # all 8 keys of each candidate slope through the kernel take 70.1
        # calls a flip on these 12,000 cases; the filter leaves a few keys
        # (8.06 a flip).  The kernel is counted under both module names, so
        # that construction counts too: none for the result of a flip,
        # which the search has just checked, and 15 pair checks for every
        # other construction
        calls = 0

        def counting(x, y):
            nonlocal calls
            calls += 1
            return _keys_compatible(x, y)

        monkeypatch.setattr(curves, "_keys_compatible", counting)
        monkeypatch.setattr(triangulation, "_keys_compatible", counting)
        tris = height_three()
        calls = 0
        flips = [flip(t, k) for t in tris for k in range(6)]
        assert len(flips) == 12_000
        assert calls <= 10 * len(flips)
        calls = 0
        TaggedTriangulation(flips[0].arcs)
        assert calls == 15

    @pytest.mark.parametrize("k", [6, -1, -6, True, False, 1.0, "0", None])
    def test_index_must_be_an_int_in_range(self, k):
        with pytest.raises(DomainError, match=r"arc index must be in 0\.\.5"):
            flip(base_triangulation(), k)

    def test_type_v_neighbors(self):
        spec = TriType("V", (Slope(1, 1), Slope(1, -1)), v=V00,
                       taggings=((V00, PLAIN), (V11, PLAIN)))
        t = build_type(spec)
        kinds = Counter(classify(flip(t, k)).tag for k in range(6))
        assert dict(kinds) == {"IV": 4, "VI": 2}


def full_memo():
    """The flip memo with every (entry, position) of the full table filled."""
    for entry in full_table():
        for j in range(6):
            triangulation._FLIP_MEMO.get((entry, j)) or triangulation._flip_entry(entry, j)
    return triangulation._FLIP_MEMO


class TestFlipMemo:
    """flip reads the flips of the 27 lattice-frame entries: a
    triangulation keeps its frame, the integer kernel (_flip_key) runs once
    per entry and position, and a flip carries the frame over to its
    result.  This rests on flips commuting with the frame's lattice maps
    and tag switches (Fomin-Shapiro-Thurston, Acta Math. 2008)."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 1999), unimodular_maps())
    def test_flip_commutes_with_lattice_maps_and_tag_switches(self, index, m):
        # for T of height <= 3 in any tagging, every k, an orientation-
        # preserving lattice map m with entries up to 10^6 and every
        # puncture set S: the kernel and flip of switch_S(m.T) at k are
        # switch_S(m.flip(T, k))
        t = height_three()[index]
        for switch in range(16):
            image = TaggedTriangulation._of_keys(tuple(_key_images(t._keys, m.linear, switch)))
            for k in range(6):
                moved = tuple(_key_images(flip(t, k)._keys, m.linear, switch))
                assert triangulation._flip_key(image._keys, k) == moved[k]
                assert flip(image, k)._keys == moved

    def test_carried_frames_on_deep_walks(self):
        # seeded tagged walks from type-I starts of height 10^3 to 10^7,
        # through all six types: each flip is the oracle's, its result
        # carries a frame that moves its keys onto a table entry by a det-1
        # map, arc i onto the entry key at its position pos[i], and its
        # matrix is that of the same keys framed afresh.  With the memo
        # full, only a walk's start frames its keys
        table = full_table()
        full_memo()
        rng = random.Random(43)
        kinds, heights, frames = Counter(), [], []
        real = triangulation._switched_frame
        for exponent in (3, 4, 5, 6):
            t = type_i_start(rng, 10**exponent, 10**(exponent + 1))
            for _ in range(60):
                k = rng.randrange(6)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(triangulation, "_switched_frame",
                                  lambda keys: frames.append(1) or real(keys))
                    f = flip(t, k)
                assert f._keys == flip_oracle.flip_keys(t, k)
                linear, switch, pos, entry = f._frame
                (p, q), (r, s) = linear
                assert p * s - q * r == 1
                images = [entry[i] for i in pos]
                assert images == _key_images(f._keys, linear, switch)
                assert entry == tuple(sorted(images)) and entry in table
                assert signed_adjacency(f) == signed_adjacency(
                    TaggedTriangulation._of_keys(f._keys))
                kinds[classify(f).tag] += 1
                heights.append(f.height)
                t = f
        assert set(kinds) == {"I", "II", "III", "IV", "V", "VI"}
        assert max(heights) >= 10**6
        assert len(frames) == 4

    def test_kernel_runs_once_per_table_arc(self, monkeypatch):
        # from an empty memo, every flip of height <= 3 and deep walks run
        # the kernel at most 27 x 6 times, once per memo value; with the
        # memo full, a 1,000-flip walk from height 10^6 runs it 0 times
        fresh_table(monkeypatch)
        calls = Counter()
        real = triangulation._flip_key
        monkeypatch.setattr(triangulation, "_flip_key",
                            lambda keys, k: calls.update([(keys, k)]) or real(keys, k))
        for t in height_three():
            for k in range(6):
                flip(t, k)
        for _ in deep_tagged_walks(47):
            pass
        assert sum(calls.values()) == len(calls) == len(triangulation._FLIP_MEMO) <= 162
        assert len(full_memo()) == sum(calls.values()) == 162
        calls.clear()
        rng = random.Random(49)
        t = type_i_start(rng, 10**6, 10**7)
        for _ in range(1000):
            t = flip(t, rng.randrange(6))
        assert calls == Counter() and len(triangulation._FLIP_MEMO) == 162

    def test_threads_share_one_memo(self, monkeypatch):
        # four threads flip every triangulation of height <= 1 at every k at
        # once, each from its own place, on an empty memo and with a short
        # switch interval: each gets the keys of a serial run, and the
        # kernel runs once per memo value
        cases = [(t, k) for _, t in _enumerate_typed(1) for k in range(6)]
        expected = [flip(t, k)._keys for t, k in cases]
        fresh_table(monkeypatch)
        calls = Counter()
        real = triangulation._flip_key
        monkeypatch.setattr(triangulation, "_flip_key",
                            lambda keys, k: calls.update([(keys, k)]) or real(keys, k))
        results = []

        def work(n):
            try:
                got = [flip(TaggedTriangulation._of_keys(t._keys), k)._keys
                       for t, k in cases[n:] + cases[:n]]
                results.append(got == expected[n:] + expected[:n])
            except Exception as error:  # a thread's error, reported below
                results.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(97 * n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [True] * 4
        assert sum(calls.values()) == len(calls) == len(triangulation._FLIP_MEMO) <= 162

    def test_table_flips_frame_onto_entries(self):
        # each of the 27 entries flipped at each of its six arcs through
        # the memo frames onto an entry (162 edges); a breadth-first search
        # from the type-I entry back along the edges gives each entry's flip
        # distance to type I, one per type (ROADMAP item 15)
        table = full_table()
        memo = full_memo()
        sources = {entry: [] for entry in table}  # the entries with an edge to each
        for entry, j in itertools.product(table, range(6)):
            sources[memo[entry, j][1][3]].append(entry)
        assert sum(map(len, sources.values())) == 162 and len(memo) == 162
        kinds = {entry: classify(TaggedTriangulation._of_keys(entry)).tag for entry in table}
        start, = [entry for entry, kind in kinds.items() if kind == "I"]
        distance, todo = {start: 0}, [start]
        for entry in todo:
            for e in sources[entry]:
                if e not in distance:
                    distance[e] = distance[entry] + 1
                    todo.append(e)
        by_type = {}
        for entry, d in distance.items():
            by_type.setdefault(kinds[entry], set()).add(d)
        assert len(distance) == 27
        assert by_type == {"I": {0}, "II": {1}, "IV": {2}, "III": {3}, "V": {3}, "VI": {4}}


class TestKeyReaders:
    """The constructor, flip, classify and the triangulation properties
    read integer arc keys; the object-based readers of
    :mod:`object_oracle` are their oracles."""

    def test_classify_matches_object_oracle_to_height_three(self):
        rng = random.Random(17)
        for t in height_three():
            assert classify(t) == object_oracle.classify(t)
            shuffled = TaggedTriangulation(tuple(rng.sample(t.arcs, 6)))
            assert classify(shuffled) == object_oracle.classify(shuffled)

    def test_classify_matches_object_oracle_on_deep_walks(self):
        kinds = Counter()
        for _, _, f in deep_tagged_walks(19):
            kinds[classify(f).tag] += 1
            assert classify(f) == object_oracle.classify(f)
        assert set(kinds) == {"I", "II", "III", "IV", "V", "VI"}

    def test_classify_checks_nothing_again(self, monkeypatch):
        # classify reads a valid triangulation's keys: it calls none of the
        # spec checks and builds no Slope but those of its type data, at
        # height <= 3 and on deep walks
        tris = height_three() + [f for _, _, f in deep_tagged_walks(31)]
        calls = Counter()

        def count(owner, name):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: calls.update([name]) or real(*args))

        count(triangulation, "_frame")
        for name in ("farey_distance", "is_farey1_triple"):
            count(lattice, name)
        count(Slope, "__init__")
        specs = [classify(t) for t in tris]
        assert set(spec.tag for spec in specs) == {"I", "II", "III", "IV", "V", "VI"}
        assert max(t.height for t in tris) >= 10**5
        assert calls == Counter({"__init__": sum(len(spec.slopes) for spec in specs)})
        spec = classify(flip(tris[0], 0))
        calls.clear()
        build_type(spec)  # the counters see a spec's checks, and no Slope
        assert calls == Counter({"_frame": 1})

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 1999), unimodular_maps())
    def test_type_layer_is_equivariant(self, index, m):
        # for T of height <= 3 of every type in any tagging and an
        # orientation-preserving lattice map m with entries up to 10^6, the
        # image m.T in the same arc order has T's type, build_type gives
        # back m.T from its spec, and the signed adjacency, of every type,
        # is T's: the integer kernels do not see the height
        t = height_three()[index]
        image = TaggedTriangulation._of_keys(tuple(_key_images(t._keys, m.linear)))
        spec = classify(image)
        assert spec.tag == classify(t).tag
        assert build_type(spec) == image
        assert signed_adjacency(image) == signed_adjacency(t)

    def test_type_layer_work_per_call(self, monkeypatch):
        # on every triangulation of height <= 3 and on deep walks: build_type
        # and signed_adjacency build no Slope, classify builds exactly its
        # spec's slopes, and none of them builds a Puncture, compares two
        # Slopes or Punctures or makes a cmp_to_key comparator
        tris = height_three() + [f for _, _, f in deep_tagged_walks(41)]
        specs = [classify(t) for t in tris]
        full_table()  # the whole search runs before the counters
        calls = Counter()
        for owner, name in itertools.product((Slope, Puncture), ("__init__", "__lt__", "__le__")):
            real, label = getattr(owner, name), f"{owner.__name__}.{name}"
            monkeypatch.setattr(owner, name, lambda *args, label=label, real=real: (
                calls.update([label]) or real(*args)))
        real_cmp_to_key = functools.cmp_to_key
        monkeypatch.setattr(functools, "cmp_to_key", lambda cmp: (
            calls.update(["cmp_to_key"]) or real_cmp_to_key(cmp)))
        for spec, t in zip(specs, tris):
            assert build_type(spec) == t
        for t in tris:
            signed_adjacency(t)
        assert calls == Counter()
        again = [classify(t) for t in tris]
        assert again == specs
        assert calls == Counter({"Slope.__init__": sum(len(spec.slopes) for spec in specs)})
        assert {spec.tag for spec in specs} == {"I", "II", "III", "IV", "V", "VI"}
        assert max(t.height for t in tris) >= 10**5
        calls.clear()
        TriType("I", (ZERO, INF, MINUS_ONE), taggings=ALL_PLAIN[::-1])  # the counters are live
        assert calls["Slope.__lt__"] > 0 and not calls["Puncture.__lt__"]

    def test_mixed_tags_at_a_free_puncture_are_internal(self):
        # a type-II arc set with one tag changed: its degrees and pairs
        # still read type II, whose four punctures are all free
        t = build_type(TriType("II", (Slope(1, 1), MINUS_ONE), v=V00, taggings=ALL_PLAIN))
        arcs = (t.arcs[0].retag(V00, NOTCHED),) + t.arcs[1:]
        with pytest.raises(ValueError, match="incompatible arcs"):
            TaggedTriangulation(arcs)
        keys = tuple(a._key for a in arcs)
        bad = object.__new__(TaggedTriangulation)  # unchecked, built as flip builds
        for name, value in (("_keys", keys), ("_key_set", frozenset(keys)),
                            ("degree_sequence", t.degree_sequence), ("_frame", None)):
            object.__setattr__(bad, name, value)
        for reader in (classify, object_oracle.classify):
            with pytest.raises(InternalError, match="mixed tags at v00"):
                reader(bad)

    def test_properties_match_object_references(self):
        tris = height_three() + [f for _, _, f in deep_tagged_walks(23)]
        assert max(t.height for t in tris) >= 10**5
        assert {t.all_plain for t in tris} == {True, False}
        for t in tris:
            assert t.degree_sequence == object_oracle.degree_sequence(t)
            assert t.all_plain == object_oracle.all_plain(t)
            assert t.height == object_oracle.height(t)

    def test_flip_passes_the_validating_constructor(self):
        # flip skips the 15 pair checks; the full constructor accepts every
        # flip it builds: all 12,000 (T, k) of height 3, then deep walks
        cases = [(t, k, flip(t, k)) for t in height_three() for k in range(6)]
        assert len(cases) == 12_000
        for t, k, f in cases + list(deep_tagged_walks(29)):
            checked = TaggedTriangulation(f.arcs)
            assert checked == f and checked.arcs == f.arcs
            assert checked.degree_sequence == f.degree_sequence

    def test_flip_constructor_checks_distinct_arcs_and_degrees(self, monkeypatch):
        # flip builds its result itself and keeps the two checks on the key
        # set: the memo fill refuses a flipped entry of an impossible degree
        # sequence, with the constructor's text, and stores nothing; every
        # flip refuses keys that are not distinct
        fresh_table(monkeypatch)
        base = base_triangulation()
        _, _, pos, entry = triangulation._store_frame(base)
        k = pos.index(entry.index((1, 0, 0b0101, 0)))  # the arc framed onto 0/1 at v00, v10
        notched = TaggedArc(INF, ((V00, NOTCHED), (V01, PLAIN)))  # in its place: 2, 3, 3, 4
        monkeypatch.setattr(triangulation, "_flip_key", lambda keys, j: notched._key)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"impossible degree sequence \(2, 3, 3, 4\)"):
                flip(base, k)
        assert triangulation._FLIP_MEMO == {}
        # a key that repeats another on its endpoint mask keeps the degrees
        t = next(t for spec, t in _enumerate_typed(1) if spec.tag == "VI")
        _, _, pos, entry = triangulation._store_frame(t)
        j, i = next((j, i) for j, i in itertools.permutations(range(6), 2)
                    if entry[j][2] == entry[i][2])
        monkeypatch.setattr(triangulation, "_flip_key", lambda keys, k: keys[i])
        with pytest.raises(ValueError, match="exactly 6 distinct arcs"):
            flip(t, pos.index(j))

    def test_warm_flip_runs_no_constructor(self, monkeypatch):
        # with the memo full, a flip reads its degree sequence off the memo:
        # a tagged walk from height 10^6 through all six types counts no
        # degrees and runs none of the constructor's checks
        full_memo()
        rng = random.Random(53)
        t = type_i_start(rng, 10**6, 10**7)
        triangulation._store_frame(t)
        calls = Counter()
        for owner, name in ((curves, "_degrees"), (triangulation, "_degrees"),
                            (TaggedTriangulation, "_freeze")):
            real, label = getattr(owner, name), f"{owner.__name__}.{name}"
            monkeypatch.setattr(owner, name, lambda *args, label=label, real=real: (
                calls.update([label]) or real(*args)))
        walk = []
        for _ in range(300):
            t = flip(t, rng.randrange(6))
            walk.append(t)
        assert calls == Counter()
        TaggedTriangulation._of_keys(t._keys)  # the counters are live
        assert calls == Counter({"spherelam.curves._degrees": 1,
                                 "TaggedTriangulation._freeze": 1})
        monkeypatch.undo()
        assert {classify(f).tag for f in walk} == {"I", "II", "III", "IV", "V", "VI"}
        assert min(f.height for f in walk) >= 10**5

    def test_key_constructor_checks_what_the_arc_constructors_did(self):
        # assembled keys pass the checks of TaggedArc and of the arc
        # constructor: the endpoint mask against the slope's parity, then
        # the pairs, with the same messages
        keys = base_triangulation()._keys
        with pytest.raises(ValueError, match="^endpoints 00,11 do not match the parity of "
                                             "slope 0/1$"):
            TaggedTriangulation._of_keys(((1, 0, 0b1001, 0),) + keys[1:])
        with pytest.raises(ValueError, match="^endpoints 00,11 do not match the parity of "
                                             "slope 0/1$"):
            TaggedArc(ZERO, ((V00, PLAIN), (V11, PLAIN)))
        retagged = (keys[0][:3] + (1,),) + keys[1:]
        arcs = (base_triangulation().arcs[0].retag(V00, NOTCHED),) + base_triangulation().arcs[1:]
        with pytest.raises(ValueError) as by_keys:
            TaggedTriangulation._of_keys(retagged)
        with pytest.raises(ValueError) as by_arcs:
            TaggedTriangulation(arcs)
        assert str(by_keys.value) == str(by_arcs.value)
        assert str(by_keys.value).startswith("incompatible arcs arc(0/1,{v00*,v10})")

    @settings(max_examples=100, deadline=None)
    @given(unimodular_maps(), st.permutations(range(3)))
    def test_type_i_builder_matches_object_oracle(self, m, order):
        # the key-assembled type-I builder gives the keys of the object-built
        # oracle in its arc order, for Farey-1 triples carried from the base
        # by maps with entries up to 10^6, in any order, under all 16 taggings
        triple = tuple(m.apply_slope((ZERO, INF, MINUS_ONE)[i]) for i in order)
        for tags in curves.tag_choices(curves.PUNCTURES):
            assert (curves.type_i_triangulation(triple, tags)._keys
                    == object_oracle.type_i_triangulation(triple, tags)._keys)

    @pytest.mark.parametrize("triple, taggings, error, match", [
        ((ZERO, INF, Slope(2, 1)), ALL_PLAIN, NotFareyTriple, "is not a Farey-1 triple"),
        (_F1, ALL_PLAIN[:3], ValueError, "^taggings must cover each puncture exactly once$"),
        (_F1, ALL_PLAIN + ALL_PLAIN[:1], ValueError, "^taggings must cover each puncture"),
        (_F1, (("00", PLAIN),) + ALL_PLAIN[1:], ValueError, "^taggings must cover each puncture"),
        (_F1, ((V00, "plain"),) + ALL_PLAIN[1:], ValueError, "^each tag must be a Tagging"),
        (_F1, ALL_PLAIN[:3] + ((V11, None),), ValueError, "^each tag must be a Tagging"),
    ])
    def test_type_i_builder_errors(self, triple, taggings, error, match):
        # the errors of the object-built oracle, a tag that is not a
        # Tagging among them: the string "plain" or None is not plain
        with pytest.raises(error):
            object_oracle.type_i_triangulation(triple, taggings)
        with pytest.raises(error, match=match):
            curves.type_i_triangulation(triple, taggings)

    @pytest.mark.parametrize("triple", [
        ((1, 0), (0, 1), (1, -1)),
        ("0/1", "inf", "-1/1"),
        (ZERO, INF, (1, -1)),
        (ZERO, INF),
        (ZERO, INF, MINUS_ONE, Slope(1, 1)),
    ], ids=["vectors", "strings", "one vector", "two slopes", "four slopes"])
    def test_type_i_builder_takes_three_slopes(self, triple):
        # a triple that is not three Slopes is InvalidParameters, the class
        # TriType raises for a slope that is not a Slope; each case raised
        # AttributeError, ValueError or TypeError before any check
        with pytest.raises(InvalidParameters,
                           match=f"^a triple is three Slopes, got {re.escape(repr(triple))}$"):
            curves.type_i_triangulation(triple)
        if len(triple) == 3:
            with pytest.raises(InvalidParameters, match="takes Slopes"):
                TriType("I", triple, taggings=ALL_PLAIN)

    @pytest.mark.parametrize("items", [
        tuple(curves.kappa(a) for a in base_triangulation().arcs),
        ("arc",) * 6,
        base_triangulation().arcs[:5] + (None,),
    ], ids=["kappa images", "strings", "None"])
    def test_constructor_takes_tagged_arcs_only(self, items):
        # a kappa image carries an arc's key, but it is a curve: refused by
        # its class, as any other item that is not a TaggedArc
        with pytest.raises(ValueError, match="^a triangulation takes TaggedArcs, not "
                                             f"{type(items[-1]).__name__}$"):
            TaggedTriangulation(items)

    def test_arcs_are_built_when_read(self):
        # a triangulation stores its keys only: every read of arcs builds
        # them from the keys, and the constructor keeps the arcs it is given
        t = flip(base_triangulation(), 0)
        for tri in (t, build_type(classify(t)), base_triangulation()):
            assert not hasattr(tri, "_arcs")
            assert tri.arcs == tuple(TaggedArc._of_key(k) for k in tri._keys)
            assert tri.arcs is not tri.arcs
        arcs = base_triangulation().arcs[::-1]
        assert TaggedTriangulation(arcs).arcs == arcs

    def test_internal_paths_build_no_arc(self, monkeypatch):
        # every triangulation built inside the package is assembled from
        # keys: a cold cone index, the type-I builder, the witness search,
        # flip adjacency, the shears against a keyed triangulation and the
        # word method of the command line build no TaggedArc
        from spherelam import fan

        rng = random.Random(7)
        pool = curves.enumerate_curves(3)
        tangle = shear.Tangle(tuple((c, rng.choice((-2, -1, 1, 2))) for c in rng.sample(pool, 4)))
        triple = (Slope(1, 2), Slope(1, 1), INF)
        tags = ((V00, PLAIN), (V01, NOTCHED), (V10, PLAIN), (V11, NOTCHED))
        word_argv = ["shear", "--method", "word", "--curve", json.dumps(
            {"slope": "1/1", "ends": [{"v": "00", "spiral": "ccw"}, {"v": "11", "spiral": "cw"}]})]
        built = Counter()
        real_init, real_of_key = TaggedArc.__init__, curves._ArcOrCurve._of_key.__func__
        monkeypatch.setattr(TaggedArc, "__init__", lambda self, *args: (
            built.update(["__init__"]) or real_init(self, *args)))
        monkeypatch.setattr(TaggedArc, "_of_key", classmethod(lambda cls, *args: (
            built.update(["_of_key"]) or real_of_key(cls, *args))))
        fan._cached_index.cache_clear()
        try:
            cones = fan.cone_index(2).cones
        finally:
            fan._cached_index.cache_clear()
        keyed = curves.type_i_triangulation(triple, tags)
        assert shear.find_witness(tangle, 3) is not None
        assert len(fan.flip_adjacency(next(c for c in cones if c.kind == "IV"))) == 6
        shear.shear_wrt(pool[-1], keyed)
        shear.tangle_shear(tangle, keyed)
        for argv in (word_argv, word_argv + ["--tri", '{"triple": ["0/1", "inf", "-1/1"]}']):
            assert cli.run(argv) == (0, "[0, 1, 0, -1, 0, 0]")
        assert built == Counter()
        assert keyed.arcs == object_oracle.type_i_triangulation(triple, tags).arcs
        assert built == Counter({"_of_key": 12, "__init__": 6})  # the counters are live

class TestMatrices:
    def test_mutation_involution(self):
        B = FIG1_MATRIX
        for k in range(6):
            assert mutate(mutate(B, k), k) == B

    def test_mutation_negates_row_col(self):
        B = FIG1_MATRIX
        M = mutate(B, 0)
        assert M[0] == tuple(-x for x in B[0])
        assert tuple(r[0] for r in M) == tuple(-r[0] for r in B)

    @pytest.mark.parametrize("k", [6, -1, -6, True, False, 1.0, "0", None])
    def test_index_must_be_an_int_in_range(self, k):
        with pytest.raises(DomainError, match=r"mutation index must be in 0\.\.5"):
            mutate(FIG1_MATRIX, k)

    @pytest.mark.parametrize("k", [2, 3, -1])
    def test_index_must_index_the_matrix(self, k):
        # an index in 0..5 outside a smaller matrix is a DomainError too
        with pytest.raises(DomainError, match=r"mutation index must be in 0\.\.1"):
            mutate(((0, 1), (-1, 0)), k)

    @pytest.mark.parametrize("B, rows", [
        (((0, 1, 1), (-1, 0), (-1, 0, 0)), "3 rows of 3, 2, 3"),
        (((0, 1), (-1,)), "2 rows of 2, 1"),
        (((0, 1, 0), (-1, 0, 0)), "2 rows of 3, 3"),
    ], ids=["ragged", "short row k", "2 x 3"])
    def test_matrix_must_be_square(self, B, rows):
        # the top n rows of an (n + m) x n matrix must be square: fewer rows
        # than columns, or rows of other lengths, are a DomainError
        with pytest.raises(DomainError, match="^" + re.escape(
                f"mutation takes an (n + m) x n matrix, its top n x n square, "
                f"not {rows} entries") + "$"):
            mutate(B, 1 if len(B) == 2 else 0)

    def test_extended_matrix(self):
        # coefficient rows below the square part: the top block mutates as
        # alone, a coefficient row by the rule of every row other than k,
        # the index ranges over the columns, and mutation is an involution
        rows = ((1, 0, -2, 0, 3, -1), (0, 0, 0, 0, 0, 0), (-4, 2, 1, 0, 0, 5))
        for k in range(6):
            M = mutate(FIG1_MATRIX + rows, k)
            assert M[:6] == mutate(FIG1_MATRIX, k)
            for row, new in zip(rows, M[6:]):
                b = row[k]
                sign = (b > 0) - (b < 0)
                assert new == tuple(-b if j == k else x + sign * max(b * y, 0)
                                    for j, (x, y) in enumerate(zip(row, FIG1_MATRIX[k])))
            assert mutate(M, k) == FIG1_MATRIX + rows
        assert mutate(((0, 1), (-1, 0), (2, -3)), 0) == ((0, -1), (1, 0), (-2, -1))
        with pytest.raises(DomainError, match=r"^mutation index must be in 0\.\.5$"):
            mutate(FIG1_MATRIX + rows, 6)

    def test_carried_rows_are_shear_coordinates(self):
        # the base shear vectors of the 216 curves of height <= 4, carried
        # as coefficient rows by mutate along seeded tagged walks from the
        # base through all six types: at every type-I state they are the
        # curves' shear coordinates there, and the top block is the signed
        # adjacency at every state (Fomin-Thurston, Mem. AMS 2018, Sec. 13)
        curve_list = curves.enumerate_curves(4)
        base = base_triangulation()
        rows = tuple(shear.shear_wrt(c, base) for c in curve_list)
        assert len(rows) == 216
        kinds, checks = Counter(), 0
        for seed in range(40):
            rng = random.Random(seed)
            t, M = base, FIG1_MATRIX + rows
            for _ in range(50):
                k = rng.randrange(6)
                t, M = flip(t, k), mutate(M, k)
                assert M[:6] == signed_adjacency(t)
                kind = classify(t).tag
                kinds[kind] += 1
                if kind == "I":
                    assert M[6:] == tuple(shear.shear_wrt(c, t) for c in curve_list)
                    checks += 1
        assert set(kinds) == {"I", "II", "III", "IV", "V", "VI"}
        assert checks >= 100

    def test_smaller_matrix(self):
        assert mutate(((0, 1), (-1, 0)), 1) == ((0, -1), (1, 0))
        B = ((0, 2, -1), (-2, 0, 3), (1, -3, 0))
        assert mutate(B, 1) == ((0, -2, 5), (2, 0, -3), (-5, 3, 0))
        assert all(mutate(mutate(B, k), k) == B for k in range(3))

    def test_skew_preserved(self):
        B = FIG1_MATRIX
        for k in range(6):
            M = mutate(B, k)
            assert all(M[i][j] == -M[j][i] for i in range(6) for j in range(6))

    def test_skew_symmetric_everywhere(self):
        for t in enumerate_triangulations(1):
            if not t.all_plain:
                continue
            B = signed_adjacency(t)
            assert all(B[i][j] == -B[j][i] for i in range(6) for j in range(6))

    def test_flip_matches_mutation_sample(self):
        for t in enumerate_triangulations(1):
            if not t.all_plain:
                continue
            B = signed_adjacency(t)
            for k in range(6):
                f = flip(t, k)
                if f.all_plain:
                    assert signed_adjacency(f) == mutate(B, k)


class TestCanonicalAdjacency:
    """signed_adjacency frames the keys (curves._lattice_frame) and reads
    the matrix of the sorted image keys off the table (_TABLE) that a search
    from the base fills as far as the lookups need (_SEARCH); the box
    computation at the original height is the oracle of the all-plain
    matrices."""

    def test_matches_box_up_to_height_three(self):
        rng = random.Random(2)
        tris = [t for t in enumerate_triangulations(3) if t.all_plain]
        assert {classify(t).tag for t in tris} == {"I", "II"}
        for t in tris:
            assert signed_adjacency(t) == box_adjacency(t)
            shuffled = TaggedTriangulation(tuple(rng.sample(t.arcs, 6)))
            assert signed_adjacency(shuffled) == box_adjacency(shuffled)

    def test_matches_box_along_plain_walks(self):
        rng = random.Random(3)
        heights = []
        for _ in range(2):
            for _, _, f in plain_walk(base_triangulation(), 40, rng):
                if f.height > 10:
                    break
                heights.append(f.height)
                assert signed_adjacency(f) == box_adjacency(f)
        assert max(heights) >= 8

    def test_flip_matches_mutation_at_large_height(self):
        rng = random.Random(5)
        for _ in range(3):
            t = type_i_start(rng, 10**6, 10**7, ALL_PLAIN)
            B = signed_adjacency(t)
            for _, k, f in plain_walk(t, 30, rng):
                assert f.height >= 10**5
                B_new = signed_adjacency(f)
                assert B_new == mutate(B, k)
                B = B_new

    def test_memo_is_bounded(self):
        # the all-plain frame images are a fixed set: seeded plain walks
        # from type-I starts up to height 10^6 frame every triangulation,
        # with no tag switched, onto the base or one of the two type-II
        # triangulations of height 1
        rng = random.Random(9)
        seen = set()
        for _ in range(40):
            t = type_i_start(rng, 1, 10**6, ALL_PLAIN)
            for _, _, f in plain_walk(t, 10, rng):
                linear, images = _lattice_frame(f._keys)
                m = lattice.UnimodularMap(linear)
                assert images == [a.image(m)._key for a in f.arcs]
                seen.add(frozenset(images))
        type_ii = [build_type(TriType("II", (Slope(1, 1), MINUS_ONE), v=v, taggings=ALL_PLAIN))
                   for v in (V00, V01)]
        assert seen == {t._key_set for t in (base_triangulation(), *type_ii)}

    def test_key_form_matches_arc_images(self):
        # every all-plain triangulation of height <= 3, then seeded plain
        # walks from heights up to 10^6: the TaggedArc.image of arc i under
        # the frame is the arc of image key i, and the images are the keys
        # of the base or of its flip at slot 2 or 5, all three reached
        rng = random.Random(13)
        tris = [t for t in height_three() if t.all_plain]
        for hi in (10, 10**3, 10**6):
            for _ in range(10):
                t = type_i_start(rng, 1, hi, ALL_PLAIN)
                tris += [t, *(f for _, _, f in plain_walk(t, 10, rng))]
        assert max(t.height for t in tris) >= 10**5
        base = base_triangulation()
        images = {base._key_set: None, flip(base, 2)._key_set: 2, flip(base, 5)._key_set: 5}
        seen = set()
        for t in tris:
            linear, keys = _lattice_frame(t._keys)
            m = lattice.UnimodularMap(linear)
            assert [a.image(m) for a in t.arcs] == [TaggedArc._of_key(k) for k in keys]
            seen.add(images[frozenset(keys)])
        assert seen == {None, 2, 5}

    def test_base_flips_match_mutation(self):
        # the base is framed onto its own keys, each flip of the base onto
        # its flip at slot 2 or 5, and its matrix is FIG1_MATRIX mutated at
        # the flipped arc
        base = base_triangulation()
        assert sorted(_lattice_frame(base._keys)[1]) == sorted(base._keys)
        assert signed_adjacency(base) == FIG1_MATRIX
        targets = [sorted(flip(base, k)._keys) for k in (2, 5)]
        for k in range(6):
            f = flip(base, k)
            assert sorted(_lattice_frame(f._keys)[1]) in targets
            assert signed_adjacency(f) == mutate(FIG1_MATRIX, k)

    def test_table_is_built_by_search(self, monkeypatch):
        # a cold search to the end: 27 entries, one per frame image it
        # meets, of all six types and height <= 2, each with its six flips
        # (162); every entry is skew-symmetric, and each flip of an entry
        # reads the entry's matrix mutated there, so no search edge disagrees
        fresh_table(monkeypatch)
        flips = Counter()
        real_flip = triangulation.flip
        monkeypatch.setattr(triangulation, "flip", lambda t, k: (
            flips.update([k]) or real_flip(t, k)))
        table = full_table()
        monkeypatch.setattr(triangulation, "flip", real_flip)
        assert len(table) == 27 and flips == Counter({k: 27 for k in range(6)})
        kinds = Counter(classify(TaggedTriangulation._of_keys(key)).tag for key in table)
        assert kinds == {"I": 1, "II": 2, "III": 4, "IV": 12, "V": 4, "VI": 4}
        for key, B in table.items():
            assert list(key) == sorted(key) and max(max(a, abs(b)) for a, b, _, _ in key) <= 2
            assert all(B[i][j] == -B[j][i] for i in range(6) for j in range(6))
            t = TaggedTriangulation._of_keys(key)
            assert signed_adjacency(t) == B
            for k in range(6):
                assert signed_adjacency(flip(t, k)) == mutate(B, k)
        base = base_triangulation()
        order = sorted(range(6), key=base._keys.__getitem__)
        assert next(iter(table)) == tuple(sorted(_lattice_frame(base._keys)[1]))
        assert next(iter(table.values())) == tuple(
            tuple(FIG1_MATRIX[i][j] for j in order) for i in order)

    def test_search_runs_as_far_as_the_lookups_need(self, monkeypatch):
        # the all-plain triangulations of height <= 3, types I and II, meet
        # the base image and its two flips only; a type IV runs the search
        # on, and the search ends where it ends from the start
        fresh_table(monkeypatch)
        for t in height_three():
            if t.all_plain:
                signed_adjacency(t)
        assert len(triangulation._TABLE) == 3
        signed_adjacency(next(t for spec, t in _enumerate_typed(1) if spec.tag == "IV"))
        assert 3 < len(triangulation._TABLE) < 27
        assert len(full_table()) == 27

    def test_threads_share_one_search(self, monkeypatch):
        # four threads look up every triangulation of height <= 1 at once,
        # each from its own place, on a fresh table and with a short switch
        # interval: each gets the matrices of a serial run, and the search
        # ends with its 27 entries
        tris = [t for _, t in _enumerate_typed(1)]
        expected = [signed_adjacency(t) for t in tris]
        fresh_table(monkeypatch)
        results = []

        def work(n):
            try:
                results.append([signed_adjacency(t) for t in tris[n:] + tris[:n]]
                               == expected[n:] + expected[:n])
            except Exception as error:  # a thread's error, reported below
                results.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(7 * n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [True] * 4
        assert len(triangulation._TABLE) == 27

    def test_disagreeing_edge_is_internal(self, monkeypatch):
        # a search edge whose carried matrix differs from the entry already
        # stored is a bug: a mutation that skips index 0 is caught
        fresh_table(monkeypatch)
        real_mutate = triangulation.mutate
        monkeypatch.setattr(triangulation, "mutate",
                            lambda B, k: B if k == 0 else real_mutate(B, k))
        with pytest.raises(InternalError, match="two exchange matrices"):
            full_table()

    def test_every_frame_image_is_in_the_table(self):
        # every triangulation of height <= 4, of all six types in any
        # tagging, in arc order and shuffled: its sorted frame image is a
        # table entry, and its matrix is that entry's in its arc order
        rng = random.Random(21)
        table = full_table()
        tris = list(enumerate_triangulations(4))
        assert len(tris) == 3216
        assert {classify(t).tag for t in tris} == {"I", "II", "III", "IV", "V", "VI"}
        for t in tris:
            keys = rng.sample(t._keys, 6)
            images = _lattice_frame(keys)[1]
            B = table[tuple(sorted(images))]
            at = [sorted(images).index(x) for x in images]
            assert signed_adjacency(TaggedTriangulation._of_keys(tuple(keys))) == tuple(
                tuple(B[at[i]][at[j]] for j in range(6)) for i in range(6))

    @pytest.mark.parametrize("slopes", [
        [ZERO, ZERO, Slope(1, 2), Slope(1, -2), Slope(3, 2), Slope(3, -2)],
        [ZERO, ZERO, Slope(1, 2), Slope(1, 2), Slope(3, 2), Slope(1, -2)],
    ], ids=["one two-arc slope", "two-arc slopes at distance 2"])
    def test_canonical_pair_rejects_a_bad_slope_count(self, slopes):
        # the lattice frame needs a Farey-1 pair of slopes: six slopes of
        # one parity have none
        with pytest.raises(InternalError, match="no Farey-1 pair"):
            _lattice_frame([(s.a, s.b, 0, 0) for s in slopes])

    def test_lookup_miss_is_internal(self, monkeypatch):
        # a frame image missing from the table is a bug: InternalError, and
        # badj exits 3 with an internal error document
        t = flip(base_triangulation(), 0)
        missing = tuple(sorted(_lattice_frame(t._keys)[1]))
        rest = {k: B for k, B in full_table().items() if k != missing}
        assert len(rest) == 26
        monkeypatch.setattr(triangulation, "_TABLE", rest)
        monkeypatch.setattr(triangulation, "_SEARCH", iter(()))  # a search that has ended
        with pytest.raises(InternalError, match="not in the adjacency table"):
            signed_adjacency(t)
        code, out = cli.run(["badj", "--tri", json.dumps(t.to_json())])
        assert code == 3 and json.loads(out)["kind"] == "internal", out
        assert signed_adjacency(base_triangulation()) == FIG1_MATRIX  # no base entry missing


class TestTaggedAdjacency:
    """signed_adjacency serves all six types in any tagging: switching every
    tag at one puncture does not change the matrix (Fomin-Shapiro-Thurston,
    Acta Math. 2008, Sec. 9), and the two arcs of a coinciding pair share
    their rows."""

    def test_matches_mutation_along_tagged_walks(self):
        # 60 seeded walks of 60 random flips from the base, carrying B by
        # mutate: at every state, of every type, the matrix is the carried one
        rng = random.Random(32)
        kinds, tagged = Counter(), 0
        for _ in range(60):
            t = base_triangulation()
            B = signed_adjacency(t)
            for _ in range(60):
                k = rng.randrange(6)
                t, B = flip(t, k), mutate(B, k)
                kinds[classify(t).tag] += 1
                assert signed_adjacency(t) == B
                tagged += not t.all_plain
        assert kinds["I"] > 200 and kinds["II"] > 600
        assert tagged > 2000
        assert set(kinds) == {"I", "II", "III", "IV", "V", "VI"}

    def test_deep_tagged_walks(self):
        # seeded tagged walks from starts of height 10^3 to 10^6: every
        # state is found in the table, and its matrix is the one mutate
        # carries from the start
        kinds, heights = Counter(), []
        for seed in (51, 52):
            last, starts = None, 0
            for t, k, f in deep_tagged_walks(seed):
                if t is not last:  # each decade's walk starts afresh
                    B = signed_adjacency(t)
                    starts += 1
                B, last = mutate(B, k), f
                assert signed_adjacency(f) == B
                kinds[classify(f).tag] += 1
                heights.append(f.height)
            assert starts == 3
        assert set(kinds) == {"I", "II", "III", "IV", "V", "VI"}
        assert max(heights) >= 10**5

    def test_coinciding_pairs_share_their_rows(self):
        # on every type III-VI triangulation of height <= 2, the two arcs of
        # each coinciding pair have equal rows and entry 0 between them
        pairs = Counter()
        for spec, t in _enumerate_typed(2):
            B = signed_adjacency(t)
            for i, j in itertools.combinations(range(6), 2):
                if t._keys[i][:3] == t._keys[j][:3]:
                    pairs[spec.tag] += 1
                    assert B[i] == B[j] and B[i][j] == 0
        assert pairs == {"III": 160, "IV": 320, "V": 160, "VI": 144}

    def test_types_three_to_six_are_served(self):
        # every type III-VI triangulation of height <= 2: a skew-symmetric
        # matrix that each flip mutates, and badj prints it (exit 0)
        kinds = Counter()
        for spec, t in _enumerate_typed(2):
            if spec.tag in ("I", "II"):
                continue
            kinds[spec.tag] += 1
            B = signed_adjacency(t)
            assert all(B[i][j] == -B[j][i] for i in range(6) for j in range(6))
            for k in range(6):
                assert signed_adjacency(flip(t, k)) == mutate(B, k)
        assert kinds == {"III": 80, "IV": 320, "V": 80, "VI": 48}
        assert spec.tag == "VI"
        code, out = cli.run(["badj", "--tri", json.dumps(t.to_json())])
        assert code == 0 and json.loads(out) == [list(row) for row in signed_adjacency(t)], out


class TestJson:
    def test_round_trip(self):
        t0 = base_triangulation()
        assert TaggedTriangulation.from_json(t0.to_json()) == t0
