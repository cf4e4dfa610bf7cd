import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import compat_oracle
from box_oracle import box_adjacency
from spherelam import triangulation
from spherelam.curves import (
    V00, V01, V10, V11,
    Puncture,
    TaggedArc,
    Tagging,
    endpoint_sets,
)
from spherelam.errors import InternalError, InvalidParameters, NotAllPlain
from spherelam.lattice import (
    INF, MINUS_ONE, ZERO, Slope, enumerate_slopes, farey1_triples, farey_distance,
    mediant, pair_to_basis, standard_form,
)
from spherelam.triangulation import (
    FIG1_MATRIX,
    TaggedTriangulation,
    TriType,
    base_triangulation,
    build_type,
    classify,
    enumerate_triangulations,
    f2_companions,
    flip,
    mutate,
    signed_adjacency,
    _CANONICAL_ADJACENCY,
    _canonical_form,
    _enumerate_typed,
    _farey2_pairs,
    _flip_slopes,
)

PLAIN, NOTCHED = Tagging.PLAIN, Tagging.NOTCHED
ALL_PLAIN = tuple((p, PLAIN) for p in (V00, V01, V10, V11))


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
    m = pair_to_basis(s, t)
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
        f1, f2 = (ZERO, INF, MINUS_ONE), (Slope(1, 1), Slope(1, -1))
        vu = ((V00, PLAIN), (V11, PLAIN))
        # one spec per rejection rule of build_type, in the order it checks them
        specs = [
            TriType("VII", f2, v=V00, taggings=vu),
            TriType("I", (ZERO, INF, Slope(2, 1)), taggings=ALL_PLAIN),
            TriType("II", (ZERO, INF), v=V00, taggings=ALL_PLAIN),
            TriType("VI", f1, taggings=((V00, PLAIN),)),
            TriType("V", f2, taggings=vu),
            # v must be the smaller endpoint mod 2
            TriType("II", f2, v=V11, taggings=ALL_PLAIN),
            TriType("III", f2, v=V11, v_prime=V01, taggings=vu),
            TriType("III", f2, v=V00, taggings=vu),
            TriType("III", f2, v=V00, v_prime=V11, taggings=vu),
            TriType("IV", f2, v=V00, taggings=vu),
            TriType("IV", f2, v=V00, v_prime=V11, taggings=vu),
            # tags outside the free punctures of the type, or missing there
            TriType("I", f1, taggings=ALL_PLAIN[:3]),
            TriType("II", f2, v=V00, taggings=vu),
            TriType("III", f2, v=V00, v_prime=V01, taggings=ALL_PLAIN),
            TriType("IV", f2, v=V00, v_prime=V01, taggings=vu),
            TriType("V", f2, v=V00, taggings=ALL_PLAIN),
            TriType("VI", f1, v=V00, taggings=((V01, PLAIN),)),
        ]
        for spec in specs:
            with pytest.raises(InvalidParameters):
                build_type(spec)

    def test_companions(self):
        r, s = f2_companions(Slope(1, 1), Slope(1, -1))
        assert {r, s} == {ZERO, INF}
        r, s = f2_companions(Slope(1, 3), Slope(1, 1))
        assert {r, s} == {Slope(1, 2), INF}


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
                assert flip(f, f.arcs.index(next(iter(f.arc_set - t.arc_set)))) == t

    def test_matches_sweep_oracle(self):
        for t in enumerate_triangulations(2):
            for k in range(6):
                rest = t.arcs[:k] + t.arcs[k + 1:]
                assert len(_flip_slopes(rest)) <= 12
                assert flip(t, k).arcs == sweep_flip(t, k).arcs

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

    def test_type_v_neighbors(self):
        spec = TriType("V", (Slope(1, 1), Slope(1, -1)), v=V00,
                       taggings=((V00, PLAIN), (V11, PLAIN)))
        t = build_type(spec)
        kinds = Counter(classify(flip(t, k)).tag for k in range(6))
        assert dict(kinds) == {"IV": 4, "VI": 2}


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

    def test_not_all_plain_rejected(self):
        t = build_type(
            TriType("VI", (ZERO, INF, MINUS_ONE), v=V00, taggings=((V00, PLAIN),))
        )
        with pytest.raises(NotAllPlain):
            signed_adjacency(t)

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
    """signed_adjacency reads a height-1 representative from a memo filled
    by mutation from the base; the box computation at the original height
    is the oracle."""

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
        rng = random.Random(9)
        for _ in range(40):
            t = type_i_start(rng, 1, 10**6, ALL_PLAIN)
            for _, _, f in plain_walk(t, 10, rng):
                signed_adjacency(f)
        type_ii = [build_type(TriType("II", (Slope(1, 1), MINUS_ONE), v=v, taggings=ALL_PLAIN))
                   for v in (V00, V01)]
        assert {frozenset(key) for key in _CANONICAL_ADJACENCY} == {
            base_triangulation().arc_set, *(t.arc_set for t in type_ii)}

    def test_fill_rejects_disagreeing_flip_matrix(self, monkeypatch):
        def wrong_at_2(B, k):
            M = mutate(B, k)
            return tuple(tuple(-x for x in row) for row in M) if k == 2 else M

        monkeypatch.setattr(triangulation, "mutate", wrong_at_2)
        monkeypatch.setattr(triangulation, "_CANONICAL_ADJACENCY", {})
        with pytest.raises(InternalError):
            signed_adjacency(base_triangulation())
        assert not triangulation._CANONICAL_ADJACENCY  # nothing half filled

    def test_lookup_miss_is_internal(self, monkeypatch):
        signed_adjacency(base_triangulation())
        t = flip(base_triangulation(), 0)
        canon, _ = _canonical_form(t)
        rest = {k: B for k, B in _CANONICAL_ADJACENCY.items() if k != canon}
        assert len(rest) == 2
        monkeypatch.setattr(triangulation, "_CANONICAL_ADJACENCY", rest)
        with pytest.raises(InternalError):
            signed_adjacency(t)


class TestJson:
    def test_round_trip(self):
        t0 = base_triangulation()
        assert TaggedTriangulation.from_json(t0.to_json()) == t0
