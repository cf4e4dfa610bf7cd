import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import torus_oracle
from object_oracle import triple_to_basis
from spherelam import cli
from spherelam.curves import (
    V00, V01, V10, V11,
    PUNCTURES,
    AllowableCurve,
    SpiralDir,
    TaggedTriangulation,
    Tagging,
    base_triangulation,
    endpoint_sets,
    enumerate_curves,
    kappa,
    tag_choices,
    type_i_triangulation,
)
from spherelam.errors import BoundExhausted, DomainError, InternalError, UnsupportedBaseCase
from spherelam.lattice import INF, MAX_HEIGHT, MINUS_ONE, ZERO, Slope, enumerate_slopes, \
    farey1_triples
from spherelam.selftest import LAMBDA, LAMBDA_C, LAMBDA_PP, SHEAR_FIXTURES
from spherelam.shear import (
    BASE_TRIPLE,
    FLIPS,
    GAMMA24,
    GROUP_Y,
    GROUP_Z,
    PERM_14,
    PERM_25,
    PERM_36,
    PERM_X,
    PERM_Z,
    PERM_Z2,
    RHO,
    RHO2,
    QuasiLamination,
    Tangle,
    _cached_spiral_lift,
    apply_perm,
    compose,
    find_witness,
    format_word,
    parse_word,
    shear_closed_form,
    shear_lamination,
    shear_oracle,
    shear_via_word,
    shear_wrt,
    sphere_torus_check,
    tangle_shear,
    torus_shear,
    validate_word,
    word_of_curve,
    word_prime,
)

CW, CCW = SpiralDir.CW, SpiralDir.CCW


def curve(a, b, e0, d0, e1, d1):
    return AllowableCurve(Slope(a, b), ((e0, d0), (e1, d1)))


class TestWords:
    def test_word_prime_2_3(self):
        assert format_word(word_prime(2, 3)) == "t4 r5 t1"

    def test_word_prime_1_1_empty(self):
        assert word_prime(1, 1) == ()

    def test_word_prime_3_2(self):
        # crossing order of the segment (0,0)->(3,2): x=1, y=1, x=2
        assert format_word(word_prime(3, 2)) == "r5 t4 r2"

    def test_word_prime_matches_fraction_order(self):
        # events ordered by their crossing parameter as a Fraction, r first
        # on ties, for coprime and non-coprime pairs alike
        for a in range(1, 41):
            for b in range(1, 41):
                events = [(Fraction(k, a), ("r", 2 if k % 2 == 0 else 5)) for k in range(1, a)]
                events += [(Fraction(k, b), ("t", 1 if k % 2 == 0 else 4)) for k in range(1, b)]
                events.sort(key=lambda e: e[0])
                assert word_prime(a, b) == tuple(letter for _, letter in events), (a, b)

    def test_word_prime_plain_sort_matches_keyed_sort(self):
        # the keyed sort word_prime used before its plain tuple sort: stable
        # on the key alone, r events first
        for a in range(1, 61):
            for b in range(1, 61):
                if math.gcd(a, b) != 1:
                    continue
                events = [(k * b, ("r", 2 if k % 2 == 0 else 5)) for k in range(1, a)]
                events += [(k * a, ("t", 1 if k % 2 == 0 else 4)) for k in range(1, b)]
                events.sort(key=lambda e: e[0])
                assert word_prime(a, b) == tuple(letter for _, letter in events), (a, b)

    def test_open_word(self):
        assert format_word(word_of_curve(LAMBDA)) == "t1 r2 t4 r5 t1 r2"

    def test_closed_word(self):
        assert format_word(word_of_curve(LAMBDA_C)) == "t1 t4 r5 t1 r2 t4 t1 r5 t4 r2 t1"

    def test_mixed_suffix_word(self):
        w = word_of_curve(curve(2, 3, V00, CCW, V01, CW))
        assert format_word(w) == "t1 r2 t4 r5 t1 t4"

    def test_base_case_required(self):
        with pytest.raises(UnsupportedBaseCase):
            word_of_curve(curve(2, 3, V00, CW, V01, CCW))
        with pytest.raises(UnsupportedBaseCase):
            word_of_curve(LAMBDA_PP)  # negative slope
        with pytest.raises(UnsupportedBaseCase):
            word_of_curve(AllowableCurve(INF))

    def test_words_validate(self):
        for a, b in ((1, 1), (2, 3), (3, 2), (5, 4), (1, 7)):
            for ends in (None, (CCW, CCW), (CCW, CW)):
                if ends is None:
                    c = AllowableCurve(Slope(a, b))
                else:
                    far = V00.translate(Slope(a, b).parity)
                    c = curve(a, b, V00, ends[0], far, ends[1])
                validate_word(word_of_curve(c))

    def test_letter_counts_ccw_ccw(self):
        # both-counterclockwise base words have b-1 non-leading t's and
        # a+1 non-leading r's
        for a, b in ((2, 3), (3, 2), (4, 7), (5, 1)):
            far = V00.translate(Slope(a, b).parity)
            w = word_of_curve(curve(a, b, V00, CCW, far, CCW))
            ts = sum(1 for kind, _ in w[1:] if kind == "t")
            rs = sum(1 for kind, _ in w[1:] if kind == "r")
            assert (ts, rs) == (b - 1, a + 1)

    def test_parse_format_roundtrip(self):
        w = word_of_curve(LAMBDA_C)
        assert parse_word(format_word(w)) == w


class TestShearFixtures:
    @pytest.mark.parametrize("c,expected", SHEAR_FIXTURES)
    def test_closed_form(self, c, expected):
        assert shear_closed_form(c) == expected

    @pytest.mark.parametrize("c,expected", SHEAR_FIXTURES)
    def test_oracle(self, c, expected):
        assert shear_oracle(c) == expected

    def test_word_path(self):
        assert shear_via_word(LAMBDA) == (-1, 2, 0, -1, 1, 0)
        assert shear_via_word(LAMBDA_C) == (-3, 2, 1, -3, 2, 1)

    def test_closed_slope_one(self):
        assert shear_closed_form(AllowableCurve(Slope(1, 1))) == (-1, 1, 0, -1, 1, 0)

    def test_closed_vertical(self):
        assert shear_closed_form(AllowableCurve(INF)) == (-1, 0, 1, -1, 0, 1)

    def test_mixed_suffix_value(self):
        assert shear_closed_form(curve(2, 3, V00, CCW, V01, CW)) == (-1, 1, 1, -2, 1, 0)

    def test_base_arcs_give_negative_units(self):
        # the kappa image of each base-triangulation arc has shear -e_i
        from spherelam.curves import kappa

        for i, arc in enumerate(base_triangulation().arcs):
            expected = tuple(-1 if j == i else 0 for j in range(6))
            assert shear_closed_form(kappa(arc)) == expected


class TestPermutations:
    def test_paper_25_example(self):
        assert apply_perm(PERM_25, (-1, 2, 0, -1, 1, 0)) == (-1, 1, 0, -1, 2, 0)

    def test_paper_rotation_example(self):
        assert apply_perm(PERM_Z2, (-1, 2, 0, -1, 1, 0)) == (2, 0, -1, 1, 0, -1)

    def test_identity(self):
        v = (1, 2, 3, 4, 5, 6)
        assert apply_perm((0, 1, 2, 3, 4, 5), v) == v

    def test_group_sizes(self):
        assert len(GAMMA24) == 24
        assert len(GROUP_Y) == 4
        assert len(GROUP_Z) == 3

    def test_gamma24_is_the_group_of_its_generators(self):
        assert {PERM_14, PERM_25, PERM_36, PERM_Z} <= GAMMA24
        assert {compose(p, q) for p in GAMMA24 for q in GAMMA24} == GAMMA24
        assert len(GAMMA24) == 24

    def test_flips_keep_each_slot_pair(self):
        keep = {p for p in GAMMA24
                if all({p[i], p[i + 3]} == {i, i + 3} for i in range(3))}
        assert FLIPS == keep
        assert len(FLIPS) == 8

    def test_z_order_three(self):
        assert compose(PERM_Z, PERM_Z2) == (0, 1, 2, 3, 4, 5)

    def test_compose_is_apply_after_apply(self):
        v = (1, 2, 3, 4, 5, 6)
        for p in GAMMA24:
            for q in (PERM_X, PERM_Z, PERM_25):
                assert apply_perm(compose(p, q), v) == apply_perm(p, apply_perm(q, v))


class TestAgreement:
    def test_three_paths_small(self):
        for c in enumerate_curves(5):
            f = shear_closed_form(c)
            assert shear_oracle(c) == f
            try:
                assert shear_via_word(c) == f
            except UnsupportedBaseCase:
                pass

    def test_closed_form_cache_is_bounded(self):
        from spherelam import shear

        shear._cached_closed_form.cache_clear()
        curves = enumerate_curves(22)
        assert len(curves) > 4096
        for c in curves:
            assert shear_closed_form(c) == shear._closed_form(c), c
        info = shear._cached_closed_form.cache_info()
        assert info.currsize == info.maxsize == 4096

    def test_oracle_lift_memo_is_bounded(self):
        from spherelam import shear

        shear._cached_spiral_lift.cache_clear()
        curves = enumerate_curves(22)
        assert len({c._key[:3] for c in curves if not c.is_closed}) > 1024
        for c in curves:
            assert shear_oracle(c) == shear_closed_form(c), c
        info = shear._cached_spiral_lift.cache_info()
        assert info.currsize == info.maxsize == 1024

    def test_oracle_lifts_each_segment_once(self, monkeypatch):
        # the four spiraling curves of a slope and endpoint pair share one
        # lift of their segment; each closed curve is its own lift
        from spherelam import plane, shear

        calls = Counter()
        segment_crossings = plane.segment_crossings

        def counted(*args, **kwargs):
            calls["segment_crossings"] += 1
            return segment_crossings(*args, **kwargs)

        monkeypatch.setattr(plane, "segment_crossings", counted)
        shear._cached_spiral_lift.cache_clear()
        curves = list(enumerate_curves(12))
        random.Random(46).shuffle(curves)
        for c in curves:
            assert shear_oracle(c) == shear_closed_form(c), c
        closed = sum(c.is_closed for c in curves)
        assert (closed, len(curves) - closed) == (184, 1472)
        assert calls["segment_crossings"] == 184 + 368 == 552

    def test_degenerate_slopes_exhaustive(self):
        # every curve on the three arc-parallel slopes, against the oracle
        from spherelam.curves import endpoint_sets

        for s in (ZERO, INF, MINUS_ONE):
            assert shear_oracle(AllowableCurve(s)) == shear_closed_form(AllowableCurve(s))
            for pair in endpoint_sets(s):
                for d0 in (CW, CCW):
                    for d1 in (CW, CCW):
                        c = AllowableCurve(s, ((pair[0], d0), (pair[1], d1)))
                        assert shear_oracle(c) == shear_closed_form(c), c

    def test_rotation_permutes_oracle_coordinates(self):
        # the rotation table of the closed forms, against the geometric
        # path, which knows nothing of rotations or permutations
        for c in enumerate_curves(4):
            v = shear_oracle(c)
            assert shear_oracle(c.image(RHO)) == apply_perm(PERM_Z, v), c
            assert shear_oracle(c.image(RHO2)) == apply_perm(PERM_Z2, v), c

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 400), st.integers(-400, 400))
    def test_oracle_at_larger_heights(self, a, b):
        # the closed curve and all four spiral pairs on each endpoint set
        if a == 0:
            b = 1
        assume(math.gcd(a, b) == 1)
        s = Slope(a, b)
        curves = [AllowableCurve(s)] + [
            AllowableCurve(s, ((p, d0), (q, d1)))
            for p, q in endpoint_sets(s) for d0 in (CW, CCW) for d1 in (CW, CCW)
        ]
        for c in curves:
            f = shear_closed_form(c)
            # the segment lifted afresh, then read from the memo
            _cached_spiral_lift.cache_clear()
            assert shear_oracle(c) == f, c
            assert shear_oracle(c) == f, c
            try:
                assert shear_via_word(c) == f, c
            except UnsupportedBaseCase:
                pass

    def test_oracle_at_heights_100_to_1000(self):
        # a fixed seeded set of six slopes: the closed curve and all four
        # spiral pairs on one endpoint set of each, the two sets in turn
        rng = random.Random(2016)
        slopes = []
        while len(slopes) < 6:
            h = rng.randint(100, 1000)
            a = rng.randint(0, h)
            b = rng.choice((1, -1)) * (h - a)
            if a and math.gcd(a, b) == 1:
                slopes.append(Slope(a, b))
        for i, s in enumerate(slopes):
            p, q = endpoint_sets(s)[i % 2]
            for c in [AllowableCurve(s)] + [AllowableCurve(s, ((p, d0), (q, d1)))
                                            for d0 in (CW, CCW) for d1 in (CW, CCW)]:
                assert shear_oracle(c) == shear_closed_form(c), c

    def test_oracle_far_end_off_the_lift(self):
        # slope 1/1 joins v00 to v11 or v01 to v10; a key with the ends v00
        # and v01 puts the far end off the tip of the lift
        c = AllowableCurve._of_key((1, 1, 0b0011, 0b0001))
        # the memo keeps the failed check, and each call raises it again
        for _ in range(2):
            with pytest.raises(InternalError, match="the lift of 1/1 from v00 ends off v01"):
                shear_oracle(c)

    def test_oracle_at_its_cli_cap(self):
        h = cli.SHEAR_MAX_HEIGHT["oracle"]
        doc = json.dumps({"slope": f"{h}/{h - 3}", "ends": [{"v": "00", "spiral": "ccw"},
                                                            {"v": "10", "spiral": "cw"}]})
        code, out = cli.run(["shear", "--curve", doc, "--method", "oracle"])
        assert code == 0, out
        c = AllowableCurve(Slope(h - 3, h), ((V00, CCW), (V10, CW)))
        assert tuple(json.loads(out)) == shear_closed_form(c)

    def test_diagonal_bound(self):
        # base-case words: |x3 - x6| <= 1
        for c in enumerate_curves(8):
            try:
                v = shear_via_word(c)
            except UnsupportedBaseCase:
                continue
            if not c.is_closed:
                assert abs(v[2] - v[5]) <= 1


# The basis change of shear_wrt before its coordinates followed the arcs,
# kept as the oracle: slots i and i + 3 hold the two arcs of triple[i], the
# one through v00 first, read through the map of the ordered triple.
_FAMILY_OF_SLOPE = {ZERO: 0, INF: 1, MINUS_ONE: 2}


def slot_shear(c, triple, taggings):
    for p, tag in taggings:
        if tag is Tagging.NOTCHED:
            c = c.reverse_spiral(p)
    m = triple_to_basis(triple)
    families = [_FAMILY_OF_SLOPE[m.apply_slope(q)] for q in triple]
    v = shear_closed_form(c.image(m))
    return tuple(v[f] for f in families) + tuple(v[f + 3] for f in families)


class TestShearWrt:
    def test_identity_triangulation(self):
        base = base_triangulation()
        for c in enumerate_curves(4):
            assert shear_wrt(c, base) == shear_closed_form(c)

    def test_matches_the_slot_oracle(self):
        # every Farey-1 triple of height <= 3 in every order, the 16
        # taggings taken in turn, and all 16 on the base triple
        taggings = tag_choices(PUNCTURES)
        triples = farey1_triples(enumerate_slopes(3))
        assert len(triples) == 14
        cases = [(order, taggings[n % 16]) for n, order in enumerate(
            order for triple in triples for order in itertools.permutations(triple))]
        low, high = enumerate_curves(3), enumerate_curves(4)
        for (triple, tags), curves in [(case, low) for case in cases] + \
                [((BASE_TRIPLE, tags), high) for tags in taggings]:
            tri = type_i_triangulation(triple, tags)
            for c in curves:
                assert shear_wrt(c, tri) == slot_shear(c, triple, tags), (c, triple, tags)

    def test_coordinates_follow_the_arcs(self):
        # reordering the arcs reorders the coordinates in step
        tri = type_i_triangulation((Slope(1, 2), Slope(1, 1), INF),
                                   tuple(zip(PUNCTURES, (Tagging.NOTCHED, *[Tagging.PLAIN] * 3))))
        order = (4, 0, 5, 2, 1, 3)
        moved = TaggedTriangulation(tuple(tri.arcs[i] for i in order))
        for c in enumerate_curves(3):
            v = shear_wrt(c, tri)
            assert shear_wrt(c, moved) == tuple(v[i] for i in order)

    def test_other_types_are_domain_errors(self):
        from spherelam.triangulation import flip

        for k in range(6):
            with pytest.raises(DomainError, match="not type I"):
                shear_wrt(LAMBDA, flip(base_triangulation(), k))

    def test_type_i_frame_is_shared_by_the_taggings(self, monkeypatch):
        # the 16 taggings of a triple share the map and the slots, and the
        # frame's mask holds the notched punctures; other types fail first
        # with the "not type I" DomainError.  The frame builds no Slope and
        # never the exchange-matrix table.
        from spherelam import triangulation
        from spherelam.shear import _type_i_frame
        from test_triangulation import fresh_table

        triple = (Slope(1, 2), Slope(1, 1), INF)
        tris = [type_i_triangulation(triple, tags) for tags in tag_choices(PUNCTURES)]
        other = triangulation.flip(base_triangulation(), 0)
        built = []
        real = Slope.__init__
        monkeypatch.setattr(Slope, "__init__", lambda *args: built.append(1) or real(*args))
        fresh_table(monkeypatch)
        m, slots, notched = _type_i_frame(tris[0])
        assert notched == 0 and sorted(slots) == list(range(6))
        for tags, tri in zip(tag_choices(PUNCTURES), tris):
            mask = sum(1 << 2 * p.i + p.j for p, t in tags if t is Tagging.NOTCHED)
            assert _type_i_frame(tri) == (m, slots, mask)
        with pytest.raises(DomainError, match="not type I"):
            _type_i_frame(other)
        assert built == [] and triangulation._TABLE == {}

    def test_all_notched(self):
        notched = type_i_triangulation(BASE_TRIPLE,
                                       tuple((p, Tagging.NOTCHED) for p in PUNCTURES))
        assert shear_wrt(LAMBDA, notched) == (-2, 0, 1, -2, 1, 1)

    def test_closed_curves_ignore_tags(self):
        tris = [type_i_triangulation(BASE_TRIPLE, tags) for tags in tag_choices(PUNCTURES)]
        for s in enumerate_slopes(3):
            base = shear_wrt(AllowableCurve(s), tris[0])
            assert all(shear_wrt(AllowableCurve(s), t) == base for t in tris)

    def test_basis_change_round_trip(self):
        # shear with respect to a nontrivial triple, read back through the
        # inverse basis change, matches the base computation
        tri = type_i_triangulation((Slope(2, 1), Slope(3, 2), Slope(1, 1)))
        for c in enumerate_curves(3):
            v = shear_wrt(c, tri)
            assert len(v) == 6

    def test_injectivity_wrt_other_triangulation(self):
        tri = type_i_triangulation((Slope(1, 2), Slope(1, 1), INF))
        seen = {}
        for c in enumerate_curves(4):
            v = shear_wrt(c, tri)
            assert v not in seen, (c, seen[v])
            seen[v] = c

    def test_own_arcs_give_negative_units(self):
        # with respect to any type-I triangulation, the kappa image of its
        # arc i has coordinates -e_i: the notched ends of the arc spiral
        # counterclockwise, and the tags of the triangulation reverse them
        pool = enumerate_slopes(3)
        triples = farey1_triples(pool)[::3]
        taggings = tag_choices(PUNCTURES)
        for n, triple in enumerate(triples + [tuple(reversed(triples[0]))]):
            tri = type_i_triangulation(triple, taggings[5 * n % 16])
            for i, arc in enumerate(tri.arcs):
                assert arc.slope == triple[i % 3]
                assert shear_wrt(kappa(arc), tri) == tuple(-(j == i) for j in range(6))

    def test_swapped_triple_order(self):
        # reordering the triple permutes the reported coordinates in step
        swapped = type_i_triangulation((INF, ZERO, MINUS_ONE))
        for c in enumerate_curves(3):
            base = shear_wrt(c, base_triangulation())
            v = shear_wrt(c, swapped)
            assert v == (base[1], base[0], base[2], base[4], base[3], base[5])


class TestLaminationsAndTangles:
    def test_empty_tangle(self):
        assert tangle_shear(Tangle(())) == (0, 0, 0, 0, 0, 0)
        assert Tangle(()).is_trivial

    def test_scaling(self):
        t = Tangle(((LAMBDA_C, 2),))
        assert tangle_shear(t) == (-6, 4, 2, -6, 4, 2)

    def test_linearity(self):
        other = AllowableCurve(Slope(2, 3), ((V00, CCW), (V01, CCW)))
        t = Tangle(((LAMBDA_C, 1), (other, 1)))
        lhs = tangle_shear(t)
        rhs = tuple(
            a + b for a, b in zip(shear_closed_form(LAMBDA_C), shear_closed_form(other))
        )
        assert lhs == rhs

    def test_one_lattice_frame_per_call(self, monkeypatch):
        # tangle_shear builds the frame of its triangulation once, whatever
        # the number of curves; find_witness builds one plain triangulation
        # and its frame per triple it tries, reads the 16 taggings of the
        # triple as notched masks, and builds one more triangulation, the
        # witness it returns, each from its keys
        from spherelam import curves, shear

        frames, tried, built = [], [], []
        real_frame, real_build = shear._lattice_frame, shear.type_i_triangulation
        real_of_keys = curves.TaggedTriangulation._of_keys.__func__
        monkeypatch.setattr(shear, "_lattice_frame",
                            lambda keys: frames.append(1) or real_frame(keys))
        monkeypatch.setattr(shear, "type_i_triangulation",
                            lambda *a: tried.append(1) or real_build(*a))
        monkeypatch.setattr(curves.TaggedTriangulation, "_of_keys", classmethod(
            lambda cls, *a: built.append(1) or real_of_keys(cls, *a)))
        tri = type_i_triangulation((Slope(1, 2), Slope(1, 1), INF))
        pool = enumerate_curves(3)
        for n in (0, 1, 4, 30):
            frames.clear()
            tangle_shear(Tangle(tuple((c, 1) for c in pool[:n])), tri)
            assert len(frames) == 1
        # the antipodal closed pair reads zero on all 16 taggings of the base
        antipodal = Tangle(((AllowableCurve(INF), 1), (AllowableCurve(Slope(2, -1)), 1)))
        for tangle, least in ((Tangle(((LAMBDA, 1), (LAMBDA_C, -1))), 1), (antipodal, 2)):
            frames.clear()
            tried.clear()
            built.clear()
            assert find_witness(tangle, 3) is not None
            assert len(frames) >= least  # the triples tried
            assert len(built) == len(tried) == len(frames) + 1
        frames.clear()
        shear_wrt(LAMBDA, tri)
        assert len(frames) == 1

    def test_merge_order(self):
        # equal curves merge; order by slope vector, closed curve first
        other = curve(1, 1, V00, CW, V11, CW)
        t = Tangle(((LAMBDA, 1), (other, 1), (LAMBDA_C, 1), (LAMBDA, 2)))
        assert t.weights == ((other, 1), (LAMBDA_C, 1), (LAMBDA, 3))
        lam = QuasiLamination(((LAMBDA, 1), (LAMBDA_C, 2)))
        assert lam.weights == ((LAMBDA_C, 2), (LAMBDA, 1))

    def test_merge_to_zero(self):
        t = Tangle(((LAMBDA, 1), (LAMBDA, -1)))
        assert t.is_trivial

    def test_lamination_validates(self):
        with pytest.raises(ValueError):
            QuasiLamination(((LAMBDA_C, 0),))
        with pytest.raises(ValueError):
            QuasiLamination(
                ((AllowableCurve(Slope(1, 1)), 1), (AllowableCurve(Slope(2, 3)), 1))
            )
        lam = QuasiLamination(((LAMBDA_C, 2), (LAMBDA, 1)))
        assert shear_lamination(lam) == tuple(
            2 * a + b
            for a, b in zip(shear_closed_form(LAMBDA_C), shear_closed_form(LAMBDA))
        )


class TestTorus:
    def test_fixture_2_3(self):
        assert torus_shear(Slope(2, 3)) == (-3, 2, 1)

    def test_fixture_slope_0(self):
        assert torus_shear(Slope(1, 0)) == (0, 1, -1)

    def test_nonnegative_literal_form(self):
        for s in enumerate_slopes(8):
            if s.b >= 0:
                a, b = s.vector
                assert torus_shear(s) == (-b, a, b - a)

    def test_closed_form_matches_the_word_oracle(self):
        # the three pieces against the crossing word of one period, rotated
        # for negative slopes, on every slope of height <= 40
        slopes = enumerate_slopes(40)
        assert len(slopes) == 1960
        for s in slopes:
            assert torus_shear(s) == torus_oracle.torus_shear(s), s

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12), st.integers(-12, 12))
    def test_closed_form_matches_the_word_oracle_at_random(self, a, b):
        assume(math.gcd(a, b) == 1 and (a > 0 or b == 1))
        s = Slope(a, b)
        assert torus_shear(s) == torus_oracle.torus_shear(s)
        assert sum(torus_shear(s)) == 0

    def test_negative_slopes_are_rotations(self):
        # the slope rotation RHO permutes the torus coordinates by the
        # first three slots of PERM_Z, at every slope
        for s in enumerate_slopes(8):
            assert torus_shear(RHO.apply_slope(s)) == apply_perm(PERM_Z[:3], torus_shear(s)), s

    def test_matches_the_sphere_closed_form(self):
        # each torus coordinate is the common value of the sphere pair (i, i+3)
        for s in enumerate_slopes(20):
            v = shear_closed_form(AllowableCurve(s))
            assert torus_shear(s) == v[:3] == v[3:], s

    def test_projection(self):
        tri = type_i_triangulation((Slope(1, 2), Slope(1, 1), INF))
        for s in enumerate_slopes(5):
            assert sphere_torus_check(s, tri)
            assert sphere_torus_check(s, base_triangulation())

    def test_projection_builds_one_frame(self, monkeypatch):
        # the sphere vector is read off the frame the check builds itself;
        # the notched tags do not matter to a closed curve
        from spherelam import shear

        frames = []
        real = shear._lattice_frame
        monkeypatch.setattr(shear, "_lattice_frame", lambda keys: frames.append(1) or real(keys))
        notched = type_i_triangulation((Slope(1, 2), Slope(1, 1), INF),
                                       tuple((p, Tagging.NOTCHED) for p in PUNCTURES))
        for tri in (base_triangulation(), notched):
            for s in enumerate_slopes(3):
                frames.clear()
                assert sphere_torus_check(s, tri)
                assert len(frames) == 1


class TestSpiralBalance:
    """The coordinate total of a curve's shear vector is half the number
    of its counterclockwise ends less that of its clockwise ones: 0 on a
    closed curve, -1, 0 or 1 on a spiraling one.  The cone index lists its
    cones by the sign of this total, among other forms."""

    @staticmethod
    def balance(curve):
        if curve.is_closed:
            return 0
        ccw = sum(spiral is SpiralDir.CCW for _, spiral in curve.ends)
        return ccw - 1   # (ccw - cw) / 2, as ccw + cw == 2

    def test_closed_form_up_to_height_12(self):
        curves = enumerate_curves(12)
        assert len(curves) == 1656
        for c in curves:
            assert sum(shear_closed_form(c)) == self.balance(c), c

    def test_oracle_up_to_height_8(self):
        curves = enumerate_curves(8)
        for c in curves:
            assert sum(shear_oracle(c)) == self.balance(c), c
        # every value is taken: 88 closed curves, and the spirals with 0,
        # 1 and 2 counterclockwise ends
        assert Counter((c.is_closed, self.balance(c)) for c in curves) == {
            (True, 0): 88, (False, -1): 176, (False, 0): 352, (False, 1): 176}


class TestWitness:
    def test_single_closed_curve(self):
        t = Tangle(((AllowableCurve(Slope(1, 1)), 1),))
        w = find_witness(t)
        assert w is not None
        assert any(tangle_shear(t, w))

    def test_empty_returns_none(self):
        assert find_witness(Tangle(())) is None

    @pytest.mark.parametrize("h", [0, -4, MAX_HEIGHT + 1])
    def test_height_checked_before_early_returns(self, h):
        for t in (Tangle(()), Tangle(((AllowableCurve(Slope(1, 1)), 1),))):
            with pytest.raises(ValueError):
                find_witness(t, h)

    @pytest.mark.parametrize("h", [True, 2.5])
    def test_height_is_an_int(self, h):
        # the base triple is a witness here, which 2.5 once returned
        t = Tangle(((AllowableCurve(Slope(1, 1)), 1),))
        assert find_witness(t, 1) is not None
        for tangle in (Tangle(()), t):
            with pytest.raises(ValueError, match="must be a positive int"):
                find_witness(tangle, h)

    def test_cancelled_returns_none(self):
        assert find_witness(Tangle(((LAMBDA, 1), (LAMBDA, -1)))) is None

    def test_mixed_tangle(self):
        t = Tangle(
            (
                (LAMBDA, 1),
                (curve(2, 3, V00, CW, V01, CW), 1),
                (AllowableCurve(Slope(1, -1)), -2),
            )
        )
        w = find_witness(t)
        assert w is not None and any(tangle_shear(t, w))

    def test_antipodal_closed_pair(self):
        # the closed curves of slopes inf and -1/2 have opposite shear
        # vectors, so their sum vanishes on the base triangulation; a
        # separating triple around one of the slopes still witnesses it
        a = AllowableCurve(INF)
        b = AllowableCurve(Slope(2, -1))
        assert shear_closed_form(b) == tuple(-x for x in shear_closed_form(a))
        t = Tangle(((a, 1), (b, 1)))
        assert not any(tangle_shear(t, base_triangulation()))
        w = find_witness(t)
        assert w is not None and any(tangle_shear(t, w))

    def test_tangle_invisible_to_base_triangulation(self):
        # an integer kernel combination of same-slope curves: zero shear on
        # the base triangulation, so the witness must come from elsewhere
        from spherelam.curves import endpoint_sets

        s = Slope(1, 1)
        pool = [AllowableCurve(s)]
        for pair in endpoint_sets(s):
            for d0 in (CW, CCW):
                for d1 in (CW, CCW):
                    pool.append(AllowableCurve(s, ((pair[0], d0), (pair[1], d1))))
        weights = (-2, -2, 0, 0, -2, 2, 2, 2, 2)
        t = Tangle(tuple((c, w) for c, w in zip(pool, weights) if w))
        assert not any(tangle_shear(t, base_triangulation()))
        assert t.support
        w = find_witness(t)
        assert w is not None and any(tangle_shear(t, w))

    def test_each_tagging_is_read_as_its_own_notched_mask(self, monkeypatch):
        # hide every notched mask but that of one tagged base triangulation,
        # read off its arcs: the witness is that triangulation.  A closed
        # curve reads the same nonzero shear on all 16 taggings.
        from spherelam import shear

        real = shear._shear_in_frame
        tris = [type_i_triangulation(BASE_TRIPLE, tags) for tags in tag_choices(PUNCTURES)]
        assert all(any(shear_wrt(LAMBDA_C, tri)) for tri in tris)
        for tri in tris:
            shown = sum(1 << 2 * p.i + p.j for p in PUNCTURES
                        if any((p, Tagging.NOTCHED) in arc.ends for arc in tri.arcs))
            monkeypatch.setattr(shear, "_shear_in_frame", lambda weights, frame: (
                real(weights, frame) if frame[2] == shown else (0,) * 6))
            assert find_witness(Tangle(((LAMBDA_C, 1),)), 1).arcs == tri.arcs

    @pytest.mark.parametrize("max_height", range(1, 5))
    def test_fallback_matches_the_former_sweep(self, monkeypatch, max_height):
        from spherelam import shear
        from spherelam.lattice import is_farey1_triple, separating_neighbors

        def former_sweep(tangle, tried):
            # the fallback before the shared enumerator, kept as the oracle
            seen = set(tried)
            pool = enumerate_slopes(max_height)
            taggings = [tuple(zip((V00, V01, V10, V11), tags))
                        for tags in itertools.product(Tagging, repeat=4)]
            for i, q1 in enumerate(pool):
                for q2 in pool[i + 1:]:
                    if abs(q1.a * q2.b - q1.b * q2.a) != 1:
                        continue
                    for q3 in pool:
                        key = frozenset((q1, q2, q3))
                        if len(key) < 3 or key in seen or not is_farey1_triple(q1, q2, q3):
                            continue
                        seen.add(key)
                        for tags in taggings:
                            tri = type_i_triangulation((q1, q2, q3), tags)
                            if any(shear.tangle_shear(tangle, tri)):
                                return tri
            return None

        pool = enumerate_curves(3)
        tangles = [Tangle(((AllowableCurve(Slope(1, 1)), 1),)), Tangle(((LAMBDA, 2),)),
                   Tangle(((AllowableCurve(INF), 1), (AllowableCurve(Slope(2, -1)), 1)))]
        tangles += [Tangle(tuple((pool[(7 * k + 3 * j) % len(pool)], j - 1) for j in range(3)))
                    for k in range(6)]
        real, real_frame = shear._shear_in_frame, shear._type_i_frame
        current = []  # the slopes of the triangulation whose frame was built last

        def frame(tri):
            current[:] = [frozenset(arc.slope for arc in tri.arcs)]
            return real_frame(tri)

        monkeypatch.setattr(shear, "_type_i_frame", frame)
        for tangle in tangles:
            # every candidate triple reads zero shear, so the search goes on
            # to its fallback over the Farey-1 triples up to max_height; so do
            # some other triples and taggings, so that the first hit is not
            # the first triple and tagging tried
            slopes = sorted({c.slope for c in tangle.support})
            blocked = {frozenset(shear.BASE_TRIPLE)} | {
                frozenset((f, *separating_neighbors(slopes, f))) for f in slopes}

            def hidden(notched):
                slopes, = current
                return (slopes in blocked or sum(s.a + 2 * s.b for s in slopes) % 3
                        or notched.bit_count() != 2)

            monkeypatch.setattr(shear, "_shear_in_frame", lambda weights, frame: (
                (0,) * 6 if hidden(frame[2]) else real(weights, frame)))
            expected = former_sweep(tangle, blocked)
            if expected is None:
                with pytest.raises(BoundExhausted):
                    find_witness(tangle, max_height)
            else:
                assert find_witness(tangle, max_height).arcs == expected.arcs

