import itertools

import pytest
from hypothesis import given, strategies as st

import compat_oracle
from spherelam.curves import (
    V00, V01, V10, V11,
    AllowableCurve,
    PairClass,
    Puncture,
    SpiralDir,
    TaggedArc,
    Tagging,
    arcs_compatible,
    classify_pair,
    curves_compatible,
    endpoint_sets,
    enumerate_arcs,
    enumerate_curves,
    kappa,
    kappa_inv,
    _arc_of_key,
    _slope_keys,
)
from spherelam.errors import ClosedCurveHasNoArc
from spherelam.lattice import Slope, UnimodularMap, farey_distance

PLAIN, NOTCHED = Tagging.PLAIN, Tagging.NOTCHED
CW, CCW = SpiralDir.CW, SpiralDir.CCW


def arc(a, b, e0, t0, e1, t1):
    return TaggedArc(Slope(a, b), ((e0, t0), (e1, t1)))


def curve(a, b, e0, d0, e1, d1):
    return AllowableCurve(Slope(a, b), ((e0, d0), (e1, d1)))


class TestPuncture:
    def test_order(self):
        assert sorted([V11, V00, V10, V01]) == [V00, V01, V10, V11]

    def test_parse_roundtrip(self):
        for p in (V00, V01, V10, V11):
            assert Puncture.parse(str(p)) == p


class TestEndpointSets:
    def test_slope_3_2(self):
        assert endpoint_sets(Slope(2, 3)) == ((V00, V01), (V10, V11))

    def test_slope_0(self):
        assert endpoint_sets(Slope(1, 0)) == ((V00, V10), (V01, V11))

    def test_slope_minus_1(self):
        assert endpoint_sets(Slope(1, -1)) == ((V00, V11), (V01, V10))

    def test_parity_invariant(self):
        from spherelam.lattice import enumerate_slopes

        for s in enumerate_slopes(5):
            for pair in endpoint_sets(s):
                assert pair[0].translate(s.parity) == pair[1]


class TestConstructors:
    def test_no_loops(self):
        with pytest.raises(ValueError):
            TaggedArc(Slope(1, 0), ((V00, PLAIN), (V00, PLAIN)))

    def test_parity_mismatch(self):
        with pytest.raises(ValueError):
            TaggedArc(Slope(1, 0), ((V00, PLAIN), (V01, PLAIN)))

    def test_unordered_ends(self):
        a = arc(1, 0, V00, PLAIN, V10, NOTCHED)
        b = arc(1, 0, V10, NOTCHED, V00, PLAIN)
        assert a == b and hash(a) == hash(b)


class TestKappa:
    def test_notched_to_ccw(self):
        a = arc(2, 3, V00, NOTCHED, V01, NOTCHED)
        assert kappa(a) == curve(2, 3, V00, CCW, V01, CCW)

    def test_plain_to_cw(self):
        a = arc(1, 0, V00, PLAIN, V10, PLAIN)
        assert kappa(a) == curve(1, 0, V00, CW, V10, CW)

    def test_round_trip(self):
        for a in enumerate_arcs(5):
            assert kappa_inv(kappa(a)) == a

    def test_closed_has_no_arc(self):
        with pytest.raises(ClosedCurveHasNoArc):
            kappa_inv(AllowableCurve(Slope(1, 1)))


class TestArcCompatibility:
    def test_coinciding(self):
        a = arc(2, 3, V00, NOTCHED, V01, PLAIN)
        b = arc(2, 3, V00, NOTCHED, V01, NOTCHED)
        assert arcs_compatible(a, b)
        assert classify_pair(a, b) is PairClass.COINCIDING

    def test_one_shared_endpoint(self):
        a = arc(1, 0, V00, PLAIN, V10, PLAIN)
        b = arc(0, 1, V00, PLAIN, V01, PLAIN)
        assert arcs_compatible(a, b)
        assert classify_pair(a, b) is PairClass.FAREY1

    def test_tag_must_agree_at_shared(self):
        a = arc(1, 0, V00, PLAIN, V10, PLAIN)
        b = arc(1, 1, V00, PLAIN, V11, PLAIN)
        assert arcs_compatible(a, b)
        assert not arcs_compatible(a, b.retag(V00, NOTCHED))

    def test_parallel_pair(self):
        a = arc(1, -1, V00, PLAIN, V11, PLAIN)
        b = arc(1, -1, V01, NOTCHED, V10, PLAIN)
        assert arcs_compatible(a, b)
        assert classify_pair(a, b) is PairClass.FAREY0

    def test_farey2(self):
        a = arc(1, 1, V00, PLAIN, V11, PLAIN)
        b = arc(3, 1, V00, PLAIN, V11, PLAIN)
        assert farey_distance(a.slope, b.slope) == 2
        assert arcs_compatible(a, b)
        assert classify_pair(a, b) is PairClass.FAREY2

    def test_equal_and_double_disagree(self):
        a = arc(2, 3, V00, NOTCHED, V01, PLAIN)
        assert classify_pair(a, a) is PairClass.EQUAL
        assert arcs_compatible(a, a)
        b = arc(2, 3, V00, PLAIN, V01, NOTCHED)  # tags differ at both ends
        assert not arcs_compatible(a, b)
        assert classify_pair(a, b) is PairClass.INCOMPATIBLE

    def test_symmetry_and_shared_count(self):
        arcs = enumerate_arcs(2)
        for a, b in itertools.combinations(arcs, 2):
            assert arcs_compatible(a, b) == arcs_compatible(b, a)
            if a.underlying != b.underlying and arcs_compatible(a, b):
                shared = len(a.punctures & b.punctures)
                assert farey_distance(a.slope, b.slope) == shared


class TestCurveCompatibility:
    def test_distinct_closed(self):
        assert not curves_compatible(
            AllowableCurve(Slope(2, 3)), AllowableCurve(Slope(1, 1))
        )

    def test_closed_vs_open_same_slope(self):
        assert curves_compatible(
            AllowableCurve(Slope(2, 3)), curve(2, 3, V00, CCW, V01, CCW)
        )
        assert not curves_compatible(
            AllowableCurve(Slope(1, 1)), curve(2, 3, V00, CCW, V01, CCW)
        )

    def test_shared_spiral_point(self):
        a = curve(1, 0, V00, CW, V10, CW)
        b = curve(0, 1, V00, CW, V01, CW)
        assert curves_compatible(a, b)
        assert not curves_compatible(a, b.reverse_spiral(V00))

    def test_kappa_preserves_compatibility(self):
        arcs = enumerate_arcs(4)
        for a, b in itertools.combinations(arcs, 2):
            assert arcs_compatible(a, b) == curves_compatible(kappa(a), kappa(b))


class TestKernelAgainstOracle:
    """The integer kernel against the tuple rule of ``compat_oracle`` on
    every ordered pair up to height 3: all endpoint pairs and taggings,
    spiral directions, and closed curves."""

    def test_arcs(self):
        arcs = enumerate_arcs(3)
        assert len(arcs) == 128
        for a, b in itertools.product(arcs, repeat=2):
            assert arcs_compatible(a, b) == compat_oracle.arcs_compatible(a, b), (a, b)

    def test_curves(self):
        curves = enumerate_curves(3)
        spiraling = [c for c in curves if not c.is_closed]
        assert len(spiraling) == 128 and len(curves) == 144
        for a, b in itertools.product(spiraling, repeat=2):
            assert arcs_compatible(a, b) == compat_oracle.arcs_compatible(a, b), (a, b)
        for a, b in itertools.product(curves, repeat=2):
            assert curves_compatible(a, b) == compat_oracle.curves_compatible(a, b), (a, b)

    def test_kappa_keeps_the_key(self):
        for a in enumerate_arcs(3):
            assert kappa(a)._key == a._key
            assert kappa_inv(kappa(a))._key == a._key

    def test_slope_keys_are_the_arcs_of_the_slope(self):
        from spherelam.lattice import enumerate_slopes

        arcs = enumerate_arcs(3)
        for s in enumerate_slopes(3):
            keys = list(_slope_keys(s))
            assert sorted(keys) == sorted(a._key for a in arcs if a.slope == s)
            assert [_arc_of_key(s, key)._key for key in keys] == keys

    def test_key_encoding(self):
        a = arc(2, 3, V01, NOTCHED, V00, PLAIN)
        assert a._key == (2, 3, 0b0011, 0b0010)
        c = curve(1, -1, V11, CCW, V00, CCW)
        assert c._key == (1, -1, 0b1001, 0b1001)
        assert AllowableCurve(Slope(1, 1))._key == (1, 1, 0, 0)

    def test_hash_is_the_dataclass_hash(self):
        # computed once, with the value of hash((slope, ends)) as before
        for x in enumerate_arcs(2) + enumerate_curves(2):
            assert hash(x) == hash((x.slope, x.ends))


@given(st.integers(0, 3), st.integers(0, 3))
def test_compat_reflexive(i, j):
    arcs = enumerate_arcs(1)
    a = arcs[(i * 4 + j) % len(arcs)]
    assert arcs_compatible(a, a)
    assert curves_compatible(kappa(a), kappa(a))


class TestJson:
    def test_arc_round_trip(self):
        for a in enumerate_arcs(3):
            assert TaggedArc.from_json(a.to_json()) == a

    def test_curve_round_trip(self):
        for c in enumerate_curves(3):
            assert AllowableCurve.from_json(c.to_json()) == c


class TestLatticeImage:
    """The one rule for moving arcs and curves by a lattice map: the slope
    moves by the linear part, punctures by the map mod 2, decorations stay."""

    def test_identity(self):
        ident = UnimodularMap(((1, 0), (0, 1)))
        for x in enumerate_arcs(2) + enumerate_curves(2):
            assert x.image(ident) == x
            assert type(x.image(ident)) is type(x)

    def test_rotation_has_order_three(self):
        from spherelam.shear import RHO, RHO2

        for x in enumerate_arcs(4) + enumerate_curves(4):
            once = x.image(RHO)
            assert once.image(RHO) == x.image(RHO2)
            assert once.image(RHO).image(RHO) == x
            assert type(once) is type(x) and (once.ends is None) == (x.ends is None)

    def test_type_one_triangulations_map_to_base(self):
        from spherelam.lattice import triple_to_basis
        from spherelam.triangulation import (
            base_triangulation,
            classify,
            enumerate_triangulations,
        )

        base = base_triangulation().arc_set
        seen = 0
        for tri in enumerate_triangulations(2):
            if classify(tri).tag != "I":
                continue
            seen += 1
            m = triple_to_basis(tuple(sorted({a.slope for a in tri.arcs})))
            image = {a.image(m) for a in tri.arcs}
            assert {a.underlying for a in image} == {a.underlying for a in base}
            if tri.all_plain:
                assert image == base
        assert seen > 6
