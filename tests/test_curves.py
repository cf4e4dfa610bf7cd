import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import compat_oracle
import flip_oracle
import object_oracle
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
    _lattice_frame,
    base_triangulation,
    tag_choices,
    type_i_triangulation,
)
from spherelam.errors import ClosedCurveHasNoArc, InternalError
from spherelam.lattice import Slope, UnimodularMap, enumerate_slopes, farey1_triples, \
    farey_distance

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

    def test_ends_are_punctures_with_the_class_marks(self):
        # a string mark, the other class's mark or an end that is not a
        # Puncture would otherwise be read as the 0-bit mark of the key
        bad = [(TaggedArc, (V00, "notched"), (V10, PLAIN)),
               (TaggedArc, (V00, CCW), (V10, PLAIN)),
               (TaggedArc, ((0, 0), PLAIN), (V10, PLAIN)),
               (AllowableCurve, (V00, CW), (V10, "cw")),
               (AllowableCurve, (V00, NOTCHED), (V10, CW)),
               (AllowableCurve, (V00, CW), ("10", CW))]
        for cls, e0, e1 in bad:
            with pytest.raises(ValueError, match="Puncture"):
                cls(Slope(1, 0), (e0, e1))


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
        spiral = {PLAIN: CW, NOTCHED: CCW}
        for a in enumerate_arcs(4):
            c = kappa(a)
            assert c._key == a._key and c.slope == a.slope
            assert c.ends == tuple((p, spiral[t]) for p, t in a.ends)
            back = kappa_inv(c)
            assert back._key == a._key and back.ends == a.ends and hash(back) == hash(a)

    def test_slope_keys_are_the_arcs_of_the_slope(self):
        from spherelam.lattice import enumerate_slopes

        arcs = enumerate_arcs(3)
        for s in enumerate_slopes(3):
            keys = list(flip_oracle.slope_keys(s.a, s.b))
            assert sorted(keys) == sorted(a._key for a in arcs if a.slope == s)
            assert [TaggedArc._of_key(key)._key for key in keys] == keys

    def test_key_encoding(self):
        a = arc(2, 3, V01, NOTCHED, V00, PLAIN)
        assert a._key == (2, 3, 0b0011, 0b0010)
        c = curve(1, -1, V11, CCW, V00, CCW)
        assert c._key == (1, -1, 0b1001, 0b1001)
        assert AllowableCurve(Slope(1, 1))._key == (1, 1, 0, 0)

    def test_hash_is_the_key_hash(self):
        # a tuple of ints: no enum name, so no PYTHONHASHSEED, in the hash
        for x in enumerate_arcs(2) + enumerate_curves(2):
            assert hash(x) == hash(x._key)
        assert hash(AllowableCurve(Slope(2, 3))) == hash((2, 3, 0, 0))


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
        from object_oracle import triple_to_basis
        from spherelam.triangulation import classify, enumerate_triangulations

        base = frozenset(base_triangulation().arcs)
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

    def test_lattice_frame_carries_type_one_onto_base(self):
        # every Farey-1 triple of height <= 4 in every order, under taggings
        # in turn: the frame sends the two least slopes to (1, 0) and (0, 1)
        # with det 1, and the image of each arc, its tags switched to plain,
        # is the base arc of its slope and endpoints, each base arc once
        base = base_triangulation()._keys
        taggings = tag_choices((V00, V01, V10, V11))
        n = 0
        for triple in farey1_triples(enumerate_slopes(4)):
            s, t = sorted(triple)[:2]
            for order in itertools.permutations(triple):
                tri = type_i_triangulation(order, taggings[n % 16])
                n += 1
                linear, images = _lattice_frame([a._key for a in tri.arcs])
                m = UnimodularMap(linear)
                assert m.det == 1
                assert (m.apply_vector(s.vector), m.apply_vector(t.vector)) == ((1, 0), (0, 1))
                assert [a.image(m)._key[:3] for a in tri.arcs] == [key[:3] for key in images]
                assert sorted(images) == sorted(base)
        assert n == 6 * 22

    def test_lattice_frame_matches_slope_oracle(self):
        # every triangulation of height <= 3, of all six types, in arc order
        # and shuffled: integer cross products and counts pick the pair
        # that the Slope order picks, the images and their tag switches
        # are the oracle's, and six keys without a Farey-1 pair fail with
        # the oracle's message
        from spherelam.triangulation import enumerate_triangulations

        rng = random.Random(31)
        tris = list(enumerate_triangulations(3))
        assert len(tris) == 2000
        for t in tris:
            for order in (list(t._keys), rng.sample(t._keys, 6)):
                linear, images = _lattice_frame(order)
                oracle_m, oracle_images = object_oracle.lattice_frame(order)
                assert UnimodularMap(linear) == oracle_m
                assert images == oracle_images
        for slopes in ([(1, 0), (1, 0), (1, 2), (1, -2), (3, 2), (3, -2)],
                       [(1, 0), (1, 0), (1, 2), (1, 2), (3, 2), (1, 2)],
                       [(1, 1)] * 6):
            keys = [(a, b, 0, 0) for a, b in slopes]
            with pytest.raises(InternalError) as got:
                _lattice_frame(keys)
            with pytest.raises(InternalError) as expected:
                object_oracle.lattice_frame(keys)
            assert str(got.value) == str(expected.value)

    def test_lattice_frame_builds_no_slope(self, monkeypatch):
        # a valid input of any type is read on integer vectors only; a
        # Slope is built on the error path alone
        from spherelam.triangulation import TriType, build_type

        plain = tuple((p, PLAIN) for p in (V00, V01, V10, V11))
        tris = [base_triangulation(),
                type_i_triangulation((Slope(5, 3), Slope(2, 1), Slope(3, 2))),
                build_type(TriType("II", (Slope(1, 1), Slope(1, -1)), v=V00, taggings=plain)),
                build_type(TriType("VI", (Slope(5, 3), Slope(2, 1), Slope(3, 2)), v=V01,
                                   taggings=((V01, NOTCHED),)))]
        inputs = [[a._key for a in t.arcs] for t in tris]
        calls = 0
        real = Slope.__init__

        def counting(self, a, b):
            nonlocal calls
            calls += 1
            real(self, a, b)

        monkeypatch.setattr(Slope, "__init__", counting)
        for keys in inputs:
            _lattice_frame(keys)
        assert calls == 0
        with pytest.raises(InternalError):
            _lattice_frame([(1, 0, 0, 0)] * 6)
        assert calls > 0


def _bezout(p, q):
    """(x, y) with x*p + y*q = gcd(p, q), |x| <= |q| and |y| <= |p|."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while q:
        k, r = divmod(p, q)
        p, q = q, r
        x0, y0, x1, y1 = x1, y1, x0 - k * x1, y0 - k * y1
    return (x0, y0) if p > 0 else (-x0, -y0)


@st.composite
def lattice_maps(draw):
    """A lattice map with entries up to 10^6 and det +-1: a primitive first
    row, the second from its Bezout coefficients, negated for det -1."""
    bound = 10**6
    p, q = draw(st.integers(-bound, bound)), draw(st.integers(-bound, bound))
    assume(math.gcd(p, q) == 1)
    x, y = _bezout(p, q)  # p*x - q*(-y) = 1
    sign = draw(st.sampled_from((1, -1)))
    m = UnimodularMap(((p, q), (-y * sign, x * sign)))
    assert m.det == sign
    return m


_LOW = enumerate_arcs(4) + enumerate_curves(4)


class TestOfKey:
    """``_ArcOrCurve._of_key`` is the one constructor from an integer key:
    images, retaggings, spiral reversals and ``kappa`` go through it and
    agree with the arcs and curves the constructors build from objects."""

    @settings(max_examples=40, deadline=None)
    @given(lattice_maps())
    def test_image_matches_the_object_oracle(self, m):
        for x in _LOW:
            got, expected = x.image(m), object_oracle.image(x, m)
            assert type(got) is type(expected)
            assert (got.slope, got.ends, got._key) == (expected.slope, expected.ends,
                                                       expected._key), (x, m)
            assert hash(got) == hash(expected)

    def test_of_key_round_trips(self):
        assert len(_LOW) == 192 + 216
        for x in _LOW:
            y = type(x)._of_key(x._key)
            assert y == x and (y.slope, y.ends, y.punctures, y.underlying) == \
                (x.slope, x.ends, x.punctures, x.underlying)
            assert hash(y) == hash(x)

    def test_reverse_and_retag_change_one_marks_bit(self):
        for x in _LOW:
            a, b, mask, marks = x._key
            for n, p in enumerate((V00, V01, V10, V11)):
                bit = 1 << n
                if isinstance(x, TaggedArc):
                    for tag in (PLAIN, NOTCHED):
                        y = x.retag(p, tag)
                        assert y._key[:3] == (a, b, mask)
                        assert (y._key[3] ^ marks) & ~bit == 0
                        assert y == TaggedArc(x.slope, tuple(
                            (q, tag if q == p else t) for q, t in x.ends))
                    continue
                y = x.reverse_spiral(p)
                if mask & bit:
                    assert y._key == (a, b, mask, marks ^ bit)
                    assert y == AllowableCurve(x.slope, tuple(
                        (q, (CCW if d is CW else CW) if q == p else d) for q, d in x.ends))
                else:
                    assert y is x

    def test_only_curves_builds_from_key_bits(self):
        # every other module builds an arc or curve from objects, or asks
        # curves for it (_of_key, image, retag, reverse_spiral, kappa): no
        # constructor call outside curves reads key bits or sets a key
        import ast
        import pathlib

        import spherelam

        gone = {"apply_parity", "_arc_of_key", "_TAG_TO_SPIRAL", "_SPIRAL_TO_TAG",
                "triple_to_basis", "_chirality", "spiral_at", "_base_open", "is_identity",
                "_rotation_to_nonnegative"}
        paths = sorted(pathlib.Path(spherelam.__file__).parent.glob("*.py"))
        assert len(paths) >= 12
        for path in paths:
            tree = ast.parse(path.read_text())
            names = {getattr(n, "id", getattr(n, "attr", getattr(n, "name", None)))
                     for n in ast.walk(tree)}
            assert not names & gone, path.name
            if path.name == "curves.py":
                continue
            assert "_of_key" not in {n.name for n in ast.walk(tree)
                                     if isinstance(n, ast.FunctionDef)}, path.name
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                inner = [n for arg in node.args + [k.value for k in node.keywords]
                         for n in ast.walk(arg)]
                if called in ("TaggedArc", "AllowableCurve"):
                    assert not [n for n in inner if isinstance(n, ast.BinOp)
                                and isinstance(n.op, (ast.RShift, ast.BitAnd))], path.name
                if called == "__setattr__":
                    assert "_key" not in [getattr(n, "value", None) for n in inner], path.name


class TestKeyIsTheStoredForm:
    """An arc or curve stores its integer key only; its slope, ends,
    punctures, hash and curve order are read off the key."""

    def test_key_is_the_only_state(self):
        from spherelam.curves import _ArcOrCurve

        assert _ArcOrCurve.__slots__ == ("_key",)
        assert TaggedArc.__slots__ == AllowableCurve.__slots__ == ()
        for x in (arc(1, 0, V00, PLAIN, V10, NOTCHED), curve(2, 3, V01, CCW, V00, CW),
                  AllowableCurve(Slope(1, 1))):
            assert not hasattr(x, "__dict__")

    def test_derived_arcs_and_curves_build_no_slope(self, monkeypatch):
        # _of_key, image, retag, reverse_spiral, kappa, kappa_inv and the
        # cold closed form of a negative-slope curve move keys only; the
        # slope is built when it is read
        from spherelam import shear

        a = arc(3, -5, V01, NOTCHED, V10, PLAIN)
        c = curve(5, -3, V00, CCW, V11, CW)
        closed = AllowableCurve(Slope(2, -7))
        calls = 0
        real = Slope.__init__

        def counting(self, a, b):
            nonlocal calls
            calls += 1
            real(self, a, b)

        monkeypatch.setattr(Slope, "__init__", counting)
        rho = shear.RHO
        derived = [TaggedArc._of_key(a._key), AllowableCurve._of_key(c._key), a.image(rho),
                   c.image(rho), closed.image(rho), a.retag(V01, PLAIN), a.retag(V00, NOTCHED),
                   c.reverse_spiral(V00), c.reverse_spiral(V10), kappa(a), kappa_inv(c)]
        vectors = [shear._closed_form(x) for x in (c, closed, c.reverse_spiral(V11))]
        assert calls == 0
        slope = derived[2].slope
        assert calls == 1 and slope.vector == (5, -2)
        assert vectors[0] == shear.shear_oracle(c)

    @pytest.mark.parametrize("slope", [(2, 3), "3/2", None], ids=["tuple", "text", "None"])
    @pytest.mark.parametrize("cls", [TaggedArc, AllowableCurve])
    def test_constructors_take_a_slope_only(self, cls, slope):
        ends = ((V00, PLAIN), (V01, NOTCHED)) if cls is TaggedArc else ((V00, CW), (V01, CCW))
        name = type(slope).__name__
        for given in (ends, None) if cls is AllowableCurve else (ends,):
            with pytest.raises(ValueError, match=f"^a {cls.__name__} takes a Slope, not {name}$"):
                cls(slope, given)

    def test_set_order_does_not_follow_the_hash_seed(self):
        import os
        import subprocess
        import sys

        import spherelam

        code = ("from spherelam.curves import enumerate_arcs, enumerate_curves; "
                "print([str(x) for x in set(enumerate_arcs(3))], "
                "[str(x) for x in set(enumerate_curves(3))])")
        src = os.path.dirname(os.path.dirname(spherelam.__file__))
        out = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
                              ).stdout for seed in ("0", "1")}
        assert len(out) == 1

    def test_sort_key_orders_as_the_object_oracle(self):
        curves = enumerate_curves(6)
        assert len(curves) == 432
        assert sorted(curves, key=AllowableCurve.sort_key) == \
            sorted(curves, key=object_oracle.sort_key)
        # seeded pairs of images under maps with entries up to 10^6, half of
        # them of one slope, where the ends and spirals decide the order
        rng = random.Random(30)
        maps = []
        while len(maps) < 8:
            p, q = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
            if math.gcd(p, q) == 1:
                x, y = _bezout(p, q)
                maps.append(UnimodularMap(((p, q), (-y, x))))
        by_slope = {}
        for m in maps:
            for c in curves:
                by_slope.setdefault(c.image(m)._key[:2], []).append(c.image(m))
        groups = list(by_slope.values())
        for n in range(20000):
            x = rng.choice(rng.choice(groups))
            y = rng.choice(by_slope[x._key[:2]] if n % 2 else rng.choice(groups))
            assert (x.sort_key() < y.sort_key()) == \
                (object_oracle.sort_key(x) < object_oracle.sort_key(y)), (x, y)
