import itertools
import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import dd_oracle
from rref_oracle import membership
from test_acceptance import in_plane_p
from spherelam import exactla, fan, triangulation
from spherelam.curves import (
    V00, V01,
    AllowableCurve,
    SpiralDir,
    arcs_compatible,
    base_triangulation,
    curves_compatible,
    endpoint_sets,
    enumerate_arcs,
    enumerate_curves,
    kappa,
    kappa_inv,
)
from spherelam.errors import BoundExhausted, InternalError, InternalNonUnique, \
    MalformedInput, RankDeficient
from spherelam.lattice import INF, MAX_HEIGHT, Slope, enumerate_slopes, farey1_triples
from spherelam.shear import GAMMA24, QuasiLamination, Tangle, apply_perm, \
    shear_closed_form, shear_lamination, tangle_shear
from spherelam.triangulation import classify, enumerate_triangulations

CW, CCW = SpiralDir.CW, SpiralDir.CCW

# The nonzero vectors of [-2, 2]^6 whose quasi-lamination has a curve above
# the default locate height 6: 32 need height 7 and 8 need height 8.
BOX_BEYOND_HEIGHT_6 = {
    (-1, -2, 2, -1, -1, 2), (-1, -2, 2, 0, -2, 2), (-1, -2, 2, 0, -1, 2),
    (-1, -1, 2, -1, -2, 2), (-1, -1, 2, 0, -2, 2), (0, -2, 1, 0, -2, 2),
    (0, -2, 1, 1, -2, 2), (0, -2, 2, -1, -2, 2), (0, -2, 2, -1, -1, 2),
    (0, -2, 2, 0, -2, 1), (0, -2, 2, 0, -1, 2), (0, -2, 2, 1, -2, 1),
    (0, -2, 2, 1, -2, 2), (0, -1, 2, -1, -2, 2), (0, -1, 2, 0, -2, 2),
    (1, -2, 1, 0, -2, 2), (1, -2, 1, 1, -2, 2), (1, -2, 2, 0, -2, 1),
    (1, -2, 2, 0, -2, 2), (1, -2, 2, 1, -2, 1), (1, 0, -2, 2, 0, -2),
    (1, 0, -2, 2, 1, -2), (1, 1, -2, 2, 0, -2), (1, 1, -2, 2, 1, -2),
    (2, -1, -2, 2, -1, -1), (2, -1, -2, 2, 0, -2), (2, -1, -2, 2, 0, -1),
    (2, -1, -1, 2, -1, -2), (2, -1, -1, 2, 0, -2), (2, 0, -2, 1, 0, -2),
    (2, 0, -2, 1, 1, -2), (2, 0, -2, 2, -1, -2), (2, 0, -2, 2, -1, -1),
    (2, 0, -2, 2, 0, -1), (2, 0, -2, 2, 1, -2), (2, 0, -1, 2, -1, -2),
    (2, 0, -1, 2, 0, -2), (2, 1, -2, 1, 0, -2), (2, 1, -2, 1, 1, -2),
    (2, 1, -2, 2, 0, -2),
}


@pytest.fixture
def cleared_index_cache():
    """The cone index cache emptied before the test and after it: the test
    builds each index it asks for, and no index it built outlives it."""
    fan._cached_index.cache_clear()
    yield
    fan._cached_index.cache_clear()


def base_cone():
    t0 = base_triangulation()
    coll = fan.MaximalCollection(tuple(kappa(a) for a in t0.arcs), "I")
    return fan.cone_of(coll)


def oracle_cones(max_height):
    """The former build of the cone index, kept as an oracle: each type by
    classify, each collection through the validating constructor, each
    rank by its own elimination."""
    colls = [fan.MaximalCollection(tuple(kappa(a) for a in tri.arcs), classify(tri).tag)
             for tri in enumerate_triangulations(max_height)]
    for slope in enumerate_slopes(max_height):
        colls.extend(fan.closed_collections(slope))
    cones = []
    for coll in colls:
        gens = tuple(shear_closed_form(c) for c in coll.curves)
        if exactla.rank(gens) != len(gens) or len(gens) != (5 if coll.kind == "VII" else 6):
            raise RankDeficient(coll.kind)
        cones.append(fan.Cone(gens, coll.kind, coll))
    return cones


class TestCones:
    def test_base_cone_rank(self):
        assert base_cone().dim == 6

    def test_base_cone_is_negative_orthant(self):
        gens = set(base_cone().generators)
        assert gens == {
            tuple(-1 if j == i else 0 for j in range(6)) for i in range(6)
        }

    def test_vii_rank(self):
        for coll in fan.closed_collections(Slope(2, 3)):
            assert fan.cone_of(coll).dim == 5

    def test_sixteen_collections_per_slope(self):
        colls = fan.closed_collections(Slope(2, 3))
        assert len(colls) == 16
        assert len({fan.cone_of(c) for c in colls}) == 16

    def test_collections_compatible(self):
        for coll in fan.maximal_collections(1):
            n = 5 if coll.kind == "VII" else 6
            assert len(coll.curves) == n  # pairwise: test_collections_pass_validation

    def test_vii_structure(self):
        # closed curve of slope 2/3 plus one spiral-agreeing pair in each
        # endpoint pair: {v00, v10} and {v01, v11}
        slope = Slope(3, 2)
        target = fan.MaximalCollection(
            (AllowableCurve(slope),)
            + tuple(
                AllowableCurve(slope, ((V00, CW), (V00.translate(slope.parity), d)))
                for d in (CW, CCW)
            )
            + tuple(
                AllowableCurve(slope, ((V01, CW), (V01.translate(slope.parity), d)))
                for d in (CW, CCW)
            ),
            "VII",
        )
        assert target in fan.closed_collections(slope)

    def test_vii_matches_the_spiral_pair_build(self):
        # the former build from spiral-agreeing curve pairs, kept as the oracle
        def spiral_pair(slope, at, direction):
            far = at.translate(slope.parity)
            return (AllowableCurve(slope, ((at, direction), (far, CW))),
                    AllowableCurve(slope, ((at, direction), (far, CCW))))

        for slope in enumerate_slopes(3):
            first, second = endpoint_sets(slope)
            oracle = [
                fan.MaximalCollection((AllowableCurve(slope),) + spiral_pair(slope, v, d1)
                                      + spiral_pair(slope, v2, d2), "VII")
                for v in first for v2 in second for d1 in (CW, CCW) for d2 in (CW, CCW)
            ]
            assert fan.closed_collections(slope) == oracle

    def test_maximality_bounded(self):
        # no curve of bounded height extends a maximal collection
        from spherelam.curves import curves_compatible, enumerate_curves

        pool = enumerate_curves(2)
        for coll in list(fan.maximal_collections(1))[::17]:
            for extra in pool:
                if extra in coll.curves:
                    continue
                assert not all(curves_compatible(extra, c) for c in coll.curves)

    def test_cached_equality_and_hash(self):
        cones = fan.cone_index(2).cones
        fresh = [fan.Cone(c.generators, c.kind) for c in cones]
        for c, f in zip(cones, fresh):
            key = tuple(sorted(exactla.primitive(g) for g in c.generators))
            assert hash(c) == hash(key) == hash(f)
            assert c == f
            assert c.canonical() == key  # read back from the stored key
        keys = {c.canonical() for c in fresh}
        assert len(set(cones)) == len(keys)


class TestMembership:
    """``containing`` on an index of one cone: nums over det > 0."""

    def test_generator_combination(self):
        cone = base_cone()
        g1, g2 = cone.generators[0], cone.generators[1]
        v = tuple(a + 2 * b for a, b in zip(g1, g2))
        [(got, nums, det)] = fan._ConeIndex([cone]).containing(v)
        assert got is cone and det > 0
        assert nums == (det, 2 * det, 0, 0, 0, 0)
        assert membership(v, cone) == coefficients(nums, det)

    def test_negative_combination_rejected(self):
        cone = base_cone()
        v = tuple(-x for x in cone.generators[0])
        assert list(fan._ConeIndex([cone]).containing(v)) == []
        assert membership(v, cone) is None

    def test_zero_everywhere(self):
        cone = base_cone()
        [(got, nums, det)] = fan._ConeIndex([cone]).containing((0,) * 6)
        assert got is cone and nums == (0,) * 6 and det > 0


class TestLocate:
    def test_closed_fixture(self):
        lam = fan.locate((-3, 2, 1, -3, 2, 1), 3)
        assert lam.weights == ((AllowableCurve(Slope(2, 3)), 1),)

    def test_single_curves(self):
        for c in enumerate_curves(2):
            lam = fan.locate(shear_closed_form(c), 2)
            assert lam.weights == ((c, 1),)

    def test_zero_vector(self):
        assert fan.locate((0,) * 6, 2).weights == ()

    def test_bound_exhausted(self):
        big = shear_closed_form(AllowableCurve(Slope(5, 7)))
        with pytest.raises(BoundExhausted):
            fan.locate(big, 1)

    def test_round_trips(self):
        rng = random.Random(3)
        idx = fan.cone_index(2)
        colls = [c.collection for c in idx.cones]
        for _ in range(25):
            coll = rng.choice(colls)
            chosen = rng.sample(list(coll.curves), rng.randint(1, 4))
            lam = QuasiLamination(tuple((c, rng.randint(1, 3)) for c in chosen))
            vec = tangle_shear(Tangle(lam.weights))
            assert fan.locate(vec, 2) == lam

    def test_positive_basis_on_the_box(self):
        # every nonzero integer vector is the shear vector of one
        # quasi-lamination, with integer weights: all 15,624 of [-2, 2]^6
        # round-trip, except those whose lamination lies above the height
        beyond = set()
        for v in itertools.product(range(-2, 3), repeat=6):
            if not any(v):
                continue
            try:
                lam = fan.locate(v)
            except BoundExhausted:
                beyond.add(v)
                continue
            assert all(type(w) is int for _, w in lam.weights), v
            assert shear_lamination(lam) == v
        assert beyond == BOX_BEYOND_HEIGHT_6
        heights = Counter()
        for v in beyond:
            lam = fan.locate(v, 8)
            assert all(type(w) is int for _, w in lam.weights), v
            assert shear_lamination(lam) == v
            heights[max(c.height for c in lam.support)] += 1
        assert heights == {7: 32, 8: 8}
        for v, text in (((2, -1, -2, 2, 0, -2), "curve(-5/8,{v00:cw,v01:cw})"),
                        ((1, 1, -2, 2, 0, -2), "curve(-3/7,{v01:ccw,v10:cw})")):
            assert [(str(c), w) for c, w in fan.locate(v, 8).weights] == [(text, 1)]

    def test_answer_skips_the_pairwise_check(self, monkeypatch):
        from spherelam import shear

        coll = fan.cone_index(2).cones[100].collection
        lam = QuasiLamination(tuple((c, i + 1) for i, c in enumerate(reversed(coll.curves))))
        vec = tangle_shear(Tangle(lam.weights))
        calls = []
        compatible = shear.curves_compatible
        monkeypatch.setattr(shear, "curves_compatible",
                            lambda x, y: calls.append(1) or compatible(x, y))
        got = fan.locate(vec, 2)
        assert calls == []
        assert got == lam and hash(got) == hash(lam)
        # the weights are checked positive and kept as given, neither merged
        # nor sorted again: locate passes the distinct curves of one
        # collection, in its sort_key order
        weights = ((coll.curves[0], 2), (coll.curves[1], 1))
        assert QuasiLamination._of_compatible(weights).weights == weights
        assert QuasiLamination._of_compatible(weights) == QuasiLamination(weights[::-1])
        with pytest.raises(ValueError):
            QuasiLamination._of_compatible(((coll.curves[0], 0),))

    def test_unchecked_lamination_of_every_collection(self):
        # every maximal collection of height <= 2 lists its curves in
        # sort_key order, so positive weights in that order are the
        # validating lamination's
        colls = list(fan.maximal_collections(2))
        assert len(colls) == 784 + 16 * len(enumerate_slopes(2))
        for coll in colls:
            assert list(coll.curves) == sorted(coll.curves, key=AllowableCurve.sort_key)
            weights = tuple((c, i + 1) for i, c in enumerate(coll.curves))
            lam = QuasiLamination._of_compatible(weights)
            assert lam.weights == QuasiLamination(weights).weights
            assert lam == QuasiLamination(weights[::-1])

    def test_answers_equal_the_validating_lamination(self):
        # interior and face queries at height 3, drawn as in the benchmark's
        # fan-locate workload: the answer is the lamination the query was
        # made from, weights and order as the validating constructor gives
        rng = random.Random(41)
        colls = [c.collection for c in fan.cone_index(3).cones]
        for n in range(300):
            coll = rng.choice(colls)
            chosen = coll.curves if n % 2 else rng.sample(coll.curves, rng.randint(1, 4))
            lam = QuasiLamination(tuple((c, rng.randint(1, 3)) for c in chosen))
            got = fan.locate(shear_lamination(lam), 3)
            assert got.weights == lam.weights == QuasiLamination(got.weights).weights


class _StubIndex:
    def __init__(self, hits):
        self.hits = hits

    def containing(self, v, distinct=False):
        return iter(self.hits)


class TestLocateChecks:
    def test_disagreeing_cones_are_internal_non_unique(self, monkeypatch):
        cone = base_cone()
        one, two = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)
        stub = _StubIndex([(cone, one, 1), (cone, two, 1)])
        monkeypatch.setattr(fan, "cone_index", lambda h: stub)
        with pytest.raises(InternalNonUnique):
            fan.locate((-1, 0, 0, 0, 0, 0), 1)

    def test_non_integer_weight_is_internal_error(self, monkeypatch):
        cone = base_cone()
        half = (1, 0, 0, 0, 0, 0)  # over det 2
        monkeypatch.setattr(fan, "cone_index", lambda h: _StubIndex([(cone, half, 2)]))
        with pytest.raises(InternalError):
            fan.locate((-1, 0, 0, 0, 0, 0), 1)

    @pytest.mark.parametrize("bad", [
        (-1, 0, 0), (0, 0, 0), (-1, 0, 0, 0, 0, 0, 5), (), 0.5, None, "abcdef",
        (0.5, 0, 0, 0, 0, 0), (-1.0, 0, 0, 0, 0, 0), (True, 0, 0, 0, 0, 0),
        (False,) * 6, ("1", 0, 0, 0, 0, 0), ((1,), 0, 0, 0, 0, 0),
    ])
    def test_malformed_vectors(self, bad):
        with pytest.raises(MalformedInput):
            fan.locate(bad, 1)
        with pytest.raises(MalformedInput):
            fan.count_containing_cones(bad, 1)

    @pytest.mark.parametrize("h", [0, -5, MAX_HEIGHT + 1])
    def test_height_checked_before_zero_vector(self, h):
        with pytest.raises(ValueError):
            fan.locate((0,) * 6, h)
        with pytest.raises(ValueError):
            fan.count_containing_cones((0,) * 6, h)

    @pytest.mark.parametrize("h", [True, 2.5, 3.0])
    def test_height_is_an_int(self, h):
        # True once answered at height 1 and 2.5 ended in a bare TypeError
        v = shear_closed_form(AllowableCurve(Slope(1, 1)))
        assert fan.locate(v, 1).weights == ((AllowableCurve(Slope(1, 1)), 1),)
        for call in (fan.locate, fan.count_containing_cones):
            with pytest.raises(ValueError, match="must be a positive int"):
                call(v, h)
        with pytest.raises(ValueError, match="must be a positive int"):
            fan.cone_index(h)

    def test_any_sequence_of_six_ints(self):
        v = (-3, 2, 1, -3, 2, 1)
        assert fan.locate(list(v), 3) == fan.locate(v, 3)
        assert fan.count_containing_cones(iter(v), 3) == 16

    def test_no_asserts_in_checked_modules(self):
        # invariant checks must stay active under python -O, and a broken
        # invariant is an InternalError, not an AssertionError
        import ast
        import pathlib

        package = pathlib.Path(fan.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert len(modules) >= 12
        for path in modules:
            tree = ast.parse(path.read_text())
            assert not [n for n in ast.walk(tree) if isinstance(n, ast.Assert)
                        or (isinstance(n, ast.Name) and n.id == "AssertionError")], path.name


class TestContainingAgreesWithMembership:
    """The integer sign scan of the cone index against membership by the
    Fraction row reduction of tests/rref_oracle.py."""

    def test_coverage(self):
        # both branches the integer scan adds are exercised below: cones
        # whose generator block has det < 0, and 5-dimensional kind VII
        cones = fan.cone_index(2).cones
        dets = [exactla.adjugate([list(col) for col in zip(*c.generators)])[1]
                for c in cones if c.kind != "VII"]
        assert any(d < 0 for d in dets) and any(d > 0 for d in dets)
        assert any(c.kind == "VII" for c in cones)

    def test_boundary_vectors_of_every_cone(self):
        rng = random.Random(11)
        idx = fan.cone_index(2)
        for cone in idx.cones:
            picked = rng.sample(range(len(cone.generators)), rng.randint(1, 4))
            weights = [rng.randint(1, 3) if k in picked else 0
                       for k in range(len(cone.generators))]
            v = tuple(sum(w * g[i] for w, g in zip(weights, cone.generators))
                      for i in range(6))
            hits = list(idx.containing(v))
            for c, nums, det in hits:
                assert membership(v, c) == coefficients(nums, det)
            assert [coefficients(n, d) for c, n, d in hits if c is cone] == [tuple(weights)]

    def test_full_scan_agrees(self):
        rng = random.Random(12)
        idx = fan.cone_index(2)
        vectors = []
        for cone in rng.sample(idx.cones, 12):
            picked = rng.sample(cone.generators, rng.randint(1, 4))
            vectors.append(tuple(map(sum, zip(*picked))))
        vectors += [tuple(rng.randint(-4, 4) for _ in range(6)) for _ in range(12)]
        vii = next(c for c in idx.cones if c.kind == "VII")
        inside = tuple(map(sum, zip(*vii.generators)))
        vectors += [inside, tuple(x + (i == 0) for i, x in enumerate(inside))]
        for v in vectors:
            got = dict(hit_list(idx.containing(v)))
            want = {id(c): co for c in idx.cones
                    if (co := membership(v, c)) is not None}
            assert got == want, v


def oracle_containing(index, v):
    """The former unfiltered scan of the cone index, kept as an oracle:
    every cone's functionals, in ``cones`` order."""
    for cone in index.cones:
        rows, det, normal = cone._functionals
        if normal is not None and sum(map(mul, normal, v)):
            continue
        s = []
        for row in rows:
            x = sum(map(mul, row, v))
            if x < 0:
                break
            s.append(x)
        else:
            yield cone, tuple(s), det


def check_functionals(cone):
    """The cone's stored (rows, det, normal) are functionals of its
    generators: rows . gens = det I with det > 0, and for five generators
    a nonzero normal orthogonal to each of them (None for six)."""
    rows, det, normal = cone._functionals
    assert det > 0 and len(rows) == len(cone.generators)
    assert [[sum(map(mul, f, g)) for g in cone.generators] for f in rows] == \
        [[det * (i == j) for j in range(len(rows))] for i in range(len(rows))]
    if len(rows) == 6:
        assert normal is None
    else:
        assert any(normal) and all(sum(map(mul, normal, g)) == 0 for g in cone.generators)


def same_cones(got, want):
    """Two builds of one index give the same cones, each with the same
    functionals (six generators) or valid ones (kind VII), and the same
    sign-key listing."""
    assert got is not want and len(got.cones) == len(want.cones)
    for g, w in zip(got.cones, want.cones):
        assert (g.kind, g.generators, g.collection) == (w.kind, w.generators, w.collection)
        check_functionals(g)
        if g.kind != "VII":
            assert g._functionals == w._functionals
    assert {k: [e[0] for e in v] for k, v in got.patterns.items()} == \
        {k: [e[0] for e in v] for k, v in want.patterns.items()}


def cone_point(cone, weights):
    return tuple(sum(w * g[i] for w, g in zip(weights, cone.generators)) for i in range(6))


@st.composite
def query_vectors(draw, height):
    """Small vectors with about half their entries 0, or points on the
    boundary of a random cone of the index (about half the weights 0)."""
    some = st.one_of(st.just(0), st.integers(-4, 4))
    if draw(st.booleans()):
        return tuple(draw(st.lists(some, min_size=6, max_size=6)))
    cones = fan.cone_index(height).cones
    cone = cones[draw(st.integers(0, len(cones) - 1))]
    n = len(cone.generators)
    weights = draw(st.lists(st.one_of(st.just(0), st.integers(1, 3)), min_size=n, max_size=n))
    return cone_point(cone, weights)


def listed_keys(index):
    """Position in ``cones`` -> the sign keys the cone is listed under."""
    out = {}
    for key, entries in index.patterns.items():
        assert [e[0] for e in entries] == sorted({e[0] for e in entries})
        for pos, cone, *functionals in entries:
            assert cone is index.cones[pos]
            assert tuple(functionals) == cone._functionals
            out.setdefault(pos, set()).add(key)
    return out


def ten_forms(v):
    """The forms the sign keys are read from: the six coordinates, the
    three pair differences v_i - v_(i+3) and the coordinate total."""
    return tuple(v) + tuple(v[i] - v[i + 3] for i in range(3)) + (sum(v),)


def key_of_signs(signs):
    """The sign key of ten form signs: bit i for form i > 0, bit 10 + i
    for form i < 0."""
    return sum(1 << i if s > 0 else 1024 << i for i, s in enumerate(signs) if s)


def face_sign_keys(cone):
    """The sign keys of the points of a cone, from each face's generator
    signs on the ten forms: a form where the face's generators have both
    signs may take any sign, every other form takes theirs."""
    keys = {0}
    n = len(cone.generators)
    for r in range(1, n + 1):
        for face in itertools.combinations(map(ten_forms, cone.generators), r):
            choices = []
            for i in range(10):
                signs = {(g[i] > 0) - (g[i] < 0) for g in face} - {0}
                choices.append((-1, 0, 1) if len(signs) == 2 else tuple(signs) or (0,))
            keys.update(key_of_signs(signs) for signs in itertools.product(*choices))
    return keys


def weights_of(cone, coeffs):
    return {c: x for c, x in zip(cone.collection.curves, coeffs) if x}


def coefficients(nums, det):
    return tuple(Fraction(x, det) for x in nums)


class TestSignPatterns:
    """The cone index lists each cone under the sign keys of its faces'
    points; the cones it yields must be those of the unfiltered scan."""

    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_listing_is_the_face_sign_keys(self, height):
        idx = fan.cone_index(height)
        listed = listed_keys(idx)
        assert sorted(listed) == list(range(len(idx.cones)))
        for pos, cone in enumerate(idx.cones):
            assert listed[pos] == face_sign_keys(cone)

    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_every_face_point_is_listed(self, height):
        # a positive combination of the generators of any face
        rng = random.Random(14)
        idx = fan.cone_index(height)
        listed = listed_keys(idx)
        for pos, cone in enumerate(idx.cones):
            n = len(cone.generators)
            for r in range(1, n + 1):
                face = rng.sample(range(n), r)
                weights = [rng.randint(1, 5) if k in face else 0 for k in range(n)]
                assert fan._sign_key(cone_point(cone, weights)) in listed[pos]

    def test_mixed_coordinates_take_any_sign(self):
        # a*g1 + b*g2 = (a - b, b, a + b, 0, 0, 0): the first coordinate,
        # and with it v_0 - v_3, takes every sign on the face {g1, g2}, and
        # (+, +, +) is on no smaller face.  Each of the two forms may take
        # any sign, independently of the other; the total 2a + b is
        # positive on the whole face
        g1, g2 = (1, 0, 1, 0, 0, 0), (-1, 1, 1, 0, 0, 0)
        assert sorted(fan._face_patterns(fan._sign_key(g1) | fan._sign_key(g2))) == sorted(
            key_of_signs((x, 1, 1, 0, 0, 0, d, 1, 1, 1))
            for x, d in itertools.product((-1, 0, 1), repeat=2))
        # with g4 = (-2, 0, 1, 0, 0, 0), of total -1, the total 2a - c of
        # a*g1 + c*g4 takes every sign as well: three forms are mixed
        g4 = (-2, 0, 1, 0, 0, 0)
        assert sorted(fan._face_patterns(fan._sign_key(g1) | fan._sign_key(g4))) == sorted(
            key_of_signs((x, 0, 1, 0, 0, 0, d, 0, 1, t))
            for x, d, t in itertools.product((-1, 0, 1), repeat=3))
        gens = (g1, g2, (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0),
                (0, 0, 0, 0, 0, 1))
        cone = fan.Cone(gens, "I", base_cone().collection)
        v = cone_point(cone, [2, 1, 0, 0, 0, 0])
        assert v == (1, 1, 3, 0, 0, 0)
        assert hit_list(fan._ConeIndex([cone]).containing(v)) == [(id(cone), (2, 1, 0, 0, 0, 0))]

    def test_sign_key(self):
        assert fan._sign_key((0,) * 6) == 0
        # forms 3, 0, -1, 0, 0, 7, differences 3, 0, -8 and total 9
        assert fan._sign_key((3, 0, -1, 0, 0, 7)) == 0b1001100001 | 0b0100000100 << 10
        # a closed curve's differences and total vanish (the curve of
        # slope 1/1); one more unit on v_3 makes v_0 - v_3 negative and
        # the total positive
        assert fan._sign_key((-1, 1, 0, -1, 1, 0)) == 0b0000010010 | 0b0000001001 << 10
        assert fan._sign_key((-1, 1, 0, 0, 1, 0)) == 0b1000010010 | 0b0001000001 << 10
        # v_1, v_1 - v_4 and the total are -1, every other form 0
        assert fan._sign_key((0, -1, 0, 0, 0, 0)) == 0b1010000010 << 10
        for v in [(1, -1, 0, 0, 0, 0), (2, -5, 3, -1, 0, 1), (-1, -1, -1, 1, 1, 1)]:
            assert fan._sign_key(v) == key_of_signs(ten_forms(v))

    def test_keys_read_from_faces_of_every_cone(self, monkeypatch, cleared_index_cache):
        # faces and patterns for every cone without an orbit link, once
        # each, in build order and from its own generators' keys; every
        # other cone links to a representative built before it with as
        # many generators (of kind VII when it is; a six-dimensional orbit
        # may hold several types), which is among them: of the 2000
        # six-dimensional cones and 256 of kind VII at h = 3, 264 and 48
        walked = []
        cone_keys = fan._cone_keys
        monkeypatch.setattr(fan, "_cone_keys", lambda keys, spreads: walked.append(
            list(keys)) or cone_keys(keys, spreads))
        cones = fan.cone_index(3).cones
        assert len(cones) == 2256
        reps = [c for c in cones if c._orbit is None]
        assert walked == [[fan._sign_key(g) for g in c.generators] for c in reps]
        position = {id(c): pos for pos, c in enumerate(cones)}
        for pos, cone in enumerate(cones):
            if cone._orbit is not None:
                rep = cone._orbit[0]
                assert rep._orbit is None and position[id(rep)] < pos
                assert len(rep.generators) == len(cone.generators)
                assert (rep.kind == "VII") == (cone.kind == "VII")
        sizes = [len(keys) for keys in walked]
        assert sizes.count(6) == 264 and sizes.count(5) == 48
        assert sum(c.kind == "VII" for c in cones) == 256

    def test_one_face_walk_per_orbit(self, monkeypatch, cleared_index_cache):
        # a cone whose generators are a GAMMA24 image of a representative's
        # takes its keys, mapped: at h = 3 the faces of 312 cones are
        # walked, one per GAMMA24 orbit of either kind, and the listing is
        # still the face sign keys of every cone
        # (test_listing_is_the_face_sign_keys)
        walked = []
        cone_keys = fan._cone_keys
        monkeypatch.setattr(fan, "_cone_keys", lambda keys, spreads: walked.append(
            len(keys)) or cone_keys(keys, spreads))
        cones = fan.cone_index(3).cones
        orbits = {min(tuple(sorted(apply_perm(p, g) for g in c.generators)) for p in GAMMA24)
                  for c in cones}
        assert len(cones) == 2256
        assert len(walked) == len(orbits) == 312

    def test_key_tables(self):
        # each of the 24 entries maps v by its permutation and back, and
        # its table pair maps the sign key of v to that of the moved v
        rng = random.Random(15)
        table = fan._perm_table()
        perms = sorted(GAMMA24)
        assert len(table) == len(perms) == 24
        for p, (image, preimage, lo, hi) in zip(perms, table):
            for _ in range(200):
                v = tuple(rng.choice((0, rng.randint(-3, 3))) for _ in range(6))
                assert image(v) == apply_perm(p, v) and preimage(image(v)) == v
                key = fan._sign_key(v)
                assert lo[key & 1023] | hi[key >> 10] == fan._sign_key(apply_perm(p, v))

    def test_cone_without_collection_is_internal_error(self):
        gens = base_cone().generators
        with pytest.raises(InternalError, match="without its collection"):
            fan._ConeIndex([fan.Cone(gens, "I")])

    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_stars(self, height):
        idx = fan.cone_index(height)
        gens = {g for cone in idx.cones for g in cone.generators}
        assert set(idx.stars) == gens
        for g, positions in idx.stars.items():
            assert positions == {pos for pos, cone in enumerate(idx.cones)
                                 if g in cone.generators}

    def test_one_curve_per_generator(self):
        cone = base_cone()
        g = cone.generators
        other = fan.Cone(g[1:] + g[:1], cone.kind, cone.collection)
        with pytest.raises(InternalError):
            fan._ConeIndex([cone, other])

    @pytest.mark.parametrize("height", [1, 2])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_filter_agrees_with_full_scan(self, height, data):
        v = data.draw(query_vectors(height))
        idx = fan.cone_index(height)
        every = list(idx.containing(v))
        assert hit_list(every) == hit_list(oracle_containing(idx, v))
        check_distinct(v, every, list(idx.containing(v, distinct=True)))

    def test_fixed_sample_at_height_3(self):
        rng = random.Random(13)
        idx = fan.cone_index(3)
        vectors = [(0,) * 6, shear_closed_form(AllowableCurve(Slope(3, 2))),
                   (-2, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 1), (0, 1, 0, -1, 0, 0)]
        vii = next(c for c in idx.cones if c.kind == "VII")
        inside = cone_point(vii, [1] * 5)
        off = tuple(x + (i == 0) for i, x in enumerate(inside))
        vectors += [inside, off]
        for cone in rng.sample(idx.cones, 20):
            n = len(cone.generators)
            vectors.append(cone_point(cone, [rng.choice((0, 1, 2)) for _ in range(n)]))
            vectors.append(cone_point(cone, [1] * n))
        vectors += [tuple(rng.choice((0, rng.randint(-4, 4))) for _ in range(6))
                    for _ in range(20)]
        for v in vectors:
            every = list(idx.containing(v))
            assert hit_list(every) == hit_list(oracle_containing(idx, v)), v
            check_distinct(v, every, list(idx.containing(v, distinct=True)))
        # the kind-VII interior point is in its own cone only, and one step
        # off the cone's span it is not in that cone
        assert [c for c, _, _ in idx.containing(inside)] == [vii]
        assert membership(off, vii) is None
        assert all(c is not vii for c, _, _ in idx.containing(off))
        # a ray of the fan: in 268 cones, one of them enough for locate
        assert fan.count_containing_cones((-2, 0, 0, 0, 0, 0), 3) == 268
        assert len(list(idx.containing((-2, 0, 0, 0, 0, 0), distinct=True))) == 1

    def test_distinct_keeps_a_disagreeing_cone(self, monkeypatch):
        # the second cone has the first one's curves, but its generator
        # for the first curve is g0 + g1: v = g0 + g1 is in both, with
        # different weights, and only its generators decide the skip
        cone = base_cone()
        g = cone.generators
        merged = tuple(a + b for a, b in zip(g[0], g[1]))
        other = fan.Cone((merged,) + g[1:], cone.kind, cone.collection)
        idx = fan._ConeIndex([cone, other])
        v = merged
        assert [c for c, _, _ in idx.containing(v, distinct=True)] == [cone, other]
        monkeypatch.setattr(fan, "cone_index", lambda h: idx)
        with pytest.raises(InternalNonUnique):
            fan.locate(v, 1)


class TestMembershipKernel:
    """The dot products ``containing`` writes out over v's six coordinates
    against the ``sum(map(mul, ...))`` rows of :func:`oracle_containing`:
    the same cones in the same order, with the same nums and det, on
    entries beyond one 30-bit digit of a Python int."""

    BIG = 10**12

    def agrees(self, idx, height, v):
        got = raw_hits(idx.containing(v))
        assert got == raw_hits(oracle_containing(idx, v)), v
        assert fan.count_containing_cones(v, height) == len(got)
        return got

    @pytest.mark.parametrize("height", [2, 3])
    def test_large_entries(self, height):
        rng = random.Random(40 + height)
        idx = fan.cone_index(height)
        vectors = [tuple(rng.randint(-self.BIG, self.BIG) for _ in range(6))
                   for _ in range(30)]
        for cone in rng.sample(idx.cones, 30):
            vectors.append(cone_point(cone, [rng.choice((0, rng.randint(1, self.BIG)))
                                             for _ in cone.generators]))
        found = [self.agrees(idx, height, v) for v in vectors]
        assert sum(map(bool, found)) >= 30
        assert max(x for hits in found for _, nums, _ in hits for x in nums) > 2**40

    @pytest.mark.parametrize("height", [2, 3])
    def test_kind_vii_points_and_one_unit_off(self, height):
        # a point of a kind-VII cone is in it; one unit along a coordinate
        # where the normal is nonzero, it is off the span and not in it
        rng = random.Random(50 + height)
        idx = fan.cone_index(height)
        vii = [c for c in idx.cones if c.kind == "VII"]
        for cone in rng.sample(vii, 40):
            normal = cone._functionals[2]
            inside = cone_point(cone, [rng.choice((0, rng.randint(1, self.BIG)))
                                       for _ in cone.generators])
            i = rng.choice([i for i, n in enumerate(normal) if n])
            off = tuple(x + (j == i) for j, x in enumerate(inside))
            assert id(cone) in [k for k, _, _ in self.agrees(idx, height, inside)]
            assert id(cone) not in [k for k, _, _ in self.agrees(idx, height, off)]


def raw_hits(hits):
    """(cone, nums, det) triples as (id of the cone, nums, det)."""
    return [(id(cone), nums, det) for cone, nums, det in hits]


def hit_list(hits):
    """(cone, nums, det) triples as (id of the cone, coefficients)."""
    return [(id(cone), coefficients(nums, det)) for cone, nums, det in hits]


def check_distinct(v, every, some):
    """``some`` is the distinct scan: a subsequence of ``every``, one cone
    for a vector in the fan, and each cone left out has every generator
    of a kept cone's support, with the same weights."""
    kept = [id(c) for c, _, _ in some]
    assert kept == [i for i, _ in hit_list(every) if i in kept]
    assert len(some) == min(1, len(every))
    for cone, nums, det in every:
        if id(cone) in kept:
            continue
        weights = weights_of(cone, coefficients(nums, det))
        assert any(weights_of(c, coefficients(n, d)) == weights and all(
            gen in cone.generators for gen, x in zip(c.generators, n) if x)
            for c, n, d in some), v


class TestCounting:
    def test_closed_ray_in_sixteen_cones(self):
        v = shear_closed_form(AllowableCurve(Slope(1, 1)))
        idx = fan.cone_index(2)
        hits = list(idx.containing(v))
        assert len(hits) == 16
        assert all(c.kind == "VII" for c, _, _ in hits)

    def test_interior_point_in_one_cone(self):
        cone = base_cone()
        v = tuple(sum(g[i] for g in cone.generators) for i in range(6))
        assert fan.count_containing_cones(v, 1) == 1

    def test_zero_in_all(self):
        idx = fan.cone_index(1)
        assert fan.count_containing_cones((0,) * 6, 1) == len(idx.cones)


class TestVectorLists:
    def test_item1_fixture(self):
        from spherelam.shear import _item1

        assert _item1(1, 1) == (0, 1, 0, 0, 1, -1)

    def test_gvectors_equal_open_curve_shears(self):
        for h in (1, 2, 3):
            via_items = set(fan.g_vectors(h))
            via_curves = {
                shear_closed_form(c) for c in enumerate_curves(h) if not c.is_closed
            }
            assert via_items == via_curves

    def test_universal_forms_agree(self):
        for h in (1, 2, 4):
            assert fan.universal_coeffs(h, "thm12") == fan.universal_coeffs(h, "thm81")
        with pytest.raises(ValueError, match="unknown form 'thm13'"):
            fan.universal_raw(2, "thm13")

    def test_thm81_irredundant(self):
        raw = fan.universal_raw(3, "thm81")
        assert len(raw) == len(set(raw))

    def test_universal_sandwiched_by_curve_shears(self):
        # full orbits of height-h base slopes cover all curves of height h
        # and stay within the curves of height 2h (slope rotations can
        # double the height)
        vecs = set(fan.universal_coeffs(2, "thm81"))
        small = {shear_closed_form(c) for c in enumerate_curves(2)}
        large = {shear_closed_form(c) for c in enumerate_curves(4)}
        assert small <= vecs <= large

    def test_orbit_sizes(self):
        from spherelam.fan import THM12_ITEMS

        for s in (Slope(1, 1), Slope(2, 3), INF, Slope(3, 1)):
            sizes = [
                len({apply_perm(p, item(s.a, s.b)) for p in GAMMA24})
                for item in THM12_ITEMS
            ]
            assert sizes == [6, 6, 12, 3]


class TestAdjacency:
    def test_base_cone_neighbors(self):
        nbrs = fan.flip_adjacency(base_cone())
        assert len(nbrs) == 6
        assert all(c.kind == "II" for c in nbrs)

    def test_vii_neighbors(self):
        cone = fan.cone_of(fan.closed_collections(Slope(1, 1))[0])
        nbrs = fan.flip_adjacency(cone)
        assert len(nbrs) == 4
        assert all(c.kind == "VII" for c in nbrs)
        assert all(c != cone for c in nbrs)

    def test_shared_facets(self):
        # a flip neighbor shares exactly five generators
        cone = base_cone()
        for nbr in fan.flip_adjacency(cone):
            common = fan.cone_rays(cone) & fan.cone_rays(nbr)
            assert len(common) == 5
            rays, lines = fan.intersection_rays(cone, nbr)
            assert not lines and rays == common

    def test_type_iv_profile(self):
        from collections import Counter

        from spherelam.curves import V10, V11, Tagging
        from spherelam.triangulation import TriType, build_type

        # taggings live at M minus v': here at v00, v11 (pair ends) and v10
        spec = TriType(
            "IV", (Slope(1, 1), Slope(1, -1)), v=V00, v_prime=V01,
            taggings=((V00, Tagging.PLAIN), (V11, Tagging.PLAIN), (V10, Tagging.PLAIN)),
        )
        tri = build_type(spec)
        coll = fan.MaximalCollection(tuple(kappa(a) for a in tri.arcs), "IV")
        kinds = Counter(c.kind for c in fan.flip_adjacency(fan.cone_of(coll)))
        assert dict(kinds) == {"II": 2, "III": 1, "IV": 2, "V": 1}

    def test_interior_points_disjoint(self):
        # an interior point of one maximal cone lies in no other
        rng = random.Random(2)
        idx = fan.cone_index(1)
        for cone in rng.sample(idx.cones, 12):
            v = tuple(sum(g[i] for g in cone.generators) for i in range(6))
            hits = [c for c, _, _ in idx.containing(v)]
            assert hits == [cone]


class TestFanAxioms:
    def test_sampled_pairs(self):
        idx = fan.cone_index(1)
        report = fan.fan_check(idx.cones, trials=40, seed=5)
        assert report.ok

    def test_plane_p(self):
        for s in enumerate_slopes(4):
            assert in_plane_p(shear_closed_form(AllowableCurve(s)))
        for c in enumerate_curves(3):
            if not c.is_closed:
                assert not in_plane_p(shear_closed_form(c))

    def test_induced_torus(self):
        assert fan.induced_torus_check(1)


def _dd_both(c1, c2):
    """The integer double description of two cones' stacked H-representations
    and the Fraction reference's."""
    i1, e1 = fan._h_rep(c1)
    i2, e2 = fan._h_rep(c2)
    return (exactla.dd_rays(i1 + i2, eqs=e1 + e2, dim=6),
            dd_oracle.dd_rays(i1 + i2, eqs=e1 + e2, dim=6))


class TestDoubleDescriptionOracle:
    """dd_rays returns exactly what the Fraction double description of
    tests/dd_oracle.py returns, rays in order and lines, on the systems
    fan_check builds."""

    def test_flip_pairs(self):
        # every flip-adjacent pair from a cone of height <= 2, kind VII included
        pairs = {}
        for cone in fan.cone_index(2).cones:
            for nbr in fan.flip_adjacency(cone):
                pairs.setdefault(frozenset((cone, nbr)), (cone, nbr))
        assert sum(c.kind == "VII" for c, _ in pairs.values()) > 0
        for c1, c2 in pairs.values():
            got, want = _dd_both(c1, c2)
            assert got == want, (c1.generators, c2.generators)

    def test_criterion_09_pairs(self):
        # the 500 pairs fan_check samples in acceptance criterion 09
        cones = fan.cone_index(3).cones
        rng = random.Random(20240)
        for _ in range(500):
            c1, c2 = rng.sample(cones, 2)
            got, want = _dd_both(c1, c2)
            assert got == want, (c1.generators, c2.generators)


class TestOnePassBuild:
    """The cone index takes each type from the enumerator, builds each
    curve once, skips the pairwise re-check of the kappa images and finds
    one invertible block per cone; the former build is the oracle."""

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_index_equals_oracle(self, h):
        got = fan.cone_index(h).cones
        want = oracle_cones(h)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.kind == w.kind
            assert g.generators == w.generators
            assert g.collection == w.collection
            assert g.collection.curves == w.collection.curves

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_collections_pass_validation(self, h):
        for coll in fan.maximal_collections(h):
            assert fan.MaximalCollection(coll.curves, coll.kind) == coll

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_enumerator_type_is_classify(self, h):
        typed = list(triangulation._enumerate_typed(h))
        assert [tri for _, tri in typed] == list(enumerate_triangulations(h))
        for spec, tri in typed:
            assert classify(tri).tag == spec.tag

    def test_one_curve_object_per_key(self):
        # the sweep's triangulations hold the key of every arc of height
        # <= 3, and store no arc; the sixteen type-VII collections of a
        # slope share one curve per key
        keys = {key for _, tri in triangulation._enumerate_typed(3) for key in tri._keys}
        assert keys == {a._key for a in enumerate_arcs(3)}
        for slope in enumerate_slopes(3):
            spirals = {}
            for coll in fan.closed_collections(slope):
                for c in coll.curves[1:]:
                    assert spirals.setdefault(c._key, c) is c
            assert len(spirals) == 8

    def test_curves_shared_between_collections(self):
        colls = list(fan.maximal_collections(2))
        by_curve = {}
        for coll in colls:
            if coll.kind != "VII":
                for c in coll.curves:
                    assert by_curve.setdefault(c, c) is c
        assert len(by_curve) == len(enumerate_arcs(2))

    def test_flip_neighbours_pass_validation(self):
        rng = random.Random(4)
        cones = [c for c in fan.cone_index(2).cones if c.kind != "VII"]
        for cone in rng.sample(cones, 10):
            for nbr in fan.flip_adjacency(cone):
                coll = nbr.collection
                assert fan.MaximalCollection(coll.curves, coll.kind) == coll
                assert coll.kind == classify(triangulation.TaggedTriangulation(
                    tuple(kappa_inv(c) for c in coll.curves))).tag

    def test_one_tuple_per_row_value(self, cleared_index_cache):
        # the 13,280 functional rows of h = 3 take 473 values, each held
        # as one tuple, by the cones and by the index's entries alike
        idx = fan.cone_index(3)
        rows = [row for cone in idx.cones for row in cone._functionals[0]]
        assert len(rows) == 13280
        assert len(set(rows)) == len({id(row) for row in rows}) == 473
        listed = {id(row) for entries in idx.patterns.values()
                  for _, _, entry_rows, _, _ in entries for row in entry_rows}
        assert listed == {id(row) for row in rows}

    def test_stored_functionals(self):
        # a six-dimensional cone's rows are those of its own elimination
        # (they are unique); a kind-VII cone's are valid functionals
        for h in (1, 2, 3, 4):
            cones = fan.cone_index(h).cones
            assert {c.kind for c in cones} == {"I", "II", "III", "IV", "V", "VI", "VII"}
            for cone in cones:
                check_functionals(cone)
                if cone.kind != "VII":
                    assert cone._functionals == fan._cone_functionals(cone.generators)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_functionals_commute_with_gamma24(self, data):
        # the identity the memo rests on: the functionals of P . cone, with
        # its generators in any order, are those of the cone permuted by P
        cones = [c for c in fan.cone_index(2).cones if c.kind != "VII"]
        cone = data.draw(st.sampled_from(cones))
        p = data.draw(st.sampled_from(sorted(GAMMA24)))
        order = data.draw(st.permutations(range(6)))
        rows, det, normal = fan._cone_functionals(cone.generators)
        image = tuple(apply_perm(p, cone.generators[i]) for i in order)
        assert fan._cone_functionals(image) == ([apply_perm(p, rows[i]) for i in order],
                                                det, None)

    def test_one_elimination_per_orbit(self, monkeypatch, cleared_index_cache):
        sizes = []
        adjugate = exactla.adjugate
        monkeypatch.setattr(exactla, "adjugate", lambda m: sizes.append(len(m)) or adjugate(m))
        cones = fan.cone_index(3).cones
        assert len(cones) == 2256
        orbits = Counter(c.kind == "VII" for c in {
            min(tuple(sorted(apply_perm(p, g) for g in c.generators)) for p in GAMMA24): c
            for c in cones}.values())
        assert orbits == {False: 264, True: 48}
        # one elimination per GAMMA24 orbit of either kind, each on its
        # first block (2272 eliminations without the memo)
        assert sizes.count(6) == orbits[False]
        assert sizes.count(5) == orbits[True]
        assert len(sizes) == 312

    @pytest.mark.parametrize("key", [lambda gens, total: 0, lambda gens, total: total],
                             ids=["one-key", "total-only"])
    def test_shared_image_keys(self, monkeypatch, key, cleared_index_cache):
        # generator sets that share a key are told apart by their
        # generators: a lookup that finds another cone's image computes
        want = fan.cone_index(2)
        fan._cached_index.cache_clear()
        monkeypatch.setattr(fan, "_image_key", key)
        got = fan.cone_index(2)
        assert got is not want and len(got.cones) == len(want.cones)
        same_cones(got, want)

    def test_hit_does_not_depend_on_the_registering_permutation(self, monkeypatch,
                                                                  cleared_index_cache):
        # a key whose generator set several permutations give is stored
        # with the first of them; with GAMMA24 in reverse order another
        # one is stored, and it carries the same rows (valid ones for kind
        # VII) and the same sign keys to the same cones
        adjugate = exactla.adjugate
        table = fan._perm_table()

        def build():
            fan._cached_index.cache_clear()
            sizes = []
            monkeypatch.setattr(exactla, "adjugate",
                                lambda m: sizes.append(len(m)) or adjugate(m))
            images = {}
            for coll in fan.maximal_collections(2):
                fan._build_cone(coll, images, {})
            return fan.cone_index(2), sizes, images

        want, want_sizes, want_images = build()
        monkeypatch.setattr(fan, "_perm_table", lambda: table[::-1])
        got, got_sizes, got_images = build()
        assert got_images.keys() == want_images.keys()
        assert any(got_images[k][1] is not want_images[k][1] for k in want_images)
        assert any(g._orbit and g._orbit[1] is not w._orbit[1]
                   for g, w in zip(got.cones, want.cones))
        same_cones(got, want)
        assert got_sizes == want_sizes

    def test_repeated_generator_is_no_hit(self, monkeypatch):
        # a set with one generator twice is no image of a rank-6 cone,
        # even when its key is the memo's only key
        coll = base_cone().collection
        images = {}
        monkeypatch.setattr(fan, "_image_key", lambda gens, total: 0)
        fan._build_cone(coll, images, {})
        gens = [shear_closed_form(c) for c in coll.curves]
        table = dict(zip(coll.curves, gens[:5] + gens[:1]))
        monkeypatch.setattr(fan, "shear_closed_form", table.__getitem__)
        with pytest.raises(RankDeficient):
            fan._build_cone(coll, images, {})

    def test_hit_is_checked(self):
        # a hit links to its representative; a row that does not give det
        # on its generator, or a normal that does not vanish on every
        # generator (kind VII), raises InternalError, also under python -O
        for coll in (base_cone().collection, fan.closed_collections(Slope(2, 3))[0]):
            images = {}
            rep = fan._build_cone(coll, images, {})
            assert rep._orbit is None
            assert {id(c) for c, _ in images.values()} == {id(rep)}
            rows, det, normal = rep._functionals
            again = fan._build_cone(coll, images, {})
            assert again._functionals == (rows, det, normal) and again._orbit[0] is rep
            object.__setattr__(rep, "_functionals", (rows, det + 1, normal))
            with pytest.raises(InternalError, match="functionals"):
                fan._build_cone(coll, images, {})
            if coll.kind == "VII":
                shifted = tuple(x + (i == 0) for i, x in enumerate(normal))
                object.__setattr__(rep, "_functionals", (rows, det, shifted))
                with pytest.raises(InternalError, match="normal"):
                    fan._build_cone(coll, images, {})

    def test_no_oracle_on_the_hot_path(self, monkeypatch, cleared_index_cache):
        calls = {"classify": 0, "rank": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(triangulation, "classify",
                            counted("classify", triangulation.classify))
        monkeypatch.setattr(exactla, "rank", counted("rank", exactla.rank))
        assert len(fan.cone_index(2).cones) == 912
        assert calls == {"classify": 0, "rank": 0}

    def test_h_rep_reuses_functionals(self, monkeypatch):
        cones = fan.cone_index(1).cones
        calls = []
        adjugate = exactla.adjugate
        monkeypatch.setattr(exactla, "adjugate",
                            lambda m: calls.append(1) or adjugate(m))
        assert fan.fan_check(cones, trials=20, seed=3).ok
        assert calls == []
        # one block per built cone, none for its H-representation
        assert fan.induced_torus_check(1)
        triples = farey1_triples(enumerate_slopes(1))
        assert len(calls) == len(triples)

    def test_count_checks_the_vector_before_the_index(self, monkeypatch, cleared_index_cache):
        # a malformed vector raises before any cone is built, as in locate
        built = []
        monkeypatch.setattr(fan, "_maximal_cones", lambda h: built.append(h) or [])
        for v in ([1.5, 0, 0, 0, 0, 0], [1, 2, 3], None):
            with pytest.raises(MalformedInput):
                fan.count_containing_cones(v, 5)
        assert built == []
        assert fan.count_containing_cones((1, 0, 0, 0, 0, 0), 5) == 0 and built == [5]

    def test_index_cache_keeps_the_last_four_heights(self, monkeypatch, cleared_index_cache):
        # heights above 1 build no cones here, so the policy is checked
        # without the cost of their builds
        built = []
        maximal_cones = fan._maximal_cones
        monkeypatch.setattr(fan, "_maximal_cones",
                            lambda h: built.append(h) or (maximal_cones(h) if h == 1 else []))
        first = fan.cone_index(1)
        for h in range(2, 7):
            fan.cone_index(h)
        assert built == [1, 2, 3, 4, 5, 6]
        for h in (3, 4, 5, 6, 3):  # the last four are kept; 4 is now the oldest
            fan.cone_index(h)
        assert built == [1, 2, 3, 4, 5, 6]
        fan.cone_index(7)  # evicts 4
        fan.cone_index(3)
        fan.cone_index(4)  # built again, evicting 5
        fan.cone_index(6)
        assert built == [1, 2, 3, 4, 5, 6, 7, 4]
        again = fan.cone_index(1)  # evicted long ago: built again
        assert built[-1] == 1 and again is not first
        assert [(c.kind, c.generators, c.collection) for c in again.cones] == \
            [(c.kind, c.generators, c.collection) for c in first.cones]
        with pytest.raises(ValueError):
            fan.cone_index(True)  # no bool reaches the cache as height 1
        assert built[-1] == 1 and fan._cached_index.cache_info().currsize == 4

    def test_fan_check_builds_no_fraction(self, monkeypatch):
        # the fan check and the torus check run on integers only: building
        # any Fraction on their path, whoever imported the class, fails
        def no_fraction(cls, *args, **kwargs):
            raise AssertionError(f"Fraction{args} on the fan-check path")

        monkeypatch.setattr(Fraction, "__new__", no_fraction)
        assert not hasattr(exactla, "Fraction") and not hasattr(fan, "Fraction")
        assert fan.fan_check(fan.cone_index(1).cones, trials=20, seed=3).ok
        assert fan.induced_torus_check(1)


class TestCompatibilityCheckedOnce:
    def test_arcs_compatible_is_curves_compatible(self):
        arcs = enumerate_arcs(3)
        curves = [kappa(a) for a in arcs]
        for x, cx in zip(arcs, curves):
            for y, cy in zip(arcs, curves):
                assert arcs_compatible(x, y) == curves_compatible(cx, cy)

    @staticmethod
    def _dependent(monkeypatch, coll):
        # the last curve's vector becomes the sum of the first two
        gens = [shear_closed_form(c) for c in coll.curves]
        gens[-1] = tuple(a + b for a, b in zip(gens[0], gens[1]))
        table = dict(zip(coll.curves, gens))
        monkeypatch.setattr(fan, "shear_closed_form", table.__getitem__)

    def test_dependent_six_curves(self, monkeypatch):
        coll = base_cone().collection
        self._dependent(monkeypatch, coll)
        with pytest.raises(RankDeficient):
            fan.cone_of(coll)

    def test_dependent_kind_vii(self, monkeypatch):
        coll = fan.closed_collections(Slope(2, 3))[0]
        self._dependent(monkeypatch, coll)
        with pytest.raises(RankDeficient):
            fan.cone_of(coll)

    def test_generator_count_must_match_kind(self):
        coll = base_cone().collection
        with pytest.raises(RankDeficient):
            fan.cone_of(fan.MaximalCollection(coll.curves, "VII"))
