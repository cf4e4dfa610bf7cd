"""Value semantics of the immutable classes: the equality, hash, repr,
order and immutability that frozen dataclasses gave them, kept exactly
(error documents embed reprs; set orders and cone output follow hashes)."""

import pytest

from spherelam import fan
from spherelam._frozen import Frozen
from spherelam.curves import V00, V01, V10, V11, AllowableCurve, Puncture, SpiralDir, \
    TaggedArc, TaggedTriangulation, Tagging, base_triangulation, kappa
from spherelam.errors import RankDeficient
from spherelam.lattice import INF, MINUS_ONE, ZERO, Slope, UnimodularMap
from spherelam.render import RenderSpec
from spherelam.shear import QuasiLamination, Tangle
from spherelam.triangulation import TriType, classify

PLAIN_TAGS = ("((Puncture(i=0, j=0), <Tagging.PLAIN: 'plain'>), "
              "(Puncture(i=0, j=1), <Tagging.PLAIN: 'plain'>), "
              "(Puncture(i=1, j=0), <Tagging.PLAIN: 'plain'>), "
              "(Puncture(i=1, j=1), <Tagging.PLAIN: 'plain'>))")
ARC = TaggedArc(ZERO, ((V10, Tagging.NOTCHED), (V00, Tagging.PLAIN)))
CURVE = AllowableCurve(Slope(3, 2), ((V10, SpiralDir.CCW), (V00, SpiralDir.CW)))


def base_cone():
    coll = fan.MaximalCollection(tuple(kappa(a) for a in base_triangulation().arcs), "I")
    return fan.cone_of(coll)


# (value, its compared fields in order, an equal value built apart)
VALUES = [
    (Slope(2, 3), (2, 3), Slope(2, 3)),
    (UnimodularMap(((0, 1), (-1, -1))), (((0, 1), (-1, -1)),),
     UnimodularMap(((0, 1), (-1, -1)))),
    (V01, (0, 1), Puncture(0, 1)),
    (TriType("II", (Slope(1, 1), Slope(1, -1)), V00, None, ((V01, Tagging.NOTCHED),)),
     ("II", (Slope(1, -1), Slope(1, 1)), V00, None, ((V01, Tagging.NOTCHED),)),
     TriType("II", (Slope(1, -1), Slope(1, 1)), v=V00, taggings=((V01, Tagging.NOTCHED),))),
    (Tangle(((CURVE, 1), (AllowableCurve(ZERO), 2), (CURVE, -3))),
     (((AllowableCurve(ZERO), 2), (CURVE, -2)),),
     Tangle(((AllowableCurve(ZERO), 2), (CURVE, -2)))),
    (QuasiLamination(((CURVE, 2),)), (((CURVE, 2),),), QuasiLamination(((CURVE, 1), (CURVE, 1)))),
    (base_cone().collection, (base_cone().collection.curves, "I"), base_cone().collection),
    (RenderSpec(window=(0, 1, 0, 3)), ((), base_triangulation(), (0, 1, 0, 3)),
     RenderSpec((), base_triangulation(), (0, 1, 0, 3))),
]
IDS = [type(v[0]).__name__ for v in VALUES]


@pytest.mark.parametrize("value, fields, twin", VALUES, ids=IDS)
def test_equality_and_hash_are_those_of_the_field_tuple(value, fields, twin):
    assert value is not twin and value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(fields)
    assert value != fields and value.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("value, fields, twin", VALUES, ids=IDS)
def test_assignment_is_refused(value, fields, twin):
    for name in ("kind", "x", "_hash"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    with pytest.raises(AttributeError):
        del value.kind
    assert value == twin


def test_arcs_and_curves():
    assert hash(ARC) == hash(ARC._key)
    assert hash(CURVE) == hash(CURVE._key)
    assert hash(AllowableCurve(ZERO)) == hash((1, 0, 0, 0))
    assert ARC.ends == ((V00, Tagging.PLAIN), (V10, Tagging.NOTCHED))
    assert ARC == TaggedArc(ZERO, ((V00, Tagging.PLAIN), (V10, Tagging.NOTCHED)))
    # an arc and its kappa image share the integer key but are not equal
    assert kappa(ARC)._key == ARC._key and kappa(ARC) != ARC
    for x in (ARC, CURVE):
        with pytest.raises(AttributeError):
            x.slope = INF
    assert repr(AllowableCurve(Slope(2, 3))) == (
        "AllowableCurve(slope=Slope(a=2, b=3), ends=None, punctures=frozenset(), "
        "underlying=(Slope(a=2, b=3), frozenset()))")
    assert repr(ARC).startswith(
        "TaggedArc(slope=Slope(a=1, b=0), ends=((Puncture(i=0, j=0), <Tagging.PLAIN: 'plain'>), "
        "(Puncture(i=1, j=0), <Tagging.NOTCHED: 'notched'>)), punctures=frozenset({")


def test_reprs():
    assert repr(Slope(1, 2)) == "Slope(a=1, b=2)"
    assert repr(V01) == "Puncture(i=0, j=1)"
    assert repr(UnimodularMap(((1, 0), (0, 1)))) == "UnimodularMap(linear=((1, 0), (0, 1)))"
    assert repr(classify(base_triangulation())) == (
        "TriType(tag='I', slopes=(Slope(a=1, b=-1), Slope(a=1, b=0), Slope(a=0, b=1)), "
        f"v=None, v_prime=None, taggings={PLAIN_TAGS})")
    assert repr(Tangle(((AllowableCurve(ZERO), 2),))) == (
        "Tangle(weights=((AllowableCurve(slope=Slope(a=1, b=0), ends=None, "
        "punctures=frozenset(), underlying=(Slope(a=1, b=0), frozenset())), 2),))")
    assert repr(fan.FanReport(3, 0)) == "FanReport(pairs_checked=3, failures=0)"
    assert repr(RenderSpec(window=(0, 1, 0, 3))) == \
        f"RenderSpec(curves=(), triangulation={base_triangulation()!r}, window=(0, 1, 0, 3))"


def test_slope_has_no_value():
    # Slope.value was the only use of fractions in lattice
    assert not hasattr(Slope(1, 2), "value")


def test_puncture_order():
    assert sorted([V11, V10, V01, V00]) == [V00, V01, V10, V11]
    assert V00 < V01 < V10 < V11 and V11 > V10 > V01 > V00
    assert V01 <= V01 <= V10 and V10 >= V10 >= V01
    assert not V10 < V01 and not V01 >= V10
    with pytest.raises(TypeError):
        V00 < (0, 1)  # noqa: B015


def test_slope_order_and_validation():
    assert sorted([INF, ZERO, MINUS_ONE, Slope(2, 1)]) == [MINUS_ONE, ZERO, Slope(2, 1), INF]
    for a, b in ((-1, 1), (0, 2), (2, 4)):
        with pytest.raises(ValueError):
            Slope(a, b)
    assert Slope(a=3, b=-2) == Slope(3, -2)


def test_triangulation_equality_is_by_arc_set():
    # the set of arcs is the set of their keys, whose hashes are the arcs'
    t0 = base_triangulation()
    arcs = t0.arcs[::-1]
    t1 = TaggedTriangulation(arcs)
    assert t1.arcs == arcs and t1.arcs != t0.arcs
    assert t1._keys == tuple(a._key for a in arcs) and t1._keys != t0._keys
    assert t1 == t0 and hash(t1) == hash(t0) == hash(frozenset(arcs))
    assert hash(t0) == hash(frozenset(a._key for a in arcs))
    # the repr shows the arcs, built from the keys
    assert repr(t0) == f"TaggedTriangulation(arcs={t0.arcs!r})"
    for name in ("_keys", "_key_set", "arcs"):
        with pytest.raises(AttributeError):
            setattr(t0, name, None)


def test_cone_equality_is_canonical():
    cone = base_cone()
    gens = cone.generators
    twin = fan.Cone(tuple(tuple(2 * x for x in g) for g in reversed(gens)), "other")
    assert twin == cone and hash(twin) == hash(cone) == hash(cone.canonical())
    assert twin.generators != cone.generators
    assert fan.Cone(gens[:5], "I") != cone
    assert repr(cone).startswith(f"Cone(generators={gens!r}, kind='I', collection=Maximal")
    with pytest.raises(AttributeError):
        cone.kind = "II"
    # a frozen value: its functionals sit in a slot, and nothing is cached
    assert not hasattr(cone, "__dict__")


def _frozen_classes(cls=Frozen):
    for sub in cls.__subclasses__():
        yield sub
        yield from _frozen_classes(sub)


def test_no_frozen_value_has_an_instance_dict():
    # every class on the immutable base declares its own slots, none of
    # them "__dict__", so no value can be written to after it is built
    classes = list(_frozen_classes())
    assert {fan.Cone, fan.MaximalCollection, TaggedArc, Slope} <= set(classes)
    for cls in classes:
        slots = vars(cls).get("__slots__", ("__dict__",))
        assert "__dict__" not in ((slots,) if isinstance(slots, str) else slots), cls
    assert not hasattr(base_cone(), "__dict__")


def test_cone_of_dependent_generators_is_rank_deficient():
    gens = base_cone().generators
    doubled = tuple(2 * x for x in gens[0])
    with pytest.raises(RankDeficient):
        fan.Cone(gens[:5] + (doubled,), "I")
    with pytest.raises(RankDeficient):
        fan.Cone((gens[0], doubled, *gens[2:5]), "VII")


@pytest.mark.parametrize("count", [0, 1, 4, 7])
def test_cone_of_other_generator_counts_is_rank_deficient(count):
    # only five or six generators span a maximal cone; any other count is
    # refused up front, with the count named
    gens = base_cone().generators + ((1, 1, 1, 1, 1, 1),)
    with pytest.raises(RankDeficient, match=f"5 or 6 generators, not {count}$"):
        fan.Cone(gens[:count], "I")


def test_fan_report_stays_a_mutable_record():
    report = fan.FanReport(3, 0)
    assert report == fan.FanReport(3, 0) and report != fan.FanReport(3, 1)
    assert report.ok
    with pytest.raises(TypeError):
        hash(report)
    report.failures = 1
    assert not report.ok
