"""The triangulation readers on arc and slope objects, as they were before
they read integer arc keys; kept as oracles of the key versions.

- :func:`classify`: the Farey-2 pair by ``farey_distance`` of the arcs'
  slopes, the coinciding pairs by a ``Counter`` of ``underlying``, the
  degrees and the tags by scanning puncture sets and ends;
- :func:`lattice_frame`: the first Farey-1 pair of the slopes ordered as
  :class:`Slope` objects, by their number of arcs and then by slope; the
  image arcs by :func:`image`, each tag switched at a puncture whose first
  arc end is notched, by ``retag``; and :func:`pair_to_basis`, the basis
  change of a Farey-1 pair as the lattice module gave it, checking the
  determinant three times;
- :func:`degree_sequence`, :func:`all_plain` and :func:`height` on the
  arcs' punctures, tags and slopes;
- :func:`image`, an arc or curve moved by a lattice map through its slope
  and its ends, as :meth:`_ArcOrCurve.image` did before it moved keys;
- :func:`triple_to_basis`, the orientation-preserving map carrying the
  slope set of a Farey-1 triple onto the base triple, the basis change of
  type-I triangulations before the lattice frame;
- :func:`sort_key`, the curve order on a curve's slope and ends, as
  :meth:`AllowableCurve.sort_key` was before it read the key;
- :func:`type_i_triangulation`, six validating :class:`TaggedArc` objects
  through :func:`endpoint_sets` and the arc constructor of
  :class:`TaggedTriangulation`, as the type-I builder was before it
  assembled keys.
"""

import itertools
from collections import Counter

from spherelam.curves import PUNCTURES, Puncture, TaggedArc, TaggedTriangulation, Tagging, \
    endpoint_sets
from spherelam.errors import InternalError, NotFareyNeighbors, NotFareyTriple
from spherelam.lattice import BASE_TRIPLE, Slope, UnimodularMap, det2, farey_distance, \
    is_farey1_triple, standard_form
from spherelam.triangulation import TriType, _frame


def degree_sequence(tri):
    deg = {p: 0 for p in PUNCTURES}
    for arc in tri.arcs:
        for p in arc.punctures:
            deg[p] += 1
    return tuple(sorted(deg.values()))


def all_plain(tri):
    return all(t is Tagging.PLAIN for arc in tri.arcs for _, t in arc.ends)


def height(tri):
    return max(arc.slope.height for arc in tri.arcs)


def classify(tri):
    arcs = tri.arcs
    f2 = next(((x, y) for x, y in itertools.combinations(arcs, 2)
               if x.punctures == y.punctures and x.slope != y.slope
               and farey_distance(x.slope, y.slope) == 2), None)
    pairs = [pts for (_, pts), n in
             Counter(arc.underlying for arc in arcs).items() if n == 2]
    kind = {(3, 3, 3, 3): "I", (2, 2, 4, 4): "III" if pairs else "II", (2, 2, 3, 5): "IV",
            (2, 2, 2, 6): "V" if f2 else "VI"}[degree_sequence(tri)]
    slopes = (f2[0].slope, f2[1].slope) if f2 else tuple({arc.slope for arc in arcs})
    v = v_prime = None
    if kind in ("II", "III"):
        v = min(f2[0].punctures)
    elif kind != "I":
        v = max(PUNCTURES, key=lambda p: sum(p in arc.punctures for arc in arcs))
    if kind in ("III", "IV"):
        v_prime = next(p for pts in pairs if v in pts for p in pts if p != v)
    taggings = []
    bits = [None if p is None else 2 * p.i + p.j for p in (v, v_prime)]
    for p in [PUNCTURES[n] for n in _frame(kind, [s.vector for s in slopes], *bits)[-1]]:
        seen = {t for arc in arcs for q, t in arc.ends if q == p}
        if len(seen) != 1:
            raise InternalError(f"mixed tags at v{p} outside a coinciding end")
        taggings.append((p, seen.pop()))
    return TriType(kind, slopes, v=v, v_prime=v_prime, taggings=tuple(taggings))


def pair_to_basis(s, t):
    """Orientation-preserving lattice map L with L(s) = (1, 0) and
    L(t) = (0, det(s, t)) for a Farey-1 pair s, t (slope objects or their
    lattice vectors): s goes to slope 0 and t to slope inf."""
    delta = det2(s, t)
    if abs(delta) != 1:
        raise NotFareyNeighbors(f"{s} and {t} are not Farey neighbors")
    a1, b1 = s.vector if isinstance(s, Slope) else s
    a2, b2 = t.vector if isinstance(t, Slope) else t
    return UnimodularMap(((delta * b2, -delta * a2), (-b1, a1)))


def lattice_frame(keys):
    count = Counter(Slope(a, b) for a, b, _, _ in keys)
    slopes = sorted(count, key=lambda s: (-count[s], s))
    pair = next(((s, t) for s, t in itertools.combinations(slopes, 2)
                 if farey_distance(s, t) == 1), None)
    if pair is None:
        raise InternalError("no Farey-1 pair of slopes among " + ", ".join(map(str, sorted(count))))
    m = pair_to_basis(*pair)
    arcs = [TaggedArc._of_key(key) for key in keys]
    for p in PUNCTURES:
        first = next(dict(a.ends)[p] for a in arcs if p in a.punctures)
        if first is Tagging.NOTCHED:
            arcs = [a.retag(p, Tagging.PLAIN if dict(a.ends)[p] is Tagging.NOTCHED
                            else Tagging.NOTCHED) if p in a.punctures else a for a in arcs]
    return m, [image(a, m)._key for a in arcs]


def image(x, m):
    ends = None if x.ends is None else tuple(
        (Puncture(*(c % 2 for c in m.apply_vector((p.i, p.j)))), d) for p, d in x.ends)
    return type(x)(m.apply_slope(x.slope), ends)


def _chirality(u1, u2, u3):
    return det2(u1, u2) * det2(u3, u1) * det2(u3, u2)


def triple_to_basis(triple):
    """The first two slopes go to the 0/inf directions when the ordered
    triple allows a det = +1 map; otherwise their roles swap."""
    q1, q2, q3 = triple
    if not is_farey1_triple(q1, q2, q3):
        raise NotFareyTriple(f"({q1}, {q2}, {q3}) is not a Farey-1 triple")
    u1, u2, u3 = q1.vector, q2.vector, q3.vector
    if _chirality(u1, u2, u3) == -1:
        u1, u2 = u2, u1
    m = pair_to_basis(u1, u2)
    if tuple(m.apply_slope(standard_form(*u)) for u in (u1, u2, u3)) != BASE_TRIPLE:
        raise InternalError(f"the basis change of {triple} misses (0, inf, -1)")
    return m


def sort_key(curve):
    if curve.ends is None:
        return (curve.slope.a, curve.slope.b, 0, ())
    return (curve.slope.a, curve.slope.b, 1,
            tuple((p.i, p.j, d.value) for p, d in curve.ends))


def type_i_triangulation(triple, taggings=tuple((p, Tagging.PLAIN) for p in PUNCTURES)):
    if not is_farey1_triple(*triple):
        raise NotFareyTriple(f"({', '.join(map(str, triple))}) is not a Farey-1 triple")
    tags = dict(taggings)
    if len(tags) != len(taggings) or set(tags) != set(PUNCTURES):
        raise ValueError("taggings must cover each puncture exactly once")
    return TaggedTriangulation(tuple(
        TaggedArc(s, tuple((p, tags[p]) for p in endpoint_sets(s)[which]))
        for which in (0, 1) for s in triple))
