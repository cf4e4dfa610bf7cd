"""Maximal compatible curve collections and the rational
quasi-lamination fan.

Maximal collections are the kappa images of tagged triangulations (types
I-VI, six curves) together with the collections built around one closed
curve (type VII, five curves).  Their nonnegative spans are the maximal
cones of the fan; cones, their functionals and every answer are integers.

A :class:`Cone` is a frozen value whose membership functionals are found
when it is built, as its rank check.  :func:`cone_index` builds every
maximal cone up to a height with one memo under the coordinate group
``GAMMA24``: the first cone of each orbit, of either kind, finds its
functionals by one exact elimination, and each later cone of the orbit
takes them from it, moved by the permutation that maps one onto the
other.

The index lists each cone under the sign keys its points can have, over
ten integer forms: the six coordinates, the three pair differences
v_i - v_(i+3), which vanish on every closed curve and so split the fan
along the kind-VII directions, and the coordinate total, which is a
lamination's spiral balance.  ``GAMMA24`` maps the ten forms to forms,
some negated, so it maps sign keys by a signed bit permutation: the index
reads the keys of each orbit's first cone from its faces, and carries
them to the others through the link the cone build left.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from operator import itemgetter, mul
from typing import Iterator, Sequence

from . import exactla
from ._frozen import Frozen
from .curves import (
    AllowableCurve,
    TaggedTriangulation,
    _MASK_BITS,
    _SLOPE_MASKS,
    curves_compatible,
    type_i_triangulation,
)
from .errors import BoundExhausted, InternalError, InternalNonUnique, MalformedInput, \
    RankDeficient
from .lattice import Slope, check_height, enumerate_slopes, farey1_triples
from .shear import GAMMA24, PERM_X, QuasiLamination, ShearVector, apply_perm, \
    shear_closed_form

# The coefficient lists live in .coefficients, which nothing here uses;
# their names are read from this module too, and load it on first use.
_COEFFICIENT_NAMES = frozenset({"THM12_ITEMS", "g_vectors", "universal_coeffs", "universal_raw"})


def __getattr__(name: str):
    if name in _COEFFICIENT_NAMES:
        from . import coefficients

        return getattr(coefficients, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

# ---------------------------------------------------------------------------
# Maximal collections
# ---------------------------------------------------------------------------


class MaximalCollection(Frozen):
    """A maximal set of pairwise compatible allowable curves: six curves
    (kind I-VI, the kappa image of a triangulation) or five with one
    closed curve (kind VII)."""

    __slots__ = _fields = ("curves", "kind")
    curves: tuple[AllowableCurve, ...]
    kind: str

    def __init__(self, curves: tuple[AllowableCurve, ...], kind: str) -> None:
        curves = tuple(sorted(set(curves), key=AllowableCurve.sort_key))
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "kind", kind)
        closed = [c for c in curves if c.is_closed]
        expected = 5 if closed else 6
        if len(closed) > 1 or len(curves) != expected:
            raise ValueError("a maximal collection has 6 curves, or 5 with a closed one")
        for x, y in itertools.combinations(curves, 2):
            if not curves_compatible(x, y):
                raise ValueError(f"incompatible curves {x}, {y}")

    @classmethod
    def of_triangulation(
        cls,
        tri: TaggedTriangulation,
        kind: str,
        memo: dict[tuple[int, int, int, int], tuple[tuple, AllowableCurve]] | None = None,
    ) -> MaximalCollection:
        """The kappa image of a triangulation, with its type tag.

        The pairwise check of the constructor is skipped: the
        triangulation's constructor has run it on the arc keys, and two
        spiraling curves are compatible exactly when their arcs are.  Each
        curve is built from its arc's key, which ``kappa`` keeps; ``memo``
        maps keys to curves and their sort keys across calls, so
        collections that share an arc share its curve object."""
        memo = {} if memo is None else memo
        entries = []
        for key in tri._keys:
            entry = memo.get(key)
            if entry is None:
                curve = AllowableCurve._of_key(key)
                entry = memo[key] = (curve.sort_key(), curve)
            entries.append(entry)
        entries.sort(key=itemgetter(0))
        coll = object.__new__(cls)
        object.__setattr__(coll, "curves", tuple(curve for _, curve in entries))
        object.__setattr__(coll, "kind", kind)
        return coll


def closed_collections(slope: Slope) -> list[MaximalCollection]:
    """The sixteen type-VII collections around the closed curve of a given
    slope: the kappa image of one coinciding pair of arcs in each of the
    two endpoint pairs, one curve object per arc key."""
    from .triangulation import _coinciding_pair

    vector, masks = slope.vector, _SLOPE_MASKS[2 * (slope.a & 1) + (slope.b & 1)]
    closed = AllowableCurve(slope)
    memo: dict[tuple[int, int, int, int], AllowableCurve] = {}
    out = []
    for v, v2, t, t2 in itertools.product(*[_MASK_BITS[mask] for mask in masks], (0, 1), (0, 1)):
        keys = _coinciding_pair(vector, v, t << v) + _coinciding_pair(vector, v2, t2 << v2)
        curves = [memo.get(key) or memo.setdefault(key, AllowableCurve._of_key(key))
                  for key in keys]
        out.append(MaximalCollection((closed, *curves), "VII"))
    return out


def maximal_collections(max_height: int) -> Iterator[MaximalCollection]:
    """Kappa images of all triangulations plus all type-VII collections,
    with slope parameters bounded by max_height."""
    from .triangulation import _enumerate_typed

    memo: dict[tuple[int, int, int, int], tuple[tuple, AllowableCurve]] = {}
    for spec, tri in _enumerate_typed(max_height):
        yield MaximalCollection.of_triangulation(tri, spec.tag, memo)
    for slope in enumerate_slopes(max_height):
        yield from closed_collections(slope)


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------


_Functionals = tuple[list[tuple[int, ...]], int, tuple[int, ...] | None]


class Cone(Frozen):
    """Nonnegative span of the five or six shear vectors of a maximal
    collection; simplicial by construction.  Its functionals are found
    when it is built (:func:`_cone_functionals`), which raises
    RankDeficient on dependent generators or on any other count of them.
    Equal to any cone with the same primitive generators."""

    __slots__ = ("generators", "kind", "collection", "_functionals", "_orbit")
    _fields = ("generators", "kind", "collection")
    generators: tuple[ShearVector, ...]
    kind: str
    collection: MaximalCollection | None
    _functionals: _Functionals
    _orbit: tuple[Cone, _Perm] | None   # the link of :func:`_build_cone`, if any

    def __init__(self, generators: tuple[ShearVector, ...], kind: str,
                 collection: MaximalCollection | None = None) -> None:
        self._freeze(generators, kind, collection, _cone_functionals(generators), None)

    @classmethod
    def _of_functionals(cls, *fields) -> Cone:
        """The cone of (generators, kind, collection, functionals, orbit),
        with the functionals found and checked by the caller."""
        cone = object.__new__(cls)
        cone._freeze(*fields)
        return cone

    def _freeze(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        # the constructor has proved the generators independent
        return len(self.generators)

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        # computed when asked, so building the cone index does not pay for it
        return tuple(sorted(exactla.primitive(g) for g in self.generators))

    def __eq__(self, other) -> bool:
        return isinstance(other, Cone) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())


def _generators(coll: MaximalCollection) -> tuple[ShearVector, ...]:
    """The shear vectors of a collection's curves, in its curve order:
    six for kinds I-VI, five for kind VII, else RankDeficient."""
    gens = tuple(map(shear_closed_form, coll.curves))
    if len(gens) != (5 if coll.kind == "VII" else 6):
        raise RankDeficient(f"kind {coll.kind} cone has {len(gens)} generators")
    return gens


def cone_of(coll: MaximalCollection) -> Cone:
    """The maximal cone of a collection; generators stay aligned with the
    collection's curve order.  Rank 6 for kinds I-VI, 5 for kind VII,
    checked by finding the cone's functionals by one exact elimination:
    an invertible r x r block of generator coordinates exists exactly when
    the r generators have rank r."""
    return Cone(_generators(coll), coll.kind, coll)


# For each permutation p of GAMMA24 (:func:`_perm_table`): (image, preimage,
# lo, hi), image(v) = apply_perm(p, v) and preimage its inverse, each one C
# call, and the sign key of image(v) is lo[key & 1023] | hi[key >> 10].
_Perm = tuple[itemgetter, itemgetter, list[int], list[int]]
# For one cone_index build: the key of each GAMMA24 image of a
# representative's generators -> (the first representative, and its first
# entry, that gave the key).
_Images = dict[int, tuple[Cone, _Perm]]
# For one cone_index build: each functional row value -> the one tuple that holds it.
_SharedRows = dict[tuple[int, ...], tuple[int, ...]]


@functools.cache
def _perm_table() -> list[_Perm]:
    """The entry of each permutation p of ``GAMMA24``, in sorted order.

    p keeps the pairs {i, i + 3}, so it maps the ten forms of
    :func:`_sign_key` to forms: form i of v is form p[i] of
    apply_perm(p, v) for a coordinate; v_i - v_(i+3) is difference
    p[i] mod 3, negated when p[i] >= 3; the total stays.  The two tables
    are that bit permutation on the positive and on the negative bits,
    each value held once across the 48 tables."""
    out, values = [], {}
    for p in sorted(GAMMA24):
        target = [*p, *(6 + p[i] % 3 for i in range(3)), 9]
        negated = [False] * 6 + [p[i] >= 3 for i in range(3)] + [False]
        tables = []
        for negative in (False, True):
            table = [0]
            for i in range(10):
                bit = 1 << target[i] + 10 * (negative != negated[i])
                table += [t | bit for t in table]
            tables.append([values.setdefault(t, t) for t in table])
        out.append((itemgetter(*sorted(range(6), key=p.__getitem__)), itemgetter(*p), *tables))
    return out


def _image_key(gens, total: int) -> int:
    """The key of a generator set in an ``_Images`` memo: a hash of the
    set of generators (no sort: a frozenset hashes its members in any
    order) and of their coordinate total, which no coordinate permutation
    changes.  Two sets may share a key (as ints, -1 and -2 hash alike),
    so :func:`_moved_functionals` compares the generators themselves."""
    return hash((frozenset(gens), total))


def _build_cone(coll: MaximalCollection, images: _Images, shared: _SharedRows) -> Cone:
    """The cone of :func:`cone_of`, in one :func:`cone_index` build.

    A cone whose generators are a ``GAMMA24`` image of those of a
    representative built before it takes the representative's functionals
    moved (:func:`_moved_functionals`), and keeps (representative, entry)
    in ``_orbit``, by which the index carries the representative's sign
    keys.  Any other cone is a representative: one elimination finds its
    functionals, and its images under all 24 permutations join ``images``.
    Every row is taken from ``shared``."""
    gens = _generators(coll)
    total = sum(map(sum, gens))
    hit = images.get(_image_key(gens, total))
    if hit is not None:
        # two images of one representative can share a key: the stored
        # permutation first, then every other
        rep, first = hit
        for entry in (first, *_perm_table()):
            functionals = _moved_functionals(gens, rep, entry, shared)
            if functionals is not None:
                link = hit if entry is first else (rep, entry)
                return Cone._of_functionals(gens, coll.kind, coll, functionals, link)
    cone = Cone._of_functionals(gens, coll.kind, coll, _cone_functionals(gens, shared), None)
    for entry in _perm_table():
        images.setdefault(_image_key(map(entry[0], gens), total), (cone, entry))
    return cone


def _moved_functionals(gens, rep: Cone, entry: _Perm,
                       shared: _SharedRows) -> _Functionals | None:
    """The functionals of the generators from the representative R, if
    the entry's permutation P maps R's generators one to one onto them;
    else None.  Generator c is then P applied to generator P^-1 c of R,
    and (P f) . (P g) = f . g: R's rows and normal, moved by P, give the
    same coefficients on the span and vanish on it.  For r = 6 these are
    the rows of :func:`_cone_functionals`, as |det| M^-1 for the generator
    matrix M is unique; for r = 5 they are those of the block P moves R's
    block to.  Each hit is checked, with InternalError: row k must give
    det on generator k, and the normal 0 on every generator."""
    image, preimage = entry[0], entry[1]
    rows, det, normal = rep._functionals
    position = dict(zip(rep.generators, range(len(rows))))
    picked = list(map(position.get, map(preimage, gens)))
    if len(picked) != len(rows) or set(picked) != set(range(len(rows))):
        return None
    functionals = [shared.setdefault(row, row) for row in [image(rows[k]) for k in picked]]
    for (a, b, c, d, e, f), (g0, g1, g2, g3, g4, g5) in zip(functionals, gens):
        if a * g0 + b * g1 + c * g2 + d * g3 + e * g4 + f * g5 != det:
            raise InternalError(f"permuted functionals do not invert the generators {gens}")
    if normal is not None:
        normal = image(normal)
        if any(sum(map(mul, normal, g)) for g in gens):
            raise InternalError(f"permuted normal is not normal to the generators {gens}")
    return functionals, det, normal


def _cone_functionals(generators: Sequence[ShearVector],
                      shared: _SharedRows | None = None) -> _Functionals:
    """(rows, det, normal) of r independent generators, r = 5 or 6
    (RankDeficient for any other r, or if they are dependent): integer
    6-vectors f_k and det > 0 with coefficient k of v equal to
    f_k . v / det for every v in their span, and for r = 5 a normal n with
    v in the span iff n . v == 0 (None for r = 6).

    The f_k are the adjugate rows of the first r x r block of generator
    coordinates (rows in lexicographic order) that is invertible, signed
    so det > 0, with zeros at the coordinates left out of the block.
    Each row is taken from ``shared`` when given."""
    r = len(generators)
    if r not in (5, 6):
        raise RankDeficient(f"a maximal cone has 5 or 6 generators, not {r}")
    cols = [list(col) for col in zip(*generators)]
    for rows in itertools.combinations(range(6), r):
        adj, det = exactla.adjugate([cols[i] for i in rows])
        if adj is not None:
            break
    else:
        raise RankDeficient(f"no invertible {r} x {r} block of generator coordinates")
    sign = 1 if det > 0 else -1
    functionals = []
    for row in adj:
        full = [0] * 6
        for val, i in zip(row, rows):
            full[i] = sign * val
        row = tuple(full)
        functionals.append(row if shared is None else shared.setdefault(row, row))
    det *= sign
    if r == 6:
        return functionals, det, None
    # the left-out coordinate i: v_i * det == sum_k cols[i][k] * (f_k . v)
    (i,) = set(range(6)) - set(rows)
    normal = tuple(
        det * (j == i) - sum(c * f[j] for c, f in zip(cols[i], functionals))
        for j in range(6)
    )
    return functionals, det, normal


def _sign_key(v) -> int:
    """The signs of the ten forms of a 6-vector as one int: the forms
    are v_0, ..., v_5, v_0 - v_3, v_1 - v_4, v_2 - v_5 and the total
    v_0 + ... + v_5, and form i sets bit i when > 0, bit 10 + i when < 0."""
    v0, v1, v2, v3, v4, v5 = v
    key = 0
    for i, x in enumerate((v0, v1, v2, v3, v4, v5, v0 - v3, v1 - v4, v2 - v5,
                           v0 + v1 + v2 + v3 + v4 + v5)):
        if x > 0:
            key |= 1 << i
        elif x < 0:
            key |= 1024 << i
    return key


def _face_patterns(face: int) -> list[int]:
    """The sign keys a positive combination of generators can have, given
    the OR of their sign keys: a form where they have both signs may
    take any sign, every other form takes theirs."""
    pos, neg = face & 1023, face >> 10
    both = pos & neg
    out = [(pos ^ both) | (neg ^ both) << 10]
    for i in range(10):
        if both >> i & 1:
            out += [s | 1 << i for s in out] + [s | 1024 << i for s in out]
    return out


def _cone_keys(gen_keys: list[int], spreads: dict[int, list[int]]) -> set[int]:
    """The sign keys of the points of a cone, from its generators' keys:
    a point is a positive combination of the generators of one face, so
    its key is one of the ``_face_patterns`` of the OR of theirs, which is
    that OR itself when no form has both signs on the face.  ``spreads``
    (one per build) holds the patterns of each set of forms with both
    signs, as a face key."""
    keys = {0}   # the OR of the sign keys of each face's generators
    for key in gen_keys:
        keys.update([f | key for f in keys])
    mixed = [f for f in keys if f & f >> 10]
    keys.difference_update(mixed)
    for f in mixed:
        # the patterns of f: its signs on the forms where it has one sign,
        # OR each pattern of the forms where it has both
        both = (f & f >> 10) * 1025
        spread = spreads.get(both)
        if spread is None:
            spread = spreads[both] = _face_patterns(both)
        f &= ~both
        keys.update([f | s for s in spread])
    return keys


class _ConeIndex:
    """Maximal cones with their integer functionals, listed under the sign
    keys their points can have.

    A key holds the signs of ten integer forms of a point v: its six
    coordinates, the three pair differences v_i - v_(i+3) and the total
    v_0 + ... + v_5.  The differences vanish on every closed curve's shear
    vector, so they split the fan along the kind-VII directions, where the
    coordinates alone list a cone under many keys its points never have.
    The total of a curve's shear vector is half its counterclockwise ends
    less its clockwise ones (0 when closed), so on a lamination it is the
    weighted spiral balance.  At h = 3 the 2256 cones have 101,238
    listings under 5729 keys, and a ``fan-locate`` query finds a mean of
    37 cones under its key and tests 15 to 24 of them, against 58 and 38
    to 52 by the first nine forms.
    ``patterns[key]`` lists, in ``cones`` order, the cones with a point
    that may have the key (:func:`_cone_keys`), and ``containing(v)``
    tests only the cones listed under v's key.  The build reads the keys
    of a cone without an orbit link (``Cone._orbit``, left by
    :func:`_build_cone`) from its faces, 312 of the 2256 at h = 3, one per
    ``GAMMA24`` orbit; a linked cone takes its representative's keys
    through its permutation's two key tables.
    ``stars[g]`` holds the positions in ``cones`` of the cones with
    generator g; the build checks that each cone has its collection and
    that each generator is the shear vector of one curve."""

    def __init__(self, cones: list[Cone]):
        from array import array

        self.cones = cones
        patterns: dict[int, list] = defaultdict(list)
        # each generator's first curve, sign key and star
        seen: dict[ShearVector, tuple[AllowableCurve, int, set[int]]] = {}
        spreads: dict[int, list[int]] = {}
        walked: dict[int, array] = {}   # id of each walked cone -> its keys, as C longs
        for pos, cone in enumerate(cones):
            if cone.collection is None:
                raise InternalError("indexed cone without its collection")
            gen_keys = []
            for curve, g in zip(cone.collection.curves, cone.generators):
                known = seen.get(g)
                if known is None:
                    known = seen[g] = (curve, _sign_key(g), set())
                first, key, star = known
                if first is not curve and first != curve:
                    raise InternalError(f"{first} and {curve} have one shear vector {g}")
                star.add(pos)
                gen_keys.append(key)
            entry = (pos, cone, *cone._functionals)
            link = cone._orbit
            keys = None if link is None else walked.get(id(link[0]))
            if keys is None:
                keys = walked[id(cone)] = array("l", _cone_keys(gen_keys, spreads))
            else:
                lo, hi = link[1][2], link[1][3]
                keys = [lo[k & 1023] | hi[k >> 10] for k in keys]
            for key in keys:
                patterns[key].append(entry)
        patterns.default_factory = None   # a plain dict from here on, without a copy
        self.patterns = patterns
        self.stars = {g: star for g, (_, _, star) in seen.items()}

    def containing(self, v, distinct: bool = False
                   ) -> Iterator[tuple[Cone, tuple[int, ...], int]]:
        """The cones containing v, in ``cones`` order, each as (cone, nums,
        det): v's coefficient on generator k is nums[k] / det.

        v is a tuple of six ints.  A listed cone contains v when its normal,
        if it has one (kind VII), gives n . v == 0 and every functional row
        gives f_k . v >= 0; nums[k] is f_k . v.  Each dot product is
        written out over v's six coordinates, unpacked once, with each row
        unpacked in the loop header, because a scan tests about 50 rows a
        query at h = 3 and ``sum(map(mul, row, v))`` would build an
        iterator for each.  A cone is dropped on its first negative row.

        With ``distinct``, a cone is left out when it has every generator
        with a positive coefficient in a cone already yielded: its
        generators are independent, so v has the same coefficients on
        those generators, which are the same curves, and 0 on its others."""
        known: set[int] = set()
        v0, v1, v2, v3, v4, v5 = v
        for pos, cone, rows, det, normal in self.patterns.get(_sign_key(v), ()):
            if pos in known:
                continue
            if normal is not None:
                a, b, c, d, e, f = normal
                if a * v0 + b * v1 + c * v2 + d * v3 + e * v4 + f * v5:
                    continue
            s = []
            for a, b, c, d, e, f in rows:
                x = a * v0 + b * v1 + c * v2 + d * v3 + e * v4 + f * v5
                if x < 0:
                    break
                s.append(x)
            else:
                if distinct:
                    stars = [self.stars[g] for g, x in zip(cone.generators, s) if x]
                    known.update(set.intersection(*stars) if stars else range(len(self.cones)))
                yield cone, tuple(s), det


def cone_index(max_height: int) -> _ConeIndex:
    """The index of every maximal cone at the given height, checked before
    the cache.  The last four heights used are kept (one index at h = 10
    holds about 28 MB, traced, and its build peaks at about 46 MB of
    RSS): a command line call builds one height, the ``fan-locate``
    benchmark uses 3, the self-test 2 and the tests several.
    One build makes one exact elimination and one face walk per
    ``GAMMA24`` orbit of its cones (:func:`_build_cone`); its memos live
    for that build."""
    check_height(max_height)
    return _cached_index(max_height)


@functools.lru_cache(maxsize=4)
def _cached_index(max_height: int) -> _ConeIndex:
    return _ConeIndex(_maximal_cones(max_height))


def _maximal_cones(max_height: int) -> list[Cone]:
    """Every maximal cone at the height, in build order, with one
    ``GAMMA24`` images memo and one table of shared rows
    (:func:`_build_cone`)."""
    images: _Images = {}
    shared: _SharedRows = {}
    return [_build_cone(c, images, shared) for c in maximal_collections(max_height)]


def _shear_vector(v) -> ShearVector:
    """v as a tuple of six ints; any other input (a float or bool entry,
    fewer or more entries, no sequence) raises MalformedInput."""
    try:
        out = tuple(v)
    except TypeError:
        raise MalformedInput(f"a shear vector is six integers, not {v!r}") from None
    if len(out) != 6 or any(type(x) is not int for x in out):
        raise MalformedInput(f"a shear vector is six integers, not {v!r}")
    return out


def locate(v: Sequence[int], max_height: int = 6) -> QuasiLamination:
    """The unique quasi-lamination with the given integer shear vector,
    searched over all maximal cones at the given height."""
    check_height(max_height)
    v = _shear_vector(v)
    if not any(v):
        return QuasiLamination(())
    index = cone_index(max_height)
    # the weights of every containing cone must agree: those the distinct
    # scan leaves out do by construction, the others are compared here.  The
    # curves come from one indexed collection, whose pairwise compatibility
    # was checked when its triangulation (or kind-VII collection) was built,
    # and which lists them in sort_key order, so the lamination skips that
    # check and the merge and sort
    found: dict[AllowableCurve, int] | None = None
    for cone, nums, det in index.containing(v, distinct=True):
        weights = {}
        for curve, x in zip(cone.collection.curves, nums):
            if x == 0:
                continue
            if x % det:
                raise InternalError(f"non-integer weight {x}/{det} for integer input")
            weights[curve] = x // det
        if found is None:
            found = weights
        elif weights != found:
            raise InternalNonUnique("ambiguous location across containing cones")
    if found is None:
        raise BoundExhausted(
            f"no cone at height {max_height} contains {v}; raise max_height"
        )
    return QuasiLamination._of_compatible(tuple(found.items()))


def count_containing_cones(v: Sequence[int], max_height: int = 6) -> int:
    """Number of distinct maximal cones whose span contains v, which is
    checked before any index is built."""
    v = _shear_vector(v)
    return sum(1 for _ in cone_index(max_height).containing(v))


# ---------------------------------------------------------------------------
# Adjacency, fan axioms, torus cross-check
# ---------------------------------------------------------------------------


def flip_adjacency(cone: Cone) -> list[Cone]:
    """Neighboring maximal cones: the six flips for kinds I-VI, the four
    double-spiral reversals for kind VII."""
    coll = cone.collection
    if coll is None:
        raise InternalError("flip adjacency needs the cone's collection")
    if cone.kind != "VII":
        from .triangulation import classify, flip

        tri = TaggedTriangulation._of_keys(tuple([c._key for c in coll.curves]))
        out = []
        for k in range(6):
            flipped = flip(tri, k)
            kind = classify(flipped).tag
            out.append(cone_of(MaximalCollection.of_triangulation(flipped, kind)))
        return out
    out = []
    for c in coll.curves:
        if c.is_closed:
            continue
        rest = tuple(x for x in coll.curves if x != c)
        out.append(cone_of(MaximalCollection(rest + (c._reversed_at(c._key[2]),), "VII")))
    return out


def _h_rep(cone: Cone) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """(inequalities, equalities) cutting out the cone: the coefficient
    functionals, and for a 5-dimensional cone the normal of its span."""
    rows, _, normal = cone._functionals
    ineqs = [exactla.primitive(row) for row in rows]
    return ineqs, [] if normal is None else [exactla.primitive(normal)]


def cone_rays(cone: Cone) -> set[tuple[int, ...]]:
    return {exactla.primitive(g) for g in cone.generators}


def intersection_rays(c1: Cone, c2: Cone) -> tuple[set, list]:
    """(extreme rays, lineality basis) of the intersection of two cones, as
    primitive integer vectors, by the integer double description of their
    stacked H-representations.  The cones are pointed, so a nonempty
    basis means the check failed."""
    i1, e1 = _h_rep(c1)
    i2, e2 = _h_rep(c2)
    rays, lines = exactla.dd_rays(i1 + i2, eqs=e1 + e2, dim=6)
    return set(rays), lines


class FanReport:
    """What :func:`fan_check` found; a mutable record, unhashable."""

    __slots__ = ("pairs_checked", "failures")

    def __init__(self, pairs_checked: int, failures: int) -> None:
        self.pairs_checked = pairs_checked
        self.failures = failures

    def __eq__(self, other) -> bool:
        if other.__class__ is FanReport:
            return (self.pairs_checked, self.failures) == (other.pairs_checked, other.failures)
        return NotImplemented

    def __repr__(self) -> str:
        return f"FanReport(pairs_checked={self.pairs_checked!r}, failures={self.failures!r})"

    @property
    def ok(self) -> bool:
        return self.failures == 0


def fan_check(cones: Sequence[Cone], trials: int, seed: int = 0) -> FanReport:
    """Sample cone pairs and verify each intersection is the common face
    spanned by the shared generators: :func:`intersection_rays` must find
    no line and exactly the shared primitive generators as rays.  Every
    step is integer arithmetic, on the cones' integer functionals."""
    import random

    rng = random.Random(seed)
    failures = 0
    checked = 0
    for _ in range(trials):
        c1, c2 = rng.sample(cones, 2)
        common = cone_rays(c1) & cone_rays(c2)
        rays, lines = intersection_rays(c1, c2)
        checked += 1
        if lines or rays != common:
            failures += 1
    return FanReport(checked, failures)


SUBSPACE_U_EQS: tuple[tuple[int, ...], ...] = (
    (1, 0, 0, -1, 0, 0),
    (0, 1, 0, 0, -1, 0),
    (0, 0, 1, 0, 0, -1),
)


def induced_torus_check(max_height: int) -> bool:
    """For each all-plain type-I triangulation, the slice of its cone by
    the subspace {x_i = x_{i+3}} projects onto the cone of the matching
    torus triangulation (generated by the per-slope sums of curve pairs)."""
    for triple in farey1_triples(enumerate_slopes(max_height)):
        coll = MaximalCollection.of_triangulation(type_i_triangulation(triple), "I")
        cone = cone_of(coll)
        # same-slope generator pairs must be swapped by the half-turn
        # permutation; their sums generate the torus cone after projection
        torus_gens = []
        for s in triple:
            pair_vecs = [shear_closed_form(c) for c in coll.curves if c.slope == s]
            if len(pair_vecs) != 2:
                raise InternalError(f"slope {s} has {len(pair_vecs)} curves in a type-I collection")
            if apply_perm(PERM_X, pair_vecs[0]) != pair_vecs[1]:
                return False
            total = tuple(a + b for a, b in zip(pair_vecs[0], pair_vecs[1]))
            torus_gens.append(exactla.primitive(total[:3]))
        ineqs, eqs = _h_rep(cone)
        rays, lines = exactla.dd_rays(ineqs, eqs=list(eqs) + list(SUBSPACE_U_EQS), dim=6)
        if lines:
            return False
        projected = {exactla.primitive(r[:3]) for r in rays}
        if projected != set(torus_gens):
            return False
    return True
