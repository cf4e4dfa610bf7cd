"""Shear coordinates of allowable curves with respect to the base
triangulation and to any type-I tagged triangulation, coordinate i at
``tri.arcs[i]`` as in :func:`triangulation.signed_adjacency`.

Three mutually checking computation paths are provided:

- :func:`shear_closed_form` -- closed formulas for the base spiral/slope
  configurations, extended to every curve by the coordinate permutations
  induced by lattice translations and by the order-3 slope rotation
  :data:`RHO`, [a, b] -> [b, -a-b], which induces :data:`PERM_Z`;
- :func:`shear_via_word` -- the crossing word of a base-case curve and
  letter/double-letter counting;
- :func:`shear_oracle` -- fully geometric crossing enumeration in the
  lifted plane with quadrilateral scoring; the segment that the four
  spiraling curves of one slope and endpoint pair lift to is lifted and
  scored once per process, in a memo of at most 1024 segments.

All three agree exactly on their common domains; the acceptance suite
sweeps this identity over all curves of bounded height.  The closed form
and the word read a curve's ends off its integer key.  Every type-I
triangulation is reached by one frame carry, :func:`_shear_in_frame`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Iterator

from ._frozen import Frozen
from .curves import (
    PUNCTURES,
    AllowableCurve,
    TaggedTriangulation,
    Tagging,
    _check_type_i,
    _lattice_frame,
    base_triangulation,
    curves_compatible,
    tag_choices,
    type_i_triangulation,
)
from .errors import BoundExhausted, InternalError, UnsupportedBaseCase
from .lattice import (
    BASE_TRIPLE,
    Slope,
    UnimodularMap,
    check_height,
    enumerate_slopes,
    farey1_triples,
    separating_neighbors,
)

ShearVector = tuple[int, int, int, int, int, int]

# ---------------------------------------------------------------------------
# Coordinate permutations
# ---------------------------------------------------------------------------
# A permutation is a tuple p with p[i] the destination of position i; applying
# it moves the value at position i to position p[i].

CoordPerm = tuple[int, ...]

PERM_ID: CoordPerm = (0, 1, 2, 3, 4, 5)
PERM_X: CoordPerm = (3, 4, 5, 0, 1, 2)          # (14)(25)(36)
PERM_Z: CoordPerm = (1, 2, 0, 4, 5, 3)          # (123)(456)
PERM_14: CoordPerm = (3, 1, 2, 0, 4, 5)
PERM_25: CoordPerm = (0, 4, 2, 3, 1, 5)
PERM_36: CoordPerm = (0, 1, 5, 3, 4, 2)
PERM_14_36: CoordPerm = (3, 1, 5, 0, 4, 2)
PERM_25_36: CoordPerm = (0, 4, 5, 3, 1, 2)
PERM_14_25: CoordPerm = (3, 4, 2, 0, 1, 5)


def apply_perm(p: CoordPerm, v: Iterable[int]) -> tuple[int, ...]:
    v = tuple(v)
    out = [0] * len(v)
    for i, x in enumerate(v):
        out[p[i]] = x
    return tuple(out)


def compose(p: CoordPerm, q: CoordPerm) -> CoordPerm:
    """apply(compose(p, q), v) == apply(p, apply(q, v))."""
    return tuple(p[q[i]] for i in range(len(q)))


def perm_product(left: Iterable[CoordPerm], right: Iterable[CoordPerm]) -> list[CoordPerm]:
    """All compositions l*r (apply r first), without duplicates, in a
    deterministic order."""
    seen = []
    for l in left:
        for r in right:
            e = compose(l, r)
            if e not in seen:
                seen.append(e)
    return seen


PERM_Z2: CoordPerm = compose(PERM_Z, PERM_Z)

#: permutation induced by translating the lifted plane by the given parity
TRANSLATION_PERMS: dict[tuple[int, int], CoordPerm] = {
    (0, 0): PERM_ID,
    (0, 1): PERM_14_36,
    (1, 0): PERM_25_36,
    (1, 1): PERM_14_25,
}
GROUP_Y = frozenset(TRANSLATION_PERMS.values())
GROUP_Z = frozenset({PERM_ID, PERM_Z, PERM_Z2})
#: The eight slope-preserving flips: each slot pair {i, i+3} swapped or not.
FLIPS = frozenset(perm_product(perm_product((PERM_ID, PERM_14), (PERM_ID, PERM_25)),
                               (PERM_ID, PERM_36)))
#: The coordinate group: a flip, then a rotation of the three slot pairs.
GAMMA24 = frozenset(perm_product(GROUP_Z, FLIPS))

#: The order-3 slope rotation [a, b] -> [b, -a-b] and its square
#: [a, b] -> [-a-b, a]: shear(c.image(RHO)) == apply_perm(PERM_Z, shear(c)),
#: and likewise RHO2 with PERM_Z2, for every curve c.
RHO = UnimodularMap(((0, 1), (-1, -1)))
RHO2 = UnimodularMap(((-1, -1), (1, 0)))


# ---------------------------------------------------------------------------
# Crossing words
# ---------------------------------------------------------------------------

Letter = tuple[str, int]
Word = tuple[Letter, ...]

T1: Letter = ("t", 1)
T4: Letter = ("t", 4)
R2: Letter = ("r", 2)
R5: Letter = ("r", 5)


def format_word(w: Word) -> str:
    return " ".join(f"{kind}{dec}" for kind, dec in w)


def parse_word(text: str) -> Word:
    out = []
    for tok in text.split():
        kind, dec = tok[0], int(tok[1:])
        if (kind, dec) not in _ALPHABET:
            raise ValueError(f"bad letter {tok!r}")
        out.append((kind, dec))
    return tuple(out)


_ALPHABET = frozenset((T1, T4, R2, R5))


def validate_word(w: Word) -> None:
    """Letter alphabet plus the alternation rule: within the non-leading
    suffix, successive r decorations alternate 2,5 and successive t
    decorations alternate 1,4."""
    if not _ALPHABET.issuperset(w):
        kind, dec = next(x for x in w if x not in _ALPHABET)
        raise ValueError(f"bad letter {kind}{dec}")
    tail = w[1:]
    for kind in "rt":
        decs = [dec for k, dec in tail if k == kind]
        if any(map(operator.eq, decs, decs[1:])):
            raise ValueError(f"{kind}-decorations fail to alternate")


def word_prime(a: int, b: int) -> Word:
    """Grid-exit word of the segment (0,0)->(a,b) for a finite positive
    slope: r per vertical line crossed, t per horizontal, decorated by the
    parity of the line.  w'(1,1) is empty."""
    if a < 1 or b < 1:
        raise UnsupportedBaseCase("word' needs a finite positive slope")
    # x = k crossed at t = k/a, y = k at t = k/b: both keys scaled by a*b.
    # A plain sort: the keys k*b and k*a differ when gcd(a, b) = 1, and at
    # a tie ("r" < "t") puts the vertical line first.
    events = [(k * b, R5 if k & 1 else R2) for k in range(1, a)]
    events += [(k * a, T4 if k & 1 else T1) for k in range(1, b)]
    events.sort()
    return tuple([letter for _, letter in events])


def _suffix_letters(a: int, b: int) -> tuple[Letter, Letter]:
    return (R5 if a & 1 else R2), (T4 if b & 1 else T1)


def word_of_curve(curve: AllowableCurve) -> Word:
    """The crossing word of a base-case curve: finite positive slope,
    closed or spiraling counterclockwise into v00 (``marks`` bit 0 of its
    key).  The last letter follows the spiral at the far end."""
    a, b, mask, marks = curve._key
    if a < 1 or b < 1:
        raise UnsupportedBaseCase(f"slope {curve.slope} is not finite positive")
    wp = word_prime(a, b)
    rk, tl = _suffix_letters(a, b)
    if not mask:
        return (T1, *wp, rk, tl, *wp[::-1], R2, T1)
    if not marks & 1:
        raise UnsupportedBaseCase("open base case needs a CCW spiral at v00")
    return (T1, R2, *wp, rk if marks == mask else tl)


def shear_via_word(curve: AllowableCurve) -> ShearVector:
    """Shear coordinates from the crossing word: coordinates 1,2,4,5 from
    non-leading letter counts, 3 and 6 from double-letter pairs with the
    alternating slot assignment."""
    w = word_of_curve(curve)
    validate_word(w)
    tail = w[1:]
    kinds = [kind for kind, _ in w]
    pairs = list(map(operator.add, kinds, kinds[1:]))
    rr, tt = pairs.count("rr"), pairs.count("tt")
    if rr and tt:
        raise InternalError("a base word never contains both rr and tt pairs")
    # tt pairs score +1 alternating slots 3,6,...; rr pairs -1 alternating 6,3,...
    return (-tail.count(T1), tail.count(R2), (tt + 1) // 2 - rr // 2,
            -tail.count(T4), tail.count(R5), tt // 2 - (rr + 1) // 2)


# ---------------------------------------------------------------------------
# Closed formulas
# ---------------------------------------------------------------------------


def _item1(a: int, b: int) -> ShearVector:
    return (-((b - 1) // 2), a // 2 + 1, (b - a) // 2,
            -(b // 2), (a + 1) // 2, (b - a - 1) // 2)


def _item2(a: int, b: int) -> ShearVector:
    return (-(b // 2), (a + 1) // 2, (b - a + 1) // 2,
            -((b + 1) // 2), a // 2, (b - a) // 2)


def _item3(a: int, b: int) -> ShearVector:
    return (-((b + 1) // 2), a // 2, (b - a) // 2,
            -(b // 2), (a + 1) // 2, (b - a + 1) // 2)


def _item4(a: int, b: int) -> ShearVector:
    return (-(b // 2) - 1, (a - 1) // 2, (b - a + 1) // 2,
            -((b + 1) // 2), a // 2, (b - a) // 2 + 1)


def _item5(a: int, b: int) -> ShearVector:
    return (-b, a, b - a, -b, a, b - a)


#: The base formula of an open curve of slope in [0, inf] from v00, by the
#: ``marks`` bits (1 for counterclockwise) of its ends at v00 and at the far end.
BASE_ITEMS = {(1, 1): _item1, (1, 0): _item2, (0, 1): _item3, (0, 0): _item4}

# Undoing a rotation: shear(c) == apply_perm(_UNROTATE[R], shear(c.image(R))),
# as c is the RHO image of c.image(RHO2) and the RHO2 image of c.image(RHO).
_UNROTATE = {RHO: PERM_Z2, RHO2: PERM_Z}


def shear_closed_form(curve: AllowableCurve) -> ShearVector:
    """Shear coordinates of any allowable curve with respect to the base
    triangulation, by closed formulas plus coordinate permutations."""
    return _cached_closed_form(curve)


def _closed_form(curve: AllowableCurve) -> ShearVector:
    a, b, mask, marks = curve._key
    if b < 0:
        # negative slope: land in [0, inf) and permute back, by RHO2 from
        # slopes <= -1 and by RHO from slopes in (-1, 0)
        rot = RHO2 if -b >= a else RHO
    elif mask and marks == mask and b == 0:
        # the both-counterclockwise formula starts at slope > 0;
        # slope 0 is the RHO2 image of the infinite slope
        rot = RHO
    elif mask and not marks and a == 0:
        # the both-clockwise formula stops before the infinite slope,
        # which is the RHO image of slope 0
        rot = RHO2
    elif not mask:
        return _item5(a, b)
    else:
        # translating by the lower endpoint v_ij, bit n = 2*i + j, carries the
        # endpoints at v00 onto the curve's: the base formula of the spirals
        # there and at the far end, bit f, permuted back by the translation
        n, f = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
        item = BASE_ITEMS[marks >> n & 1, marks >> f & 1](a, b)
        return apply_perm(TRANSLATION_PERMS[divmod(n, 2)], item)
    return apply_perm(_UNROTATE[rot], _closed_form(curve.image(rot)))


# above the 1656 curves of height <= 12 and the 1152 of the cone index's cap 10
_cached_closed_form = functools.lru_cache(maxsize=4096)(_closed_form)


# ---------------------------------------------------------------------------
# Geometric oracle
# ---------------------------------------------------------------------------


def shear_oracle(curve: AllowableCurve) -> ShearVector:
    """Shear coordinates by exact crossing geometry in the lifted plane.

    Closed curves are lifted to a lattice-avoiding line and scored over one
    period.  Spiraling curves are lifted to the segment between lattice
    representatives of their punctures, read off the curve's key (bit
    2*i + j of the mask for v_ij, and of the marks when its spiral is
    counterclockwise); each spiral end contributes its two outermost
    crossings with the incident arcs, since the deeper ones score 0 (see
    :func:`plane.spiral_crossings`).  The crossings are plain int tuples
    ``(t, family, k, x, y)`` from the lift to the score, and
    ``plane.accumulate`` scores each -1/0/+1 from its quadrilateral by one
    pass over its four sides; no closed formulas, words or coordinate
    permutations are involved.  All points of one lift are integer
    numerators over one denominator.

    The four spiraling curves of one slope and endpoint pair share their
    segment, lifted once per process (:func:`_spiral_lift`, a memo of at
    most 1024 segments).  ``accumulate`` scores a crossing from its two
    neighbors alone, so the score of a crossing list splits at any two
    consecutive crossings: a curve scores its start spiral with the
    segment's first two crossings and the segment's last two with its end
    spiral, and adds the memo's score of the crossings in between.  A
    segment with fewer than two crossings, and a closed curve, which is its
    own lift, are scored whole.
    """
    from . import plane

    a, b, mask, marks = curve._key
    if not mask:
        period = (2 * a, 2 * b)
        start, den = plane._closed_lift(a, b, period)
        xs = plane.segment_crossings(start, period, den, include_lo=True)
        return tuple(plane.accumulate(xs, den, period))  # type: ignore[return-value]

    p, q, base, tip, lift = _cached_spiral_lift(a, b, mask)
    if lift is None:
        raise InternalError(f"the lift of {curve.slope} from v{base[0]}{base[1]} "
                            f"ends off v{q >> 1}{q & 1}")
    eps, den, head, tail, inner = lift
    # the straight part runs left of the travel direction iff the starting
    # spiral winds counterclockwise
    ccw_p, ccw_q = bool(marks >> p & 1), bool(marks >> q & 1)
    start = plane.spiral_crossings(base, (a, b), ccw_p, at_end=False,
                                   interior_side_left=ccw_p, eps=eps, den=den)
    end = plane.spiral_crossings(tip, (a, b), ccw_q, at_end=True,
                                 interior_side_left=ccw_p, eps=eps, den=den)
    if inner is None:
        return tuple(plane.accumulate([*start, *head, *end], den))  # type: ignore[return-value]
    first, last = plane.accumulate([*start, *head], den), plane.accumulate([*tail, *end], den)
    return tuple([x + y + z for x, y, z in zip(first, inner, last)])  # type: ignore[return-value]


def _spiral_lift(a: int, b: int, mask: int):
    """(p, q, base, tip, lift) of the spiraling curves of slope (a, b) on
    the endpoint ``mask``: their segment runs from ``base``, the puncture of
    the lower bit p, to ``tip``; lift is None when the tip is off the
    puncture of the higher bit q, and otherwise (eps, den, head, tail,
    inner): the segment's first two and last two crossings and the score
    of those between them, or its crossings, () and None when there are
    fewer than two; all tuples, as every caller shares them."""
    from . import plane

    p, q = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
    base = divmod(p, 2)
    tip = (base[0] + a, base[1] + b)
    if divmod(q, 2) != (tip[0] % 2, tip[1] % 2):
        return p, q, base, tip, None
    # den makes the segment's crossings and the spiral offsets eps and eps/2
    # exact, with eps / den = 1/(8(h+2)^2), h = |a| + |b|
    eps = 2 * plane._nonzero_product(a, b, a + b)
    den = 8 * (abs(a) + abs(b) + 2) ** 2 * eps
    xs = plane.segment_crossings((base[0] * den, base[1] * den), (a, b), den)
    if len(xs) < 2:
        return p, q, base, tip, (eps, den, tuple(xs), (), None)
    return p, q, base, tip, (eps, den, tuple(xs[:2]), tuple(xs[-2:]),
                             tuple(plane.accumulate(xs, den)))


# above the 368 segments of the 1656 curves of height <= 12
_cached_spiral_lift = functools.lru_cache(maxsize=1024)(_spiral_lift)


# ---------------------------------------------------------------------------
# Type-I triangulations, laminations, tangles
# ---------------------------------------------------------------------------


_BASE = base_triangulation()
# The base slot of each arc key of the base, onto which the lattice frame
# carries every type-I triangulation, its tags switched to plain.
_BASE_SLOT = {key: k for k, key in enumerate(_BASE._keys)}


def _type_i_frame(tri: TaggedTriangulation) -> tuple[UnimodularMap, tuple[int, ...], int]:
    """(m, slots, notched) of a type-I ``tri``, any other type being the
    DomainError of :func:`curves._check_type_i`: the lattice frame
    (:func:`curves._lattice_frame`) m carrying ``tri`` onto the base, the
    base index of the image of each arc (arcs through v00, which m fixes,
    land on 0-2), and the mask of the notched punctures.  The 16 taggings
    of a triple share m and the slots, which read slopes and endpoints."""
    _check_type_i(tri)
    linear, images = _lattice_frame(tri._keys)
    return (UnimodularMap(linear), tuple([_BASE_SLOT[key] for key in images]),
            functools.reduce(operator.or_, [key[3] for key in tri._keys]))


def shear_wrt(curve: AllowableCurve, tri: TaggedTriangulation) -> ShearVector:
    """Shear coordinates of a curve with respect to a type-I triangulation,
    coordinate i at ``tri.arcs[i]``: :func:`_shear_in_frame` of the curve
    alone, in the frame of ``tri``."""
    return _shear_in_frame(((curve, 1),), _type_i_frame(tri))


Weights = tuple[tuple[AllowableCurve, int], ...]


def _merged(weights: Weights) -> Weights:
    """Weights of equal curves summed, in :meth:`AllowableCurve.sort_key`
    order."""
    merged: dict[AllowableCurve, int] = {}
    for c, w in weights:
        merged[c] = merged.get(c, 0) + w
    return tuple(sorted(merged.items(), key=lambda cw: cw[0].sort_key()))


def _positive(weights: Weights) -> Weights:
    """``weights``, each checked positive."""
    if any(w <= 0 for _, w in weights):
        raise ValueError("quasi-lamination weights must be positive")
    return weights


class Tangle(Frozen):
    """A finite integer-weighted collection of allowable curves; no
    compatibility or positivity requirement.  Duplicate curves merge by
    summing weights."""

    __slots__ = _fields = ("weights",)
    weights: Weights

    def __init__(self, weights: Weights) -> None:
        object.__setattr__(self, "weights", _merged(weights))

    @property
    def support(self) -> tuple[AllowableCurve, ...]:
        return tuple(c for c, w in self.weights if w != 0)

    @property
    def is_trivial(self) -> bool:
        return not self.support


class QuasiLamination(Frozen):
    """Pairwise compatible allowable curves with positive integer weights."""

    __slots__ = _fields = ("weights",)
    weights: Weights

    def __init__(self, weights: Weights) -> None:
        items = _positive(_merged(weights))
        curves = [c for c, _ in items]
        for x, y in itertools.combinations(curves, 2):
            if not curves_compatible(x, y):
                raise ValueError(f"incompatible curves {x}, {y}")
        object.__setattr__(self, "weights", items)

    @classmethod
    def _of_compatible(cls, weights: Weights) -> "QuasiLamination":
        """A quasi-lamination on distinct curves known to be pairwise
        compatible and given in :meth:`AllowableCurve.sort_key` order, such
        as curves of one maximal collection: the weights are checked
        positive, and neither merged, sorted nor checked pairwise again."""
        lam = object.__new__(cls)
        object.__setattr__(lam, "weights", _positive(tuple(weights)))
        return lam

    @property
    def support(self) -> tuple[AllowableCurve, ...]:
        return tuple(c for c, _ in self.weights)


def tangle_shear(tangle: Tangle | QuasiLamination,
                 tri: TaggedTriangulation = _BASE) -> ShearVector:
    """The weighted sum of the :func:`shear_wrt` vectors of the curves,
    the lattice frame of ``tri`` built once."""
    return _shear_in_frame(tangle.weights, _type_i_frame(tri))


def _shear_in_frame(weights: Weights, frame: tuple[UnimodularMap, tuple[int, ...], int]
                    ) -> ShearVector:
    """The one type-I frame carry: the weighted shear of the curves with
    respect to the type-I triangulation of ``frame = (m, slots, notched)``
    (:func:`_type_i_frame`).  The punctures of the mask ``notched`` reverse
    the spiral directions of incident curves (one XOR); m then carries the
    triangulation onto the base one, and coordinate i is the base
    coordinate of m(curve) at ``slots[i]``, the image of arc i."""
    m, slots, notched = frame
    vec = [0] * 6
    for c, w in weights:
        v = shear_closed_form(c._reversed_at(notched).image(m))
        for i, slot in enumerate(slots):
            vec[i] += w * v[slot]
    return tuple(vec)  # type: ignore[return-value]


def shear_lamination(lam: QuasiLamination, tri: TaggedTriangulation = _BASE) -> ShearVector:
    return tangle_shear(lam, tri)


# ---------------------------------------------------------------------------
# Once-punctured torus and the sphere-to-torus projection
# ---------------------------------------------------------------------------


def torus_shear(s: Slope) -> tuple[int, int, int]:
    """Shear coordinates of the closed curve of slope s on the
    once-punctured torus, indexed compatibly with the sphere coordinates
    (slot i of the torus vector matches slots i, i+3 on the sphere): with
    respect to the plain torus triangulation of triple (0, inf, -1), a
    closed form in the vector (a, b), a >= 0, in three pieces."""
    a, b = s.vector
    if b >= 0:
        return (-b, a, b - a)
    if b >= -a:
        return (-b, a + 2 * b, -a - b)
    return (2 * a + b, -a, -a - b)


def sphere_torus_check(s: Slope, tri: TaggedTriangulation) -> bool:
    """Projection identity: for a closed curve, the sphere coordinates at
    the two arcs of each slope of a type-I triangulation collapse to the
    torus coordinate of the corresponding torus arc."""
    m, slots, _ = _type_i_frame(tri)
    # a closed curve has no spiral for a notched puncture to reverse
    sphere = _shear_in_frame(((AllowableCurve(s), 1),), (m, slots, 0))
    torus = torus_shear(m.apply_slope(s))
    return all(x == torus[i % 3] for x, i in zip(sphere, slots))


# ---------------------------------------------------------------------------
# Null-tangle witness search
# ---------------------------------------------------------------------------


def find_witness(tangle: Tangle, max_height: int = 12) -> TaggedTriangulation | None:
    """A type-I triangulation on which the tangle has nonzero shear, or
    None for a trivial tangle.

    Candidates follow the constructive separation argument: for each slope
    in the support, the Farey-1 triple produced by Stern-Brocot descent
    around that slope, under every per-puncture tagging; the base
    triangulation's taggings are tried first.  If the support is nonzero
    and no candidate works, every Farey-1 triple up to max_height is
    tried before giving up; a candidate met again fails again, since the
    order of a triple only permutes the shear coordinates.  The 16
    taggings of a triple share its slopes and endpoints, hence its lattice
    frame, read once per triple off its plain triangulation; each tagging
    is then only a mask of notched punctures.  That triangulation and the
    witness are assembled from keys (:func:`type_i_triangulation`).
    """
    check_height(max_height)
    support = tangle.support
    if not support:
        return None
    slopes = sorted({c.slope for c in support})

    def triples() -> Iterator[tuple[Slope, Slope, Slope]]:
        yield BASE_TRIPLE
        for f in slopes:
            lo, mid = separating_neighbors(slopes, f)
            yield mid, f, lo
        yield from farey1_triples(enumerate_slopes(max_height))

    taggings = [(tags, sum(1 << 2 * p.i + p.j for p, t in tags if t is Tagging.NOTCHED))
                for tags in tag_choices(PUNCTURES)]
    for triple in triples():
        m, slots, _ = _type_i_frame(type_i_triangulation(triple))
        for tags, notched in taggings:
            if any(_shear_in_frame(tangle.weights, (m, slots, notched))):
                return type_i_triangulation(triple, tags)
    raise BoundExhausted(
        "nonzero-support tangle with no witness within the candidate set"
    )
