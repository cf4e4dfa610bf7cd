"""Punctures, tagged arcs, allowable curves, their compatibility, and
tagged triangulations.

Arcs and curves are parametrized exactly: a standard-form slope plus an
unordered pair of endpoint punctures, each endpoint carrying a plain/notched
tag (arcs) or a spiral direction (curves).  The bijection ``kappa`` matches
plain tags with clockwise spirals and notched tags with counterclockwise
spirals.  Closed curves carry a slope only.

Each arc and curve is stored as its integer key ``(a, b, mask, marks)``
of :func:`arcs_compatible` alone, which ``kappa`` keeps; its slope, ends,
punctures, underlying arc, hash and curve order are read off the key.
:meth:`_ArcOrCurve._of_key` is the one constructor from a key: ``image``
builds from the key moved by :func:`_key_images`, the one kernel that
moves keys by a lattice map, the lattice frame's and, by the inverse map,
:func:`_key_preimage`'s too; ``retag``,
``reverse_spiral``, ``kappa`` and ``kappa_inv`` from the key with one
``marks`` bit set, cleared or toggled, or none.  Reversing the spirals at
several punctures, such as the notched punctures of a triangulation, is
one XOR against their mask.

:class:`TaggedTriangulation` lives here so that ``shear --tri`` and
``render --tri`` need not load :mod:`spherelam.triangulation`, with the
type-I builder :func:`type_i_triangulation`, its check
:func:`_check_type_i` and reader :func:`_type_i_triple`, the lattice frame
:func:`_lattice_frame` of every type, and :data:`_DEGREE_TYPES`, the
admissible degree sequences with the types each allows, which the
constructor, the check and :func:`triangulation.classify` read.
"""

from __future__ import annotations

import enum
import itertools
from typing import Sequence

from ._frozen import Frozen
from .errors import ClosedCurveHasNoArc, DomainError, InternalError, InvalidParameters, \
    MalformedInput, NotFareyTriple
from .lattice import BASE_TRIPLE, Matrix2, Slope, UnimodularMap, _slope_sorted, enumerate_slopes, \
    is_farey1_triple


class Puncture(Frozen):
    """One of the four punctures v_ij, indexed by an element of (Z/2)^2.

    ``i`` is the horizontal parity and ``j`` the vertical parity of its
    preimages in the lattice plane.  The total order is
    v00 < v01 < v10 < v11.
    """

    __slots__ = _fields = ("i", "j")
    i: int
    j: int

    def __init__(self, i: int, j: int) -> None:
        if i not in (0, 1) or j not in (0, 1):
            raise ValueError("puncture indices are bits")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)

    def __eq__(self, other) -> bool:
        if other.__class__ is Puncture:
            return self.i == other.i and self.j == other.j
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.i, self.j))

    # p > q and p >= q fall back on the reflected q < p and q <= p
    def __lt__(self, other: "Puncture") -> bool:
        if other.__class__ is Puncture:
            return (self.i, self.j) < (other.i, other.j)
        return NotImplemented

    def __le__(self, other: "Puncture") -> bool:
        if other.__class__ is Puncture:
            return (self.i, self.j) <= (other.i, other.j)
        return NotImplemented

    def translate(self, parity: tuple[int, int]) -> "Puncture":
        return PUNCTURES[2 * ((self.i + parity[0]) % 2) + (self.j + parity[1]) % 2]

    def __str__(self) -> str:
        return f"{self.i}{self.j}"

    @staticmethod
    def parse(text: str) -> "Puncture":
        if len(text) != 2 or any(c not in "01" for c in text):
            raise ValueError(f"bad puncture {text!r}")
        return Puncture(int(text[0]), int(text[1]))


V00 = Puncture(0, 0)
V01 = Puncture(0, 1)
V10 = Puncture(1, 0)
V11 = Puncture(1, 1)
PUNCTURES = (V00, V01, V10, V11)


_JSON_TYPE_NAMES = {str: "string", list: "array", dict: "object"}


def json_field(obj: dict, key: str, kind: type):
    """``obj[key]`` of an object from :func:`json_object`; a value that is not
    a ``kind`` (str, list or dict) is :class:`MalformedInput`."""
    value = obj.get(key)
    if not isinstance(value, kind):
        raise MalformedInput(f"field {key!r} must be a JSON {_JSON_TYPE_NAMES[kind]}")
    return value


def json_object(obj, *fields: str) -> dict:
    """A JSON object with no field but ``fields``; a field that would be
    ignored is :class:`MalformedInput`."""
    if not isinstance(obj, dict):
        raise MalformedInput(f"expected a JSON object, got {obj!r:.60}")
    extra = sorted(set(obj) - set(fields))
    if extra:
        raise MalformedInput(f"unknown field {extra[0]!r}; the fields are "
                             + ", ".join(map(repr, fields)))
    return obj


def _json_ends(obj, mark: str) -> list[tuple[Puncture, str]]:
    """The two endpoints of an arc or curve object {slope, ends}, each end
    {v, mark}: (puncture, end[mark])."""
    ends = json_field(json_object(obj, "slope", "ends"), "ends", list)
    if len(ends) != 2:
        raise MalformedInput(f"'ends' must list two endpoints, got {len(ends)}")
    ends = [json_object(e, "v", mark) for e in ends]
    return [(Puncture.parse(json_field(e, "v", str)), json_field(e, mark, str))
            for e in ends]


class Tagging(enum.Enum):
    PLAIN = "plain"
    NOTCHED = "notched"


def tag_choices(punctures: Sequence[Puncture]) -> list[tuple[tuple[Puncture, Tagging], ...]]:
    """Every way to tag each of ``punctures``, in :func:`itertools.product`
    order: plain before notched, the last puncture changing fastest."""
    return [tuple(zip(punctures, tags))
            for tags in itertools.product(Tagging, repeat=len(punctures))]


class SpiralDir(enum.Enum):
    CW = "cw"
    CCW = "ccw"


def endpoint_sets(s: Slope) -> tuple[tuple[Puncture, Puncture], tuple[Puncture, Puncture]]:
    """The two possible endpoint pairs of an arc of slope s
    (:data:`_SLOPE_MASKS`); within each pair the punctures differ by
    (a, b) mod 2.  The pair containing v00 comes first."""
    first, second = _SLOPE_MASKS[2 * (s.a & 1) + (s.b & 1)]
    return _MASK_ENDS[first], _MASK_ENDS[second]


# The two endpoint masks of the arcs of a slope (bit 2*i + j standing for
# v_ij), by the slope's parity 2*(a % 2) + b % 2: the pair at v00, whose
# other end is v00 translated by the parity, then the other two punctures.
_SLOPE_MASKS = {par: (1 | 1 << par, 14 ^ 1 << par) for par in (1, 2, 3)}

# The puncture set of each 4-bit mask.
_MASK_PUNCTURES = tuple(
    frozenset(p for n, p in enumerate(PUNCTURES) if mask >> n & 1) for mask in range(16)
)
# The bit numbers (i, j), i < j, and the punctures of each two-bit mask.
_MASK_BITS = {1 << i | 1 << j: (i, j) for i, j in itertools.combinations(range(4), 2)}
_MASK_ENDS = {mask: (PUNCTURES[i], PUNCTURES[j]) for mask, (i, j) in _MASK_BITS.items()}


class _ArcOrCurve(Frozen):
    """What tagged arcs and allowable curves share: a slope and, unless the
    curve is closed, two endpoints each with a tag or a spiral direction.

    An arc or curve stores its integer key (see :func:`arcs_compatible`)
    and nothing else: ``slope``, ``height``, ``ends``, ``punctures`` and
    ``underlying`` are read off the key.  Equal keys within a class are
    equal values, and the hash is the hash of the key.  The constructors
    check their slope and ends; an arc or curve derived from another one
    (its image under a lattice map, a retagging, a spiral reversal, a
    ``kappa`` image) is built from its key by :meth:`_of_key`.
    """

    __slots__ = ("_key",)
    _fields = ("slope", "ends", "punctures", "underlying")
    _key: tuple[int, int, int, int]
    #: The tag or spiral direction of an end whose ``marks`` bit is 0 and 1.
    _MARKS: tuple

    def _freeze(self, slope: Slope, ends: tuple | None) -> None:
        """Check the slope is a :class:`Slope`, each end a :class:`Puncture`
        with one of :attr:`_MARKS`, and the ends against the slope
        (:data:`_SLOPE_MASKS`); store the key, with bit 2*i + j for v_ij in
        the endpoint mask and, if marked ``_MARKS[1]``, in ``marks``."""
        if slope.__class__ is not Slope:
            raise ValueError(f"a {type(self).__name__} takes a Slope, not {type(slope).__name__}")
        if ends is None:
            key = (slope.a, slope.b, 0, 0)
        else:
            (p, d), (q, e) = ends
            marks = self._MARKS
            if not (p.__class__ is q.__class__ is Puncture and d in marks and e in marks):
                raise ValueError(f"the ends of a {self.__class__.__name__} are (Puncture, "
                                 f"{' or '.join(map(str, marks))}) pairs, got {ends!r}")
            if p == q:
                raise ValueError("endpoints must be distinct punctures (no loops)")
            i, j = 2 * p.i + p.j, 2 * q.i + q.j
            key = slope.a, slope.b, 1 << i | 1 << j, (d is marks[1]) << i | (e is marks[1]) << j
            if key[2] not in _SLOPE_MASKS[2 * (slope.a & 1) + (slope.b & 1)]:
                raise ValueError(f"endpoints {min(p, q)},{max(p, q)} do not match "
                                 f"the parity of slope {slope}")
        object.__setattr__(self, "_key", key)

    @classmethod
    def _of_key(cls, key: tuple[int, int, int, int]):
        """The arc or curve of this class with the valid key ``key``,
        unchecked.  Endpoint mask 0 is a closed curve."""
        x = object.__new__(cls)
        object.__setattr__(x, "_key", key)
        return x

    @property
    def slope(self) -> Slope:
        return Slope(self._key[0], self._key[1])

    @property
    def ends(self) -> tuple | None:
        """The two (puncture, mark) ends by puncture; None if closed."""
        _, _, mask, marks = self._key
        if not mask:
            return None
        i, j = _MASK_BITS[mask]
        return ((PUNCTURES[i], self._MARKS[marks >> i & 1]),
                (PUNCTURES[j], self._MARKS[marks >> j & 1]))

    @property
    def punctures(self) -> frozenset[Puncture]:
        return _MASK_PUNCTURES[self._key[2]]

    @property
    def underlying(self) -> tuple[Slope, frozenset[Puncture]]:
        return self.slope, _MASK_PUNCTURES[self._key[2]]

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    @property
    def height(self) -> int:
        return max(self._key[0], abs(self._key[1]))

    def image(self, m: UnimodularMap):
        """The image under a lattice map: the slope moves by the linear
        part, each puncture by the map mod 2; tags and spiral directions
        stay.  Closed curves stay closed.  Built from the moved key
        (:func:`_key_images`)."""
        return self._of_key(_key_images((self._key,), m.linear)[0])


class TaggedArc(_ArcOrCurve):
    """A tagged arc: slope plus an unordered pair of tagged endpoints."""

    __slots__ = ()
    _MARKS = (Tagging.PLAIN, Tagging.NOTCHED)

    def __init__(self, slope: Slope,
                 ends: tuple[tuple[Puncture, Tagging], tuple[Puncture, Tagging]]) -> None:
        self._freeze(slope, ends)

    def retag(self, p: Puncture, tag: Tagging) -> "TaggedArc":
        """The arc tagged ``tag`` at p: its marks bit at p set or cleared
        (an equal arc when p is not an endpoint)."""
        a, b, mask, marks = self._key
        bit = mask & 1 << 2 * p.i + p.j
        marks = marks | bit if tag is Tagging.NOTCHED else marks & ~bit
        return TaggedArc._of_key((a, b, mask, marks))

    def __str__(self) -> str:
        marks = ",".join(
            f"v{e[0]}" + ("*" if e[1] is Tagging.NOTCHED else "") for e in self.ends
        )
        return f"arc({self.slope},{{{marks}}})"

    def to_json(self) -> dict:
        return {
            "slope": str(self.slope),
            "ends": [{"v": str(p), "tag": t.value} for p, t in self.ends],
        }

    @staticmethod
    def from_json(obj: dict) -> "TaggedArc":
        ends = tuple((p, Tagging(t)) for p, t in _json_ends(obj, "tag"))
        slope = Slope.parse(json_field(obj, "slope", str))
        return TaggedArc(slope, ends)  # type: ignore[arg-type]


class AllowableCurve(_ArcOrCurve):
    """An allowable curve: closed (``ends is None``) or spiraling into two
    punctures with independent spiral directions."""

    __slots__ = ()
    _MARKS = (SpiralDir.CW, SpiralDir.CCW)

    def __init__(self, slope: Slope,
                 ends: tuple[tuple[Puncture, SpiralDir], tuple[Puncture, SpiralDir]]
                 | None = None) -> None:
        self._freeze(slope, ends)

    @property
    def is_closed(self) -> bool:
        return not self._key[2]

    def sort_key(self) -> tuple:
        """The order of curves in tangles, laminations and maximal
        collections: by slope vector, the closed curve first, then by the
        first endpoint, its spiral (counterclockwise first) and the other
        end's spiral, read off the key: the lowest bit ``lo`` of the mask,
        which fixes the other end, and the clockwise ends' bits."""
        a, b, mask, marks = self._key
        lo = mask & -mask
        return a, b, lo, ~marks & lo, ~marks & (mask ^ lo)

    def reverse_spiral(self, p: Puncture) -> "AllowableCurve":
        """Reverse the spiral direction at p (no-op for closed curves or
        when p is not a spiral point)."""
        return self._reversed_at(1 << 2 * p.i + p.j)

    def _reversed_at(self, bits: int) -> "AllowableCurve":
        """The spiral directions reversed at the spiral points in the
        puncture mask ``bits``: one XOR on the marks, the curve itself when
        there are none."""
        a, b, mask, marks = self._key
        bits &= mask
        if not bits:
            return self
        return AllowableCurve._of_key((a, b, mask, marks ^ bits))

    def __str__(self) -> str:
        if self.is_closed:
            return f"curve({self.slope})"
        marks = ",".join(f"v{p}:{d.value}" for p, d in self.ends)
        return f"curve({self.slope},{{{marks}}})"

    def to_json(self) -> dict:
        if self.is_closed:
            return {"closed": str(self.slope)}
        return {
            "slope": str(self.slope),
            "ends": [{"v": str(p), "spiral": d.value} for p, d in self.ends],
        }

    @staticmethod
    def from_json(obj: dict) -> "AllowableCurve":
        if isinstance(obj, dict) and "closed" in obj:
            return AllowableCurve(Slope.parse(json_object(obj, "closed")["closed"]))
        ends = tuple((p, SpiralDir(d)) for p, d in _json_ends(obj, "spiral"))
        slope = Slope.parse(json_field(obj, "slope", str))
        return AllowableCurve(slope, ends)  # type: ignore[arg-type]


def kappa(arc: TaggedArc) -> AllowableCurve:
    """Plain tags become clockwise spirals, notched tags counterclockwise:
    the curve with the arc's key (:attr:`_ArcOrCurve._MARKS`)."""
    return AllowableCurve._of_key(arc._key)


def kappa_inv(curve: AllowableCurve) -> TaggedArc:
    if not curve._key[2]:
        raise ClosedCurveHasNoArc(f"{curve} is closed")
    return TaggedArc._of_key(curve._key)


def _keys_compatible(x: tuple[int, int, int, int], y: tuple[int, int, int, int]) -> bool:
    """The compatibility kernel on two keys (see :func:`arcs_compatible`)."""
    a, b, mask, marks = x
    c, d, mask2, marks2 = y
    differ = marks ^ marks2
    if mask == mask2 and a == c and b == d:
        return differ & (differ - 1) == 0
    shared = mask & mask2
    return abs(a * d - b * c) == shared.bit_count() and not differ & shared


# The image of each 4-bit puncture mask under the lattice maps whose matrix
# is ((p, q), (r, s)) mod 2, which send v_ij to v_(pi+qj, ri+sj): six tables,
# one for each invertible matrix mod 2, keyed by (p, q, r, s).
_MASK_MOVES = {(p, q, r, s): tuple([sum(1 << 2 * (p * x.i + q * x.j & 1) + (r * x.i + s * x.j & 1)
                                        for x in _MASK_PUNCTURES[mask]) for mask in range(16)])
               for p, q, r, s in itertools.product((0, 1), repeat=4) if p * s != q * r}


def _key_images(keys: Sequence[tuple[int, int, int, int]], linear: Matrix2, switch: int = 0
                ) -> list[tuple[int, int, int, int]]:
    """The keys of the images under the lattice map ``linear`` (see
    :meth:`_ArcOrCurve.image`) of the arcs with these keys, each mark
    switched at the punctures of the mask ``switch``.  The slope vector goes
    through ``linear``, which keeps it primitive, so only its sign is
    normalised; the bits of the endpoint and marks masks are permuted as
    the map mod 2 permutes the four punctures (:data:`_MASK_MOVES`)."""
    (p, q), (r, s) = linear
    move = _MASK_MOVES[p & 1, q & 1, r & 1, s & 1]
    images = []
    for a, b, mask, marks in keys:
        x, y = p * a + q * b, r * a + s * b
        if x < 0 or not x and y < 0:
            x, y = -x, -y
        images.append((x, y, move[mask], move[marks ^ switch & mask]))
    return images


def _key_preimage(key: tuple[int, int, int, int], linear: Matrix2, switch: int
                  ) -> tuple[int, int, int, int]:
    """The key that :func:`_key_images` sends to ``key`` under the det-1 map
    ``linear`` and the mask ``switch``: its image under the inverse map,
    switched at the mask that ``linear`` moves ``switch`` to."""
    (p, q), (r, s) = linear
    moved = _MASK_MOVES[p & 1, q & 1, r & 1, s & 1][switch]
    return _key_images((key,), ((s, -q), (-r, p)), moved)[0]


def _lattice_frame(keys: Sequence[tuple[int, int, int, int]]
                   ) -> tuple[Matrix2, list[tuple[int, int, int, int]]]:
    """(m, images) of :func:`_switched_frame`."""
    linear, _, images = _switched_frame(keys)
    return linear, images


def _switched_frame(keys: Sequence[tuple[int, int, int, int]]
                    ) -> tuple[Matrix2, int, list[tuple[int, int, int, int]]]:
    """(m, switch, images): the matrix m of the lattice frame of six arc
    keys, the mask of the punctures where the first arc end met there is
    notched, and the key of each arc's image under m, in arc order, each
    tag switched at those punctures.

    The slopes are ordered by their number of arcs, largest first, then by
    :func:`_slope_sorted`; m is the orientation-preserving map sending the
    first pair (s, t) with det(s, t) = +-1 to (1, 0) and +-(0, 1), so every
    image has height <= 2, and type I lands on :func:`base_triangulation`.
    Neither m nor the tag switches change the exchange matrix
    (Fomin-Shapiro-Thurston, Acta Math. 2008, Sec. 9).  Keys without a
    Farey-1 pair are an :class:`InternalError`.  Integer work only: the
    keys are moved by :func:`_key_images`."""
    vectors = []
    seen = switch = 0
    for a, b, mask, marks in keys:
        vectors.append((a, b))
        switch |= marks & ~seen
        seen |= mask
    slopes = _slope_sorted(set(vectors))
    slopes.sort(key=vectors.count, reverse=True)
    for (sa, sb), (ta, tb) in itertools.combinations(slopes, 2):
        det = sa * tb - sb * ta
        if det == 1 or det == -1:
            break
    else:
        raise InternalError("no Farey-1 pair of slopes among "
                            + ", ".join(map(str, sorted([Slope(a, b) for a, b in slopes]))))
    ta, tb = det * ta, det * tb
    linear = (tb, -ta), (-sb, sa)
    return linear, switch, _key_images(keys, linear, switch)


def arcs_compatible(
    x: TaggedArc | AllowableCurve, y: TaggedArc | AllowableCurve
) -> bool:
    """Tagged-arc compatibility, and that of two spiraling curves, which
    follow the same rule with spiral directions in place of tags.

    Equal arcs are compatible by convention.  Arcs with the same underlying
    taggable arc are compatible iff their tags agree at exactly one
    endpoint; otherwise compatibility requires the tags to agree at every
    shared endpoint and the Farey distance of the slopes to equal the
    number of shared endpoints.

    Both arcs are read through their integer key ``(a, b, mask, marks)``,
    set once by the constructor: (a, b) is the primitive vector of the
    slope, bit ``2*i + j`` of ``mask`` is set iff v_ij is an endpoint, and
    the same bit of ``marks`` iff the tag there is notched (the spiral
    counterclockwise), so ``kappa`` keeps the key.  With equal
    ``(a, b, mask)`` the marks may differ in at most one bit (none: equal
    arcs); otherwise ``|a*b' - b*a'|`` must equal the number of bits of
    ``mask & mask'`` and the marks must agree on those bits.
    """
    return _keys_compatible(x._key, y._key)


def curves_compatible(x: AllowableCurve, y: AllowableCurve) -> bool:
    """Allowable-curve compatibility: closed curves are compatible only
    with themselves and with spiraling curves of the same slope; two
    spiraling curves follow :func:`arcs_compatible`.

    A closed curve has key ``(a, b, 0, 0)``: it shares no endpoint, so the
    kernel of :func:`arcs_compatible` asks for Farey distance 0, the same
    slope."""
    return _keys_compatible(x._key, y._key)


def enumerate_arcs(max_height: int) -> list[TaggedArc]:
    """All tagged arcs of slope height <= max_height, deterministic order."""
    return [TaggedArc(s, ends)
            for s in enumerate_slopes(max_height)
            for pair in endpoint_sets(s)
            for ends in tag_choices(pair)]


def enumerate_curves(max_height: int) -> list[AllowableCurve]:
    """All allowable curves of slope height <= max_height: one closed
    curve per slope plus the kappa images of all tagged arcs."""
    out = [AllowableCurve(s) for s in enumerate_slopes(max_height)]
    out.extend(kappa(arc) for arc in enumerate_arcs(max_height))
    return out


class PairClass(enum.Enum):
    EQUAL = "equal"
    COINCIDING = "coinciding"
    FAREY0 = "farey0"
    FAREY1 = "farey1"
    FAREY2 = "farey2"
    INCOMPATIBLE = "incompatible"


def classify_pair(x: TaggedArc, y: TaggedArc) -> PairClass:
    """Taxonomy of an arc pair, consistent with :func:`arcs_compatible`:
    the pair is compatible iff the class is neither INCOMPATIBLE nor EQUAL
    (EQUAL is reported separately and is compatible by convention)."""
    if x == y:
        return PairClass.EQUAL
    if not arcs_compatible(x, y):
        return PairClass.INCOMPATIBLE
    if x._key[:3] == y._key[:3]:
        return PairClass.COINCIDING
    shared = (x._key[2] & y._key[2]).bit_count()
    return (PairClass.FAREY0, PairClass.FAREY1, PairClass.FAREY2)[shared]


_TYPE_I_DEGREES = (3, 3, 3, 3)
# The admissible degree sequences, each with its types by their number of
# coinciding pairs (two arcs that differ in one tag only).
_DEGREE_TYPES = {_TYPE_I_DEGREES: {0: "I"}, (2, 2, 4, 4): {0: "II", 2: "III"},
                (2, 2, 3, 5): {1: "IV"}, (2, 2, 2, 6): {2: "V", 3: "VI"}}

# Bit n of a mask as 1 in the 4-bit field n: a sum packs the degrees.
_SPREAD = tuple(sum(1 << 4 * n for n in range(4) if mask >> n & 1) for mask in range(16))
_PAIRS = tuple(itertools.combinations(range(6), 2))


def _degrees(keys: Sequence[tuple[int, int, int, int]]) -> list[int]:
    """The degree of each of :data:`PUNCTURES` among arcs with these keys."""
    total = sum([_SPREAD[key[2]] for key in keys])
    return [total & 15, total >> 4 & 15, total >> 8 & 15, total >> 12]


class TaggedTriangulation(Frozen):
    """Six distinct pairwise compatible tagged arcs, in a fixed order;
    equal to any triangulation with the same set of arcs.

    It is the integer keys ``_keys`` of its arcs (:func:`arcs_compatible`)
    in arc order, equal and hashed by their frozenset, and ``arcs`` is
    built from them on every read.  The constructor takes arcs from
    outside, :meth:`_of_keys` the keys every builder assembles; both check
    six distinct keys, each endpoint mask against the slope
    (:data:`_SLOPE_MASKS`), the kernel on all 15 pairs and the degrees;
    :func:`triangulation.flip` builds its result itself.  ``_frame`` is
    None until :mod:`spherelam.triangulation` stores a lattice frame there
    (see :func:`triangulation.flip`)."""

    __slots__ = ("_keys", "_key_set", "degree_sequence", "_frame")
    _fields = ("arcs",)
    _keys: tuple[tuple[int, int, int, int], ...]
    _key_set: frozenset[tuple[int, int, int, int]]
    degree_sequence: tuple[int, int, int, int]

    def __init__(self, arcs: tuple[TaggedArc, ...]) -> None:
        arcs = tuple(arcs)
        for arc in arcs:
            if arc.__class__ is not TaggedArc:
                raise ValueError(f"a triangulation takes TaggedArcs, not {type(arc).__name__}")
        self._freeze(tuple([arc._key for arc in arcs]))

    @classmethod
    def _of_keys(cls, keys: tuple[tuple[int, int, int, int], ...]) -> "TaggedTriangulation":
        """The triangulation of these keys, checked as the constructor checks."""
        tri = object.__new__(cls)
        tri._freeze(keys)
        return tri

    def _freeze(self, keys: tuple[tuple[int, int, int, int], ...]) -> None:
        key_set = frozenset(keys)
        if len(keys) != 6 or len(key_set) != 6:
            raise ValueError("a tagged triangulation has exactly 6 distinct arcs")
        for a, b, mask, _ in keys:
            if mask not in _SLOPE_MASKS.get(2 * (a & 1) + (b & 1), ()):
                ends = ",".join(map(str, sorted(_MASK_PUNCTURES[mask])))
                raise ValueError(f"endpoints {ends} do not match the parity of slope "
                                 f"{Slope(a, b)}")
        for i, j in _PAIRS:
            if not _keys_compatible(keys[i], keys[j]):
                raise ValueError(f"incompatible arcs {TaggedArc._of_key(keys[i])}, "
                                 f"{TaggedArc._of_key(keys[j])}")
        degrees = tuple(sorted(_degrees(keys)))
        if degrees not in _DEGREE_TYPES:
            raise ValueError(f"impossible degree sequence {degrees}")
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_key_set", key_set)
        object.__setattr__(self, "degree_sequence", degrees)
        object.__setattr__(self, "_frame", None)

    @property
    def arcs(self) -> tuple[TaggedArc, ...]:
        return tuple([TaggedArc._of_key(key) for key in self._keys])

    @property
    def height(self) -> int:
        return max([max(a, abs(b)) for a, b, _, _ in self._keys])

    @property
    def all_plain(self) -> bool:
        return not any([key[3] for key in self._keys])

    def __eq__(self, other) -> bool:
        return isinstance(other, TaggedTriangulation) and self._key_set == other._key_set

    def __hash__(self) -> int:
        return hash(self._key_set)

    def to_json(self) -> list:
        return [arc.to_json() for arc in self.arcs]

    @staticmethod
    def from_json(obj) -> "TaggedTriangulation":
        """The array of six arcs of :meth:`to_json`, or the compact type-I
        object ``{"triple": [three slopes], "tags": {puncture: tag}}`` of
        :func:`type_i_triangulation`, a puncture without a tag plain."""
        if isinstance(obj, list):
            return TaggedTriangulation(tuple(TaggedArc.from_json(a) for a in obj))
        if not isinstance(obj, dict):
            raise MalformedInput("a triangulation is a JSON array of arcs or a type-I "
                                 "{triple, tags} object")
        obj = json_object(obj, "triple", "tags")
        triple = tuple(Slope.parse(s) for s in json_field(obj, "triple", list))
        if len(triple) != 3:
            raise MalformedInput(f"'triple' lists three slopes, got {len(triple)}")
        tags = json_field(obj, "tags", dict) if "tags" in obj else {}
        if set(tags) - {str(p) for p in PUNCTURES}:
            raise MalformedInput("tags are keyed by the punctures 00, 01, 10, 11, "
                                 f"got {sorted(tags)}")
        return type_i_triangulation(triple, tuple(  # type: ignore[arg-type]
            (p, Tagging(tags.get(str(p), "plain"))) for p in PUNCTURES))


_ALL_PLAIN = tuple((p, Tagging.PLAIN) for p in PUNCTURES)


def type_i_triangulation(triple: tuple[Slope, Slope, Slope],
                         taggings: tuple[tuple[Puncture, Tagging], ...] = _ALL_PLAIN
                         ) -> TaggedTriangulation:
    """The type-I triangulation of a Farey-1 triple with one tag at each
    puncture: arcs i and i + 3 have slope ``triple[i]``, and arc i passes
    through v00 (the first mask of :data:`_SLOPE_MASKS`).  The arcs keep the
    order of the triple, which :func:`triangulation.build_type` would sort.
    A triple that is not three :class:`Slope` objects is
    :class:`InvalidParameters`."""
    if len(triple) != 3 or not all([isinstance(s, Slope) for s in triple]):
        raise InvalidParameters(f"a triple is three Slopes, got {triple!r}")
    if not is_farey1_triple(*triple):
        raise NotFareyTriple(f"({', '.join(map(str, triple))}) is not a Farey-1 triple")
    tags = dict(taggings)
    if len(tags) != len(taggings) or set(tags) != set(PUNCTURES):
        raise ValueError("taggings must cover each puncture exactly once")
    if any([t.__class__ is not Tagging for t in tags.values()]):
        raise ValueError(f"each tag must be a Tagging, got {taggings!r}")
    notched = sum([(tags[p] is Tagging.NOTCHED) << n for n, p in enumerate(PUNCTURES)])
    masks = [(s.a, s.b, _SLOPE_MASKS[2 * (s.a & 1) + (s.b & 1)]) for s in triple]
    return TaggedTriangulation._of_keys(tuple([(a, b, m[i], m[i] & notched)
                                               for i in (0, 1) for a, b, m in masks]))


def _check_type_i(tri: TaggedTriangulation) -> None:
    """The DomainError of a ``tri`` not of type I, the one type with all
    degrees 3."""
    if tri.degree_sequence != _TYPE_I_DEGREES:
        raise DomainError("the triangulation is not type I: its puncture degrees are "
                          f"{tri.degree_sequence}, not {_TYPE_I_DEGREES}")


def _type_i_triple(tri: TaggedTriangulation) -> tuple[Slope, ...]:
    """The slopes of the arcs through v00 of a type-I ``tri``, in arc order
    (see :func:`type_i_triangulation`); any other triangulation is the
    DomainError of :func:`_check_type_i`."""
    _check_type_i(tri)
    return tuple([Slope(a, b) for a, b, mask, _ in tri._keys if mask & 1])


def base_triangulation() -> TaggedTriangulation:
    """The base triangulation: arcs 1,4 of slope 0, arcs 2,5 of slope inf,
    arcs 3,6 of slope -1 (:data:`lattice.BASE_TRIPLE`), all plain, indexed
    so that arcs 1,2,3 pass through v00."""
    return type_i_triangulation(BASE_TRIPLE)
