"""Punctures, tagged arcs, allowable curves and their compatibility.

Arcs and curves are parametrized exactly: a standard-form slope plus an
unordered pair of endpoint punctures, each endpoint carrying a plain/notched
tag (arcs) or a spiral direction (curves).  The bijection ``kappa`` matches
plain tags with clockwise spirals and notched tags with counterclockwise
spirals.  Closed curves carry a slope only.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import ClosedCurveHasNoArc, InternalError, MalformedInput
from .lattice import Slope, UnimodularMap


@dataclass(frozen=True, order=True)
class Puncture:
    """One of the four punctures v_ij, indexed by an element of (Z/2)^2.

    ``i`` is the horizontal parity and ``j`` the vertical parity of its
    preimages in the lattice plane.  The total order is
    v00 < v01 < v10 < v11.
    """

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i not in (0, 1) or self.j not in (0, 1):
            raise ValueError("puncture indices are bits")

    def translate(self, parity: tuple[int, int]) -> "Puncture":
        return Puncture((self.i + parity[0]) % 2, (self.j + parity[1]) % 2)

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

    @property
    def reversed(self) -> "SpiralDir":
        return SpiralDir.CCW if self is SpiralDir.CW else SpiralDir.CW


def endpoint_sets(s: Slope) -> tuple[tuple[Puncture, Puncture], tuple[Puncture, Puncture]]:
    """The two possible endpoint pairs of an arc of slope s; within each
    pair the punctures differ by (a, b) mod 2.  The pair containing v00
    comes first."""
    par = s.parity
    first = (V00, V00.translate(par))
    rest = [p for p in PUNCTURES if p not in first]
    second = (rest[0], rest[0].translate(par))
    return (first, tuple(sorted(second)))  # type: ignore[return-value]


# The puncture set of each 4-bit mask, bit 2*i + j standing for v_ij.
_MASK_PUNCTURES = tuple(
    frozenset(p for n, p in enumerate(PUNCTURES) if mask >> n & 1) for mask in range(16)
)


class _ArcOrCurve:
    """What tagged arcs and allowable curves share: a slope and, unless the
    curve is closed, two endpoints each with a tag or a spiral direction.

    Equality and hashing go through what ``_freeze`` stores once: equal
    integer keys (see :func:`arcs_compatible`) for equality within a class,
    and the hash of ``(slope, ends)``.
    """

    slope: Slope
    ends: tuple | None

    def _freeze(self, marked) -> None:
        """Sort the ends by puncture, check them against the slope, and set
        ``punctures``, ``underlying``, ``_key`` (``marked`` is the tag or
        spiral direction of a set bit) and ``_hash``."""
        slope, ends = self.slope, self.ends
        mask = marks = 0
        if ends is not None:
            (p, d), (q, e) = ends
            i, j = 2 * p.i + p.j, 2 * q.i + q.j
            if j < i:
                p, d, i, q, e, j = q, e, j, p, d, i
            ends = ((p, d), (q, e))
            object.__setattr__(self, "ends", ends)
            if i == j:
                raise ValueError("endpoints must be distinct punctures (no loops)")
            if i ^ j != 2 * (slope.a & 1) + (slope.b & 1):
                raise ValueError(
                    f"endpoints {p},{q} do not match the parity of slope {slope}"
                )
            mask = 1 << i | 1 << j
            marks = (d is marked) << i | (e is marked) << j
        punctures = _MASK_PUNCTURES[mask]
        object.__setattr__(self, "punctures", punctures)
        object.__setattr__(self, "underlying", (slope, punctures))
        object.__setattr__(self, "_key", (slope.a, slope.b, mask, marks))
        object.__setattr__(self, "_hash", hash((slope, ends)))

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def height(self) -> int:
        return self.slope.height

    def image(self, m: UnimodularMap):
        """The image under a lattice map: the slope moves by the linear
        part, each puncture by the map mod 2; tags and spiral directions
        stay.  Closed curves stay closed."""
        ends = None if self.ends is None else tuple(
            (Puncture(*m.apply_parity((p.i, p.j))), d) for p, d in self.ends
        )
        return type(self)(m.apply_slope(self.slope), ends)  # type: ignore[call-arg]


@dataclass(frozen=True, eq=False)
class TaggedArc(_ArcOrCurve):
    """A tagged arc: slope plus an unordered pair of tagged endpoints.

    ``ends`` is stored sorted by puncture, so equal arcs compare equal.
    """

    slope: Slope
    ends: tuple[tuple[Puncture, Tagging], tuple[Puncture, Tagging]]

    def __post_init__(self) -> None:
        self._freeze(Tagging.NOTCHED)

    punctures: frozenset[Puncture] = field(init=False)
    underlying: tuple = field(init=False)
    _key: tuple[int, int, int, int] = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def retag(self, p: Puncture, tag: Tagging) -> "TaggedArc":
        return TaggedArc(
            self.slope,
            tuple((q, tag if q == p else t) for q, t in self.ends),  # type: ignore[arg-type]
        )

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


@dataclass(frozen=True, eq=False)
class AllowableCurve(_ArcOrCurve):
    """An allowable curve: closed (``ends is None``) or spiraling into two
    punctures with independent spiral directions."""

    slope: Slope
    ends: tuple[tuple[Puncture, SpiralDir], tuple[Puncture, SpiralDir]] | None = None

    def __post_init__(self) -> None:
        self._freeze(SpiralDir.CCW)

    punctures: frozenset[Puncture] = field(init=False)
    underlying: tuple = field(init=False)
    _key: tuple[int, int, int, int] = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    @property
    def is_closed(self) -> bool:
        return self.ends is None

    def sort_key(self) -> tuple:
        """The order of curves in tangles, laminations and maximal
        collections: by slope vector, the closed curve first, then by
        endpoints and spirals."""
        if self.ends is None:
            return (self.slope.a, self.slope.b, 0, ())
        enc = tuple((p.i, p.j, d.value) for p, d in self.ends)
        return (self.slope.a, self.slope.b, 1, enc)

    def spiral_at(self, p: Puncture) -> SpiralDir:
        if self.ends is None:
            raise InternalError(f"the closed curve of slope {self.slope} has no spiral points")
        for q, d in self.ends:
            if q == p:
                return d
        raise KeyError(f"{p} is not a spiral point")

    def reverse_spiral(self, p: Puncture) -> "AllowableCurve":
        """Reverse the spiral direction at p (no-op for closed curves or
        when p is not a spiral point)."""
        if self.ends is None or p not in self.punctures:
            return self
        return AllowableCurve(
            self.slope,
            tuple((q, d.reversed if q == p else d) for q, d in self.ends),  # type: ignore[arg-type]
        )

    def __str__(self) -> str:
        if self.ends is None:
            return f"curve({self.slope})"
        marks = ",".join(f"v{p}:{d.value}" for p, d in self.ends)
        return f"curve({self.slope},{{{marks}}})"

    def to_json(self) -> dict:
        if self.ends is None:
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


_TAG_TO_SPIRAL = {Tagging.PLAIN: SpiralDir.CW, Tagging.NOTCHED: SpiralDir.CCW}
_SPIRAL_TO_TAG = {v: k for k, v in _TAG_TO_SPIRAL.items()}


def kappa(arc: TaggedArc) -> AllowableCurve:
    """Plain tags become clockwise spirals, notched tags counterclockwise."""
    return AllowableCurve(
        arc.slope, tuple((p, _TAG_TO_SPIRAL[t]) for p, t in arc.ends)  # type: ignore[arg-type]
    )


def kappa_inv(curve: AllowableCurve) -> TaggedArc:
    if curve.ends is None:
        raise ClosedCurveHasNoArc(f"{curve} is closed")
    return TaggedArc(
        curve.slope, tuple((p, _SPIRAL_TO_TAG[d]) for p, d in curve.ends)  # type: ignore[arg-type]
    )


def _keys_compatible(x: tuple[int, int, int, int], y: tuple[int, int, int, int]) -> bool:
    """The compatibility kernel on two keys (see :func:`arcs_compatible`)."""
    a, b, mask, marks = x
    c, d, mask2, marks2 = y
    differ = marks ^ marks2
    if mask == mask2 and a == c and b == d:
        return differ & (differ - 1) == 0
    shared = mask & mask2
    return abs(a * d - b * c) == shared.bit_count() and not differ & shared


def _slope_keys(slope: Slope) -> Iterator[tuple[int, int, int, int]]:
    """The keys of the 8 tagged arcs of ``slope``: its two endpoint masks,
    ``1 | 1 << (2*(a % 2) + b % 2)`` (the pair at v00, as in
    :func:`endpoint_sets`) and its complement, each with the 4 subsets of
    its bits notched."""
    a, b = slope.a, slope.b
    first = 1 | 1 << (2 * (a & 1) + (b & 1))
    for mask in (first, 0b1111 ^ first):
        low = mask & -mask
        for marks in (0, low, mask ^ low, mask):
            yield a, b, mask, marks


def _arc_of_key(slope: Slope, key: tuple[int, int, int, int]) -> TaggedArc:
    """The tagged arc of ``slope`` with this key."""
    _, _, mask, marks = key
    return TaggedArc(slope, tuple(  # type: ignore[arg-type]
        (p, Tagging.NOTCHED if marks >> n & 1 else Tagging.PLAIN)
        for n, p in enumerate(PUNCTURES) if mask >> n & 1))


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
    from .lattice import enumerate_slopes

    return [TaggedArc(s, ends)
            for s in enumerate_slopes(max_height)
            for pair in endpoint_sets(s)
            for ends in tag_choices(pair)]


def enumerate_curves(max_height: int) -> list[AllowableCurve]:
    """All allowable curves of slope height <= max_height: one closed
    curve per slope plus the kappa images of all tagged arcs."""
    from .lattice import enumerate_slopes

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
    if x.underlying == y.underlying:
        return PairClass.COINCIDING
    shared = len(x.punctures & y.punctures)
    return (PairClass.FAREY0, PairClass.FAREY1, PairClass.FAREY2)[shared]
