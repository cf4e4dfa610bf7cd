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
from typing import Sequence

from .errors import ClosedCurveHasNoArc, InternalError, MalformedInput
from .lattice import Slope, UnimodularMap, farey_distance


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

    def diff(self, other: "Puncture") -> tuple[int, int]:
        return ((self.i + other.i) % 2, (self.j + other.j) % 2)

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


def _check_ends(slope: Slope, p: Puncture, q: Puncture) -> None:
    if p == q:
        raise ValueError("endpoints must be distinct punctures (no loops)")
    if p.diff(q) != slope.parity:
        raise ValueError(
            f"endpoints {p},{q} do not match the parity of slope {slope}"
        )


class _ArcOrCurve:
    """What tagged arcs and allowable curves share: a slope and, unless the
    curve is closed, two endpoints each with a tag or a spiral direction."""

    slope: Slope
    ends: tuple | None

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


@dataclass(frozen=True)
class TaggedArc(_ArcOrCurve):
    """A tagged arc: slope plus an unordered pair of tagged endpoints.

    ``ends`` is stored sorted by puncture, so equal arcs compare equal.
    """

    slope: Slope
    ends: tuple[tuple[Puncture, Tagging], tuple[Puncture, Tagging]]

    def __post_init__(self) -> None:
        ends = tuple(sorted(self.ends, key=lambda e: e[0]))
        object.__setattr__(self, "ends", ends)
        _check_ends(self.slope, ends[0][0], ends[1][0])
        object.__setattr__(self, "punctures", frozenset(e[0] for e in ends))
        object.__setattr__(self, "underlying", (self.slope, self.punctures))

    punctures: frozenset[Puncture] = field(init=False, compare=False)
    underlying: tuple = field(init=False, compare=False)

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


@dataclass(frozen=True)
class AllowableCurve(_ArcOrCurve):
    """An allowable curve: closed (``ends is None``) or spiraling into two
    punctures with independent spiral directions."""

    slope: Slope
    ends: tuple[tuple[Puncture, SpiralDir], tuple[Puncture, SpiralDir]] | None = None

    def __post_init__(self) -> None:
        if self.ends is not None:
            ends = tuple(sorted(self.ends, key=lambda e: e[0]))
            object.__setattr__(self, "ends", ends)
            _check_ends(self.slope, ends[0][0], ends[1][0])
        object.__setattr__(
            self, "punctures",
            frozenset(e[0] for e in self.ends) if self.ends else frozenset(),
        )
        object.__setattr__(self, "underlying", (self.slope, self.punctures))

    punctures: frozenset[Puncture] = field(init=False, compare=False)
    underlying: tuple = field(init=False, compare=False)

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


def _decorations_agree(x_ends, y_ends, shared: frozenset[Puncture]) -> bool:
    xd = dict(x_ends)
    yd = dict(y_ends)
    return all(xd[p] == yd[p] for p in shared)


def _coinciding_ok(x_ends, y_ends) -> bool:
    """For equal underlying arcs/curves: decorations agree at exactly one end."""
    xd = dict(x_ends)
    yd = dict(y_ends)
    agreements = sum(1 for p in xd if xd[p] == yd[p])
    return agreements == 1


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
    """
    if x == y:
        return True
    if x.underlying == y.underlying:
        return _coinciding_ok(x.ends, y.ends)
    shared = x.punctures & y.punctures
    if farey_distance(x.slope, y.slope) != len(shared):
        return False
    return _decorations_agree(x.ends, y.ends, shared)


def curves_compatible(x: AllowableCurve, y: AllowableCurve) -> bool:
    """Allowable-curve compatibility: closed curves are compatible only
    with themselves and with spiraling curves of the same slope; two
    spiraling curves follow :func:`arcs_compatible`."""
    if x.is_closed and y.is_closed:
        return x == y
    if x.is_closed or y.is_closed:
        return x.slope == y.slope
    return arcs_compatible(x, y)


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
