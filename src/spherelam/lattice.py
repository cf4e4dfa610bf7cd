"""Exact slope arithmetic, Farey relations and unimodular basis changes.

A rational slope is kept in *standard form* b/a: ``a`` a nonnegative
integer, ``b`` an integer, with ``b = 1`` when ``a = 0`` (the slope of
vertical lines, written ``inf``) and ``gcd(a, |b|) = 1`` when ``a > 0``.
The primitive lattice vector of the slope is ``(a, b)``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

from ._frozen import Frozen
from .errors import (
    InternalError,
    MalformedInput,
    NotFareyNeighbors,
    ZeroVector,
)

#: Hard cap on enumeration heights; keeps accidental sweeps bounded.
MAX_HEIGHT = 64
# The most digits of an integer read from text: a slope part, a JSON integer
# or a render window entry.  A command multiplies at most three of them (a
# tangle weight by a curve's image under a frame of two input slopes), so
# no printed integer reaches the 4300 digits past which Python 3.11 refuses
# to convert an int to text (README, "Work caps").
_MAX_DIGITS = 1400


class Slope(Frozen):
    """A rational slope b/a in standard form (``inf`` = 1/0 is (a=0, b=1))."""

    __slots__ = _fields = ("a", "b")
    a: int
    b: int

    def __init__(self, a: int, b: int) -> None:
        if a < 0:
            raise ValueError(f"a must be nonnegative, got {a}")
        if a == 0:
            if b != 1:
                raise ValueError("the infinite slope is (0, 1)")
        elif math.gcd(a, abs(b)) != 1:
            raise ValueError(f"({a}, {b}) is not in standard form")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __eq__(self, other) -> bool:
        if other.__class__ is Slope:
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    @property
    def is_infinite(self) -> bool:
        return self.a == 0

    @property
    def vector(self) -> tuple[int, int]:
        return (self.a, self.b)

    @property
    def height(self) -> int:
        return max(self.a, abs(self.b))

    @property
    def parity(self) -> tuple[int, int]:
        return (self.a % 2, self.b % 2)

    # Total order by value, inf = (0, 1) last: with a, a' >= 0, s < t iff
    # b*a' < a*b'; s > t and s >= t fall back on the reflected t < s, t <= s
    def __lt__(self, other: "Slope") -> bool:
        return self.b * other.a < self.a * other.b

    def __le__(self, other: "Slope") -> bool:
        return self.b * other.a <= self.a * other.b

    def __str__(self) -> str:
        return "inf" if self.is_infinite else f"{self.b}/{self.a}"

    @staticmethod
    def parse(text: str) -> "Slope":
        """Parse "b/a" ("inf" for the vertical slope, bare "n" for n/1):
        after stripping surrounding whitespace, ``[+-]?[0-9]+`` on each side
        of at most one "/", or one of "inf", "-inf", "1/0" and "-1/0"."""
        if not isinstance(text, str):
            raise MalformedInput(f"a slope is a string, got {text!r:.60}")
        text = text.strip()
        if text in ("inf", "-inf", "1/0", "-1/0"):
            return Slope(0, 1)
        num, slash, den = text.partition("/")
        if not (_is_integer_text(num) and (_is_integer_text(den) or not slash)):
            raise MalformedInput(f'a slope is "b/a", "n" or "inf", with b, a and n each '
                                 f'[+-]?[0-9]+; got {text!r:.60}')
        return standard_form(_parse_int(den) if slash else 1, _parse_int(num))


def _is_integer_text(text: str) -> bool:
    """``text`` is ``[+-]?[0-9]+``: ASCII digits only, no "_" or space."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def _parse_int(text: str) -> int:
    """``int(text)``; more than :data:`_MAX_DIGITS` characters besides
    surrounding space and signs is :class:`MalformedInput`."""
    digits = len(text.strip().lstrip("+-"))
    if digits > _MAX_DIGITS:
        raise MalformedInput(f"an integer has at most {_MAX_DIGITS} digits, got {digits}")
    return int(text)


def _slope_sorted(items: Iterable[Sequence]) -> list:
    """``items`` led by vectors (a, b) in standard form, such as arc keys,
    in the order of :class:`Slope` (stable): an insertion sort on the
    cross-products, for the two or three slopes of a type or a frame."""
    out: list = []
    for x in items:
        i = len(out)
        while i and out[i - 1][1] * x[0] > out[i - 1][0] * x[1]:
            i -= 1
        out.insert(i, x)
    return out


INF = Slope(0, 1)
ZERO = Slope(1, 0)
MINUS_ONE = Slope(1, -1)
#: The Farey-1 triple of the base triangulation.
BASE_TRIPLE: tuple[Slope, Slope, Slope] = (ZERO, INF, MINUS_ONE)


def standard_vector(p: int, q: int) -> tuple[int, int]:
    """The primitive vector in standard form (a > 0, or (0, 1)) of the
    slope q/p of the lattice vector (p, q)."""
    if p == 0 and q == 0:
        raise ZeroVector("(0, 0) has no slope")
    if p == 0:
        return 0, 1
    if p < 0:
        p, q = -p, -q
    g = math.gcd(p, abs(q))
    return p // g, q // g


def standard_form(p: int, q: int) -> Slope:
    """Standard form of the slope q/p of the lattice vector (p, q)."""
    return Slope(*standard_vector(p, q))


def det2(s: Slope | tuple[int, int], t: Slope | tuple[int, int]) -> int:
    """Determinant of the 2x2 matrix with rows the primitive vectors of s, t."""
    sa, sb = s.vector if isinstance(s, Slope) else s
    ta, tb = t.vector if isinstance(t, Slope) else t
    return sa * tb - sb * ta


def farey_distance(s: Slope, t: Slope) -> int:
    """|ad - bc| for s = b/a and t = d/c; 0 iff the slopes are equal."""
    return abs(det2(s, t))


def is_farey1_triple(s: Slope, t: Slope, u: Slope) -> bool:
    """True iff the three slopes are pairwise at Farey distance 1."""
    return (
        farey_distance(s, t) == 1
        and farey_distance(t, u) == 1
        and farey_distance(s, u) == 1
    )


def farey1_triples(slopes: Sequence[Slope]) -> list[tuple[Slope, Slope, Slope]]:
    """Every Farey-1 triple among ``slopes``, each ordered by position in
    ``slopes``, in :func:`itertools.combinations` order.

    The third slope w of a Farey-1 pair s, t is s + t or s - t: Cramer's
    rule gives det(s, t) * w = det(w, t) * s + det(s, w) * t with all three
    determinants +-1.  So one pass over the pairs finds every triple.
    """
    position = {s: i for i, s in enumerate(slopes)}
    found = []
    for (i, s), (j, t) in itertools.combinations(enumerate(slopes), 2):
        if abs(s.a * t.b - s.b * t.a) == 1:
            for sign in (1, -1):
                k = position.get(standard_form(s.a + sign * t.a, s.b + sign * t.b), -1)
                if k > j:
                    found.append((i, j, k))
    return [(slopes[i], slopes[j], slopes[k]) for i, j, k in sorted(found)]


def mediant(s: Slope, t: Slope) -> Slope:
    """Componentwise sum of the primitive vectors; lies strictly between
    s and t in the slope order.  Requires farey_distance(s, t) = 1."""
    if farey_distance(s, t) != 1:
        raise NotFareyNeighbors(f"{s} and {t} are not Farey neighbors")
    return standard_form(s.a + t.a, s.b + t.b)


def check_height(max_height: int) -> None:
    """Reject a height bound other than an int (not a bool) in 1..MAX_HEIGHT
    with ValueError; every search bounded by a height checks it first."""
    if type(max_height) is not int or max_height < 1:
        raise ValueError(f"max_height must be a positive int, not {max_height!r}")
    if max_height > MAX_HEIGHT:
        raise ValueError(f"max_height capped at {MAX_HEIGHT}")


def enumerate_slopes(max_height: int) -> list[Slope]:
    """All standard-form slopes with a <= max_height, |b| <= max_height,
    in (a, b)-lexicographic order.  Always includes inf = (0, 1)."""
    check_height(max_height)
    out = [INF]
    for a in range(1, max_height + 1):
        for b in range(-max_height, max_height + 1):
            if math.gcd(a, abs(b)) == 1:
                out.append(Slope(a, b))
    return out


def _left_farey_neighbor(f: Slope) -> Slope:
    """The slope d/c < f with c*b0 - d*a0 = 1 for f = b0/a0 and c in
    [1, a0], where c is the inverse of b0 mod a0 (a0 itself when a0 = 1),
    so farey_distance(d/c, f) = 1."""
    if f.is_infinite:
        return ZERO
    a0, b0 = f.vector
    c = pow(b0, -1, a0) or a0
    x = Slope(c, (c * b0 - 1) // a0)
    if not (det2(x, f) == 1 and x < f):
        raise InternalError(f"{x} is not a left Farey neighbor of {f}")
    return x


def separating_neighbors(M: Iterable[Slope], f: Slope) -> tuple[Slope, Slope]:
    """Slopes (b/a, d/c) with (b/a, d/c, f) a Farey-1 triple,
    b/a < d/c < f, and no slope of M in the interval [b/a, f).

    Found by Stern-Brocot descent toward f from below; always succeeds.
    The descent from a left Farey neighbor x of f passes the mediants
    x + k*f, which increase toward f; past the largest slope q of M below
    f means det2(q, x + k*f) > 0, so one division gives the first such k.
    """
    below = [q for q in set(M) if q < f]
    x = _left_farey_neighbor(f)
    q = max(below, default=None)
    if q is not None:
        k = max(0, det2(x, q) // det2(q, f) + 1)
        x = Slope(x.a + k * f.a, x.b + k * f.b)
    y = mediant(x, f)
    if not (is_farey1_triple(x, y, f) and x < y < f and (q is None or q < x)):
        raise InternalError(f"({x}, {y}, {f}) is not an increasing Farey-1 triple "
                            "above every slope of M below f")
    return x, y


Matrix2 = tuple[tuple[int, int], tuple[int, int]]


class UnimodularMap(Frozen):
    """An integer-linear relabeling of the lattice plane; punctures move by
    its reduction mod 2.  |det| = 1 always; the lattice frames of
    :func:`curves._lattice_frame` have det = +1 (orientation preserving)."""

    __slots__ = _fields = ("linear",)
    linear: Matrix2

    def __init__(self, linear: Matrix2) -> None:
        object.__setattr__(self, "linear", linear)
        if abs(self.det) != 1:
            raise ValueError("linear part must be unimodular")

    @property
    def det(self) -> int:
        (p, q), (r, s) = self.linear
        return p * s - q * r

    def apply_vector(self, v: tuple[int, int]) -> tuple[int, int]:
        (p, q), (r, s) = self.linear
        return (p * v[0] + q * v[1], r * v[0] + s * v[1])

    def apply_slope(self, s: Slope) -> Slope:
        return standard_form(*self.apply_vector(s.vector))

