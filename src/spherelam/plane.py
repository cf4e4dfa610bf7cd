"""Exact geometry in the lifted plane.

The base triangulation lifts to the arrangement of all lines ``x = k``,
``y = k`` and ``x + y = k`` (k integer), triangulating the plane with
vertices on the integer lattice.  This module is the crossing kernel of
the shear oracle: it enumerates transversal crossings of lifted curves
with that arrangement and scores each crossing -1/0/+1 from the
quadrilateral surrounding the crossed arc, in one pass that finds the side
holding a neighboring crossing by the level of the lattice line it lies on.
Everything is exact integer arithmetic: the points of one lift are integer
numerators over one common denominator ``den``, chosen by the caller so
that every crossing point of that lift is a multiple of ``1/den``.  A
spiral end is its two outermost crossings, ordered by an integer
pseudo-angle (a numerator and a denominator).  :mod:`render` reads
:func:`_closed_lift`.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._frozen import Frozen
from .errors import InternalError

IPoint = tuple[int, int]

# (family, parity of k) -> coordinate slot in the 6-vector
FAMILY_INDEX = {
    ("h", 0): 0, ("h", 1): 3,   # horizontal lines y = k
    ("v", 0): 1, ("v", 1): 4,   # vertical lines x = k
    ("d", 0): 2, ("d", 1): 5,   # diagonal lines x + y = k
}


class Crossing(Frozen):
    __slots__ = _fields = ("family", "k", "point")
    family: str          # 'h' | 'v' | 'd'
    k: int               # line index within the family
    point: IPoint        # numerators over the lift's denominator

    def __init__(self, family: str, k: int, point: IPoint) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "point", point)

    @property
    def slot(self) -> int:
        return FAMILY_INDEX[(self.family, self.k % 2)]


def pseudo_angle(v: IPoint) -> tuple[int, int]:
    """Order-preserving angle surrogate in [0, 8), with the eight compass
    directions at integer values (E=0, N=2, NW=3, W=4, S=6, SE=7), as an
    unreduced numerator and a positive denominator."""
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector")
    if x > 0 and y >= 0:
        return 2 * y, x + y
    if y > 0:  # x <= 0: 2 + 2(-x)/(y - x)
        return 2 * y - 4 * x, y - x
    if x < 0:  # y <= 0: 4 + 2(-y)/(-x - y)
        return -4 * x - 6 * y, -x - y
    return 8 * x - 6 * y, x - y  # x >= 0, y < 0: 6 + 2x/(x - y)


# The six lattice directions incident to every lattice point.
_INCIDENT_DIRS: tuple[tuple[IPoint, int], ...] = (
    ((1, 0), 0), ((0, 1), 2), ((-1, 1), 3),
    ((-1, 0), 4), ((0, -1), 6), ((1, -1), 7),
)


def _dir_crossing(base: IPoint, u: IPoint, den: int, delta: int) -> Crossing:
    point = (base[0] * den + delta * u[0], base[1] * den + delta * u[1])
    if u[1] == 0:
        family, k = "h", base[1]
    elif u[0] == 0:
        family, k = "v", base[0]
    else:
        family, k = "d", base[0] + base[1]
    return Crossing(family, k, point)


def spiral_crossings(
    base: IPoint,
    direction: IPoint,
    ccw: bool,
    at_end: bool,
    interior_side_left: bool,
    eps: int,
    den: int,
) -> list[Crossing]:
    """The two outermost crossings of a spiral end with the arcs incident
    to its lattice point U, in curve order; crossing i counted from the
    outside lies at distance ``eps >> i`` (numerators over ``den``) from
    U, so ``eps`` must be even.

    A starting spiral leaves along ``direction``; an ending spiral arrives
    along it and winds in.  When ``direction`` is parallel to an incident
    arc, ``interior_side_left`` breaks the tie: it tells on which side of
    that line the straight part of the curve runs (left of the travel
    direction iff the starting spiral winds counterclockwise).

    Deeper crossings score 0.  In the whole spiral, a crossing of rank
    r >= 1 on the arc UV has its two neighbors on the incident arcs just
    before and after UV around U: the sides (U,A) and (B,U) of its
    quadrilateral, both adjacent to U, so ``accumulate`` scores it 0.
    Rank 0's neighbors are rank 1 and the last crossing of the straight
    part, however deep the spiral goes, so it scores as in any longer
    spiral; rank 1 is there only as that neighbor and, as an end of the
    open path, scores 0.  The argument is local: it holds at every height.
    """
    # offsets in units of 1/q of a pseudo-angle step, one turn being 8q;
    # scaling n and q by one factor keeps their order
    n, q = pseudo_angle((-direction[0], -direction[1]) if at_end else direction)
    offsets: list[tuple[int, IPoint]] = []
    for u, ang in _INCIDENT_DIRS:
        off = (ang * q - n) % (8 * q) if ccw else (n - ang * q) % (8 * q)
        if off == 0:
            if at_end:
                include_first = interior_side_left if ccw else not interior_side_left
                off = 0 if include_first else 8 * q
            else:
                off = 8 * q
        offsets.append((off, u))
    offsets.sort(key=lambda e: e[0])
    crossings = [_dir_crossing(base, u, den, eps >> rank)
                 for rank, (_, u) in enumerate(offsets[:2])]
    if not at_end:
        crossings.reverse()  # curve order: rank 1, then rank 0
    return crossings


def _nonzero_product(*factors: int) -> int:
    """|product| of the nonzero factors."""
    return math.prod(abs(f) for f in factors if f)


def _closed_lift(a: int, b: int, direction: tuple[int, int]):
    """The start, off the lattice lines, of the lift of the closed curve
    (a, b) along ``direction``: (1/(2|b|), 0), or (0, 1/2) when b = 0, as
    numerators over a denominator that makes every crossing point of the
    segment exact."""
    m = _nonzero_product(direction[0], direction[1], direction[0] + direction[1])
    return ((m, 0), 2 * abs(b) * m) if b else ((0, m), 2 * m)


def _levels(c0: int, rate: int, den: int, include_lo: bool) -> range:
    """The integers k with k*den strictly between c0 and c0 + rate*den,
    and k*den == c0 as well when include_lo."""
    fl, cl = c0 // den, -(-c0 // den)
    if rate > 0:
        return range(cl if include_lo else fl + 1, cl + rate)
    if rate < 0:
        return range(fl + rate + 1, fl + 1 if include_lo else cl)
    return range(0)


def segment_crossings(
    start: IPoint,
    direction: IPoint,
    den: int,
    include_lo: bool = False,
) -> list[Crossing]:
    """Transversal crossings of p(t) = start/den + t*direction with the
    three line families for t in (0, 1), or [0, 1) when include_lo,
    sorted along the curve.  ``den`` must make every crossing point exact
    over it: a multiple of each nonzero one of |dx|, |dy| and |dx + dy|,
    with start's numerators multiples of them as well."""
    x0, y0 = start
    dx, dy = direction
    out = [Crossing("h", k, (x0 + (k * den - y0) * dx // dy, k * den))
           for k in _levels(y0, dy, den, include_lo)]
    out += [Crossing("v", k, (k * den, y0 + (k * den - x0) * dy // dx))
            for k in _levels(x0, dx, den, include_lo)]
    s = dx + dy
    for k in _levels(x0 + y0, s, den, include_lo):
        x = x0 + (k * den - x0 - y0) * dx // s
        out.append(Crossing("d", k, (x, k * den - x)))
    # the projection on the direction grows with t
    out.sort(key=lambda c: c.point[0] * dx + c.point[1] * dy)
    return out


# The quadrilateral (U, A, V, B) around the arc UV crossed by a line of each
# family, relative to U and in lattice units: V - U, and the sides (U,A),
# (A,V), (V,B), (B,U), each as the line it lies on (coordinate 0: x, 1: y,
# 2: x + y, and its level) and the span of x it covers (of y on a line x =
# level), starting at lo.
_QUADS = {
    "h": ((1, 0), ((2, 0, 0), (0, 1, -1), (2, 1, 0), (0, 0, 0))),
    "v": ((0, 1), ((1, 0, 0), (2, 1, 0), (1, 1, -1), (2, 0, -1))),
    "d": ((1, -1), ((0, 0, -1), (1, -1, 0), (0, 1, -1), (1, 0, 0))),
}


def accumulate(crossings: Sequence[Crossing], den: int,
               period: IPoint | None = None) -> list[int]:
    """Sum the -1/0/+1 scores of a curve's crossings into a 6-vector.

    A crossing is scored from the sides of its quadrilateral through which
    the curve enters and leaves it, the sides holding the previous and the
    next crossing point: a point is on a side when its coordinate equals the
    side's level and the other coordinate lies in the side's span, and it
    takes the first such side in the order (U,A), (A,V), (V,B), (B,U).
    With ``period`` (a lattice vector) the crossings are one period of a
    closed curve and the first and last take their outer neighbor shifted
    by it; otherwise the two end crossings score 0.  All points are
    numerators over ``den``.
    """
    pts = [c.point for c in crossings]
    if period is None:
        crossings = crossings[1:-1]
    elif pts:
        px, py = period[0] * den, period[1] * den
        pts = [(pts[-1][0] - px, pts[-1][1] - py), *pts, (pts[0][0] + px, pts[0][1] + py)]
    quads = {family: ((vx * den, vy * den),
                      [(axis, level * den, lo * den, lo * den + den, i in (1, 2))
                       for i, (axis, level, lo) in enumerate(sides)])
             for family, ((vx, vy), sides) in _QUADS.items()}
    vec = [0] * 6
    for c, entry, exit in zip(crossings, pts, pts[2:]):
        k = c.k * den
        if c.family == "v":
            ux, uy = k, c.point[1] // den * den
        else:
            ux = c.point[0] // den * den
            uy = k if c.family == "h" else k - ux
        V, sides = quads[c.family]
        ex, ey = entry[0] - ux, entry[1] - uy
        xx, xy = exit[0] - ux, exit[1] - uy
        at_v = []
        for p in ((ex, ey, ex + ey), (xx, xy, xx + xy)):
            for axis, level, lo, hi, side_at_v in sides:
                if p[axis] == level and lo <= p[axis == 0] <= hi:
                    at_v.append(side_at_v)
                    break
            else:
                raise InternalError(f"crossing neighbor off the quad boundary at {c}")
        if at_v[0] == at_v[1]:
            continue
        # the endpoint of UV next to the entry side, relative to U
        nx, ny = V if at_v[0] else (0, 0)
        cr = (xx - ex) * (ny - ey) - (xy - ey) * (nx - ex)
        if cr == 0:
            raise InternalError(f"degenerate sign test at {c}")
        # entry-adjacent endpoint to the right of the travel chord: +1
        vec[c.slot] += 1 if cr < 0 else -1
    return vec
