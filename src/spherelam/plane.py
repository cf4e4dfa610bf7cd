"""Exact geometry in the lifted plane.

The base triangulation lifts to the arrangement of all lines ``y = k``,
``x = k`` and ``x + y = k`` (k integer), the families 0, 1 and 2,
triangulating the plane with vertices on the integer lattice.  This module
is the crossing kernel of the shear oracle: it enumerates transversal
crossings of lifted curves with that arrangement, as plain int tuples
``(family, k, x, y)``, and scores each crossing -1/0/+1 from the
quadrilateral surrounding the crossed arc, in one pass whose four side
tests are written out per family.  A crossing of line k of a family adds
to coordinate ``family + 3 * (k % 2)`` of the 6-vector.  Everything is
exact integer arithmetic: the points of one lift are integer numerators
over one common denominator ``den``, chosen by the caller so that every
crossing point of that lift is a multiple of ``1/den``.  A spiral end is
its two outermost crossings, ordered by an integer pseudo-angle (a
numerator and a denominator).  :mod:`render` reads :func:`_closed_lift`.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InternalError

IPoint = tuple[int, int]
# (family, k, x, y): line k of family 0 (y = k), 1 (x = k) or 2 (x + y = k),
# crossed at (x, y), numerators over the lift's denominator
ICrossing = tuple[int, int, int, int]


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


def _dir_crossing(base: IPoint, u: IPoint, den: int, delta: int) -> ICrossing:
    x, y = base[0] * den + delta * u[0], base[1] * den + delta * u[1]
    if u[1] == 0:
        return 0, base[1], x, y
    if u[0] == 0:
        return 1, base[0], x, y
    return 2, base[0] + base[1], x, y


def spiral_crossings(
    base: IPoint,
    direction: IPoint,
    ccw: bool,
    at_end: bool,
    interior_side_left: bool,
    eps: int,
    den: int,
) -> list[ICrossing]:
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
    offsets.sort()  # the six offsets differ, so no two directions are compared
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
) -> list[ICrossing]:
    """Transversal crossings of p(t) = start/den + t*direction with the
    three line families for t in (0, 1), or [0, 1) when include_lo,
    sorted along the curve, and at one point in family order.  ``den``
    must make every crossing point exact over it: a multiple of each
    nonzero one of |dx|, |dy| and |dx + dy|, with start's numerators
    multiples of them as well."""
    x0, y0 = start
    dx, dy = direction
    s = dx + dy
    # (projection on the direction, family, k, x, y): the projection grows
    # with t, so sorting orders the crossings along the curve and, at one
    # point, by family
    out: list[tuple[int, int, int, int, int]] = []
    for k in _levels(y0, dy, den, include_lo):
        y = k * den
        x = x0 + (y - y0) * dx // dy
        out.append((x * dx + y * dy, 0, k, x, y))
    for k in _levels(x0, dx, den, include_lo):
        x = k * den
        y = y0 + (x - x0) * dy // dx
        out.append((x * dx + y * dy, 1, k, x, y))
    for k in _levels(x0 + y0, s, den, include_lo):
        x = x0 + (k * den - x0 - y0) * dx // s
        y = k * den - x
        out.append((x * dx + y * dy, 2, k, x, y))
    out.sort()
    return [(f, k, x, y) for _, f, k, x, y in out]


def accumulate(crossings: Sequence[ICrossing], den: int,
               period: IPoint | None = None) -> list[int]:
    """Sum the -1/0/+1 scores of a curve's crossings into a 6-vector.

    A crossing is scored from the sides of its quadrilateral (U, A, V, B)
    around the crossed arc UV through which the curve enters and leaves it,
    the sides holding the previous and the next crossing point.  Each
    family's four side tests are written out: a point is on a side when it
    lies on the side's line and within its span, and it takes the first
    such side in the order (U,A), (A,V), (V,B), (B,U).  The score is 0 when
    both sides are next to the same end of UV, and otherwise the sign of
    the end next to the entry side against the travel chord.  With
    ``period`` (a lattice vector) the crossings are one period of a closed
    curve and the first and last take their outer neighbor shifted by it;
    otherwise the two end crossings score 0.  All points are numerators
    over ``den``.
    """
    if period is not None and crossings:
        px, py = period[0] * den, period[1] * den
        (f0, k0, x0, y0), (f1, k1, x1, y1) = crossings[0], crossings[-1]
        crossings = [(f1, k1, x1 - px, y1 - py), *crossings, (f0, k0, x0 + px, y0 + py)]
    vec = [0] * 6
    for (f, k, x, y), (_, _, ex, ey), (_, _, xx, xy) in zip(
            crossings[1:-1], crossings, crossings[2:]):
        # U, and V, the entry and the exit relative to U; e and o tell on
        # which side the entry and the exit lie: 0 next to U, 1 next to V,
        # -1 off the quad (sides and vertices below in lattice units)
        if f == 0:  # y = k: A, V, B = U + (1, -1), (1, 0), (0, 1)
            # sides on x + y = 0, x = 1, x + y = 1, x = 0
            ux, uy, vx, vy = x // den * den, k * den, den, 0
            ex, ey, xx, xy = ex - ux, ey - uy, xx - ux, xy - uy
            e = (0 if ex + ey == 0 and 0 <= ex <= den else 1 if ex == den and -den <= ey <= 0
                 else 1 if ex + ey == den and 0 <= ex <= den else 0 if ex == 0 and 0 <= ey <= den
                 else -1)
            o = (0 if xx + xy == 0 and 0 <= xx <= den else 1 if xx == den and -den <= xy <= 0
                 else 1 if xx + xy == den and 0 <= xx <= den else 0 if xx == 0 and 0 <= xy <= den
                 else -1)
        elif f == 1:  # x = k: A, V, B = U + (1, 0), (0, 1), (-1, 1)
            # sides on y = 0, x + y = 1, y = 1, x + y = 0
            ux, uy, vx, vy = k * den, y // den * den, 0, den
            ex, ey, xx, xy = ex - ux, ey - uy, xx - ux, xy - uy
            e = (0 if ey == 0 and 0 <= ex <= den else 1 if ex + ey == den and 0 <= ex <= den
                 else 1 if ey == den and -den <= ex <= 0 else 0 if ex + ey == 0 and -den <= ex <= 0
                 else -1)
            o = (0 if xy == 0 and 0 <= xx <= den else 1 if xx + xy == den and 0 <= xx <= den
                 else 1 if xy == den and -den <= xx <= 0 else 0 if xx + xy == 0 and -den <= xx <= 0
                 else -1)
        else:  # x + y = k: A, V, B = U + (0, -1), (1, -1), (1, 0)
            # sides on x = 0, y = -1, x = 1, y = 0
            ux = x // den * den
            uy, vx, vy = k * den - ux, den, -den
            ex, ey, xx, xy = ex - ux, ey - uy, xx - ux, xy - uy
            e = (0 if ex == 0 and -den <= ey <= 0 else 1 if ey == -den and 0 <= ex <= den
                 else 1 if ex == den and -den <= ey <= 0 else 0 if ey == 0 and 0 <= ex <= den
                 else -1)
            o = (0 if xx == 0 and -den <= xy <= 0 else 1 if xy == -den and 0 <= xx <= den
                 else 1 if xx == den and -den <= xy <= 0 else 0 if xy == 0 and 0 <= xx <= den
                 else -1)
        if e < 0 or o < 0:
            raise InternalError(f"crossing neighbor off the quad boundary at {(f, k, x, y)}")
        if e == o:
            continue
        # the endpoint of UV next to the entry side, relative to U
        nx, ny = (vx, vy) if e else (0, 0)
        cr = (xx - ex) * (ny - ey) - (xy - ey) * (nx - ex)
        if cr == 0:
            raise InternalError(f"degenerate sign test at {(f, k, x, y)}")
        # entry-adjacent endpoint to the right of the travel chord: +1
        vec[f + 3 * (k & 1)] += 1 if cr < 0 else -1
    return vec
