"""Exact geometry in the lifted plane.

The base triangulation lifts to the arrangement of all lines ``y = k``,
``x = k`` and ``x + y = k`` (k integer), the families 0, 1 and 2,
triangulating the plane with vertices on the integer lattice.  This module
is the crossing kernel of the shear oracle: it enumerates transversal
crossings of lifted curves with that arrangement and scores each crossing
-1/0/+1 from the quadrilateral surrounding the crossed arc.  A crossing of
line k of a family adds to coordinate ``family + 3 * (k % 2)`` of the
6-vector.

A crossing is one plain int tuple from the lift to the score,
``(t, family, k, x, y)``: ``t`` orders a segment's crossings along it (its
projection on the direction; 0 on a spiral end's, built in curve order),
and ``(x, y)`` is the crossing point.  Everything is exact integer
arithmetic: the points of one lift are integer numerators over one common
denominator ``den``, chosen by the caller so that every crossing point of
that lift is a multiple of ``1/den``.  A spiral end is its two outermost
crossings: a scan of the six incident directions in angle order from the
integer pseudo-angle (a numerator and a denominator) of the travel
direction.  :mod:`render` reads :func:`_closed_lift`.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InternalError

IPoint = tuple[int, int]
# (t, family, k, x, y): line k of family 0 (y = k), 1 (x = k) or 2 (x + y = k),
# crossed at (x, y), numerators over the lift's denominator; t orders the
# crossings of a segment along it
ICrossing = tuple[int, int, int, int, int]


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


# The six lattice directions incident to every lattice point, with their
# pseudo-angles, in counterclockwise order.
_INCIDENT_DIRS: tuple[tuple[IPoint, int], ...] = (
    ((1, 0), 0), ((0, 1), 2), ((-1, 1), 3),
    ((-1, 0), 4), ((0, -1), 6), ((1, -1), 7),
)


def _dir_crossing(base: IPoint, u: IPoint, den: int, delta: int) -> ICrossing:
    x, y = base[0] * den + delta * u[0], base[1] * den + delta * u[1]
    if u[1] == 0:
        return 0, 0, base[1], x, y
    if u[0] == 0:
        return 0, 1, base[0], x, y
    return 0, 2, base[0] + base[1], x, y


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
    along it and winds in.  The outermost crossings lie on the first two
    incident arcs met turning around U, counterclockwise if ``ccw``, from
    the direction in which the straight part leaves U (``direction`` at a
    start, its reverse at an end): one scan of the six directions in angle
    order.  An arc parallel to the straight part is met last, but for an
    ending spiral ``interior_side_left`` may put it first: it tells on
    which side of that line the straight part of the curve runs (left of
    the travel direction iff the starting spiral winds counterclockwise).

    Deeper crossings score 0.  In the whole spiral, a crossing of rank
    r >= 1 on the arc UV has its two neighbors on the incident arcs just
    before and after UV around U: the sides (U,A) and (B,U) of its
    quadrilateral, both adjacent to U, so ``accumulate`` scores it 0.
    Rank 0's neighbors are rank 1 and the last crossing of the straight
    part, however deep the spiral goes, so it scores as in any longer
    spiral; rank 1 is there only as that neighbor and, as an end of the
    open path, scores 0.  The argument is local: it holds at every height.
    """
    n, q = pseudo_angle((-direction[0], -direction[1]) if at_end else direction)
    # 1 when a parallel incident direction comes first, 0 when it comes last
    tie = int(at_end and interior_side_left == ccw)
    if ccw:  # the first direction past angle n/q counterclockwise, then the next
        i = 0
        while i < 6 and _INCIDENT_DIRS[i][1] * q + tie <= n:
            i += 1
        first, second = _INCIDENT_DIRS[i % 6][0], _INCIDENT_DIRS[(i + 1) % 6][0]
    else:  # the first one past it clockwise, then the one before
        i = 5
        while i >= 0 and _INCIDENT_DIRS[i][1] * q - tie >= n:
            i -= 1
        first, second = _INCIDENT_DIRS[i][0], _INCIDENT_DIRS[i - 1][0]
    crossings = [_dir_crossing(base, first, den, eps),
                 _dir_crossing(base, second, den, eps >> 1)]
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
    # the projection on the direction grows with t, so sorting orders the
    # crossings along the curve and, at one point, by family
    out: list[ICrossing] = []
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
    return out


def accumulate(crossings: Sequence[ICrossing], den: int,
               period: IPoint | None = None) -> list[int]:
    """Sum the -1/0/+1 scores of a curve's crossings into a 6-vector.

    A crossing is scored from the sides of its quadrilateral (U, A, V, B)
    around the crossed arc UV through which the curve enters and leaves it,
    the sides holding the previous and the next crossing point.  Each
    family's quadrilateral is the square [0, den]^2 in its own frame
    (p, q), with U = (0, 0), A = (0, den), V = (den, den) and B = (den, 0):
    relative to U, (p, q) is (x + y, x) for family 0, (y, x + y) for
    family 1 and (x, -y) for family 2, each map of determinant -1.  In one
    pass over the four sides a point takes the first side it lies on in
    the order (U,A) p = 0, (A,V) q = den, (V,B) p = den, (B,U) q = 0; the
    pass reads p first, since only (A,V) and (B,U) hold a point with
    0 < p < den, and the corner V, on (A,V) and (V,B), is next to V either
    way.  The score is 0 when both sides are next to the same end of UV,
    and otherwise the sign of the end next to the entry side against the
    travel chord.  With ``period`` (a lattice vector) the crossings are one
    period of a closed curve and the first and last take their outer
    neighbor shifted by it; otherwise the two end crossings score 0.  All
    points are numerators over ``den``.
    """
    if period is not None and crossings:
        px, py = period[0] * den, period[1] * den
        (t0, f0, k0, x0, y0), (t1, f1, k1, x1, y1) = crossings[0], crossings[-1]
        crossings = [(t1, f1, k1, x1 - px, y1 - py), *crossings, (t0, f0, k0, x0 + px, y0 + py)]
    vec = [0] * 6
    for (_, _, _, ex, ey), (_, f, k, x, y), (_, _, _, ox, oy) in zip(
            crossings, crossings[1:], crossings[2:]):
        # the entry e and the exit o in the frame of the crossing's family
        if f == 0:  # y = k: U = (floor x, k)
            ux = x // den * den
            w = ux + k * den
            ep, eq, op, oq = ex + ey - w, ex - ux, ox + oy - w, ox - ux
        elif f == 1:  # x = k: U = (k, floor y)
            uy = y // den * den
            w = k * den + uy
            ep, eq, op, oq = ey - uy, ex + ey - w, oy - uy, ox + oy - w
        else:  # x + y = k: U = (floor x, k - floor x)
            ux = x // den * den
            uy = k * den - ux
            ep, eq, op, oq = ex - ux, uy - ey, ox - ux, uy - oy
        # the end of UV next to the side: 0 for U, 1 for V, -1 off the quad
        if 0 < ep < den:
            e = 1 if eq == den else 0 if eq == 0 else -1
        elif ep == 0:
            e = 0 if 0 <= eq <= den else -1
        else:
            e = 1 if ep == den and 0 <= eq <= den else -1
        if 0 < op < den:
            o = 1 if oq == den else 0 if oq == 0 else -1
        elif op == 0:
            o = 0 if 0 <= oq <= den else -1
        else:
            o = 1 if op == den and 0 <= oq <= den else -1
        if e < 0 or o < 0:
            raise InternalError(f"crossing neighbor off the quad boundary at {(f, k, x, y)}")
        if e == o:
            continue
        # the entry-adjacent end n = (e*den, e*den) against the travel chord
        n = e * den
        cr = (oq - eq) * (ep - n) - (op - ep) * (eq - n)
        if cr == 0:
            raise InternalError(f"degenerate sign test at {(f, k, x, y)}")
        # n to the right of the chord (left in the mirrored frame): +1
        vec[f + 3 * (k & 1)] += 1 if cr > 0 else -1
    return vec
