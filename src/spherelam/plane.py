"""Exact geometry in the lifted plane.

The base triangulation lifts to the arrangement of all lines ``x = k``,
``y = k`` and ``x + y = k`` (k integer), triangulating the plane with
vertices on the integer lattice.  This module is the crossing kernel of
the shear oracle: it enumerates transversal crossings of lifted curves
with that arrangement and scores each crossing -1/0/+1 from the
quadrilateral surrounding the crossed arc.  Everything is exact integer
arithmetic: the points of one lift are integer numerators over one common
denominator ``den``, chosen by the caller so that every crossing point and
every spiral offset of that lift is a multiple of ``1/den``.
"""

from __future__ import annotations

from fractions import Fraction
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


def pseudo_angle(v: IPoint) -> Fraction:
    """Order-preserving angle surrogate in [0, 8), with the eight compass
    directions at integer values (E=0, N=2, NW=3, W=4, S=6, SE=7)."""
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector")
    if x > 0 and y >= 0:
        return Fraction(2 * y, x + y)
    if y > 0:  # x <= 0
        return 2 + Fraction(2 * -x, y - x)
    if x < 0:  # y <= 0
        return 4 + Fraction(2 * -y, -x - y)
    return 6 + Fraction(2 * x, x - y)  # x >= 0, y < 0


# The six lattice directions incident to every lattice point.
_INCIDENT_DIRS: tuple[tuple[IPoint, int], ...] = (
    ((1, 0), 0), ((0, 1), 2), ((-1, 1), 3),
    ((-1, 0), 4), ((0, -1), 6), ((1, -1), 7),
)


# Turns of a spiral end kept by spiral_crossings: the outer one is scored,
# the inner one gives its crossings their neighbors.
_SPIRAL_WRAPS = 2


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
    """Effective crossings of a spiral end with the arcs incident to its
    lattice point, in curve order.

    The i-th crossing counted from the outside in lies at distance
    ``eps / 2**i`` (numerators over ``den``) from the lattice point, so
    ``eps`` must be divisible by ``2**(6*_SPIRAL_WRAPS - 1)``.
    A starting spiral emerges from its wraps and leaves along ``direction``;
    an ending spiral arrives along ``direction`` and winds in.  Deep-wrap
    crossings all score 0 (their neighboring crossings share the spiral
    vertex); they are kept so that the outermost, scorable crossings have
    well-defined neighbors.  When ``direction`` is parallel to an incident
    arc, ``interior_side_left`` breaks the tie: it tells on which side of
    that line the straight part of the curve runs (left of the travel
    direction iff the starting spiral winds counterclockwise).
    """
    ref = pseudo_angle((-direction[0], -direction[1]) if at_end else direction)
    # offsets in units of 1/q of a pseudo-angle step, one turn being 8q
    n, q = ref.numerator, ref.denominator
    offsets: list[tuple[int, IPoint]] = []
    for u, ang in _INCIDENT_DIRS:
        off = (ang * q - n) % (8 * q) if ccw else (n - ang * q) % (8 * q)
        if off == 0:
            if at_end:
                include_first = interior_side_left if ccw else not interior_side_left
                off = 0 if include_first else 8 * q
            else:
                off = 8 * q
        for w in range(_SPIRAL_WRAPS):
            offsets.append((off + 8 * q * w, u))
    offsets.sort(key=lambda e: e[0])
    crossings = [
        _dir_crossing(base, u, den, eps >> rank)
        for rank, (_, u) in enumerate(offsets)
    ]
    if not at_end:
        crossings.reverse()  # curve order: deep wraps first, then outward
    return crossings


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


def quad_cycle(c: Crossing, den: int) -> tuple[IPoint, IPoint, IPoint, IPoint]:
    """The quadrilateral around the arc segment crossed at c, as a vertex
    cycle (U, A, V, B) of lattice points with U, V the segment endpoints.
    Sides (U,A) and (B,U) are adjacent to U; sides (A,V) and (V,B) to V."""
    if c.family == "h":
        j, k = c.point[0] // den, c.k
        return ((j, k), (j + 1, k - 1), (j + 1, k), (j, k + 1))
    if c.family == "v":
        j, k = c.point[1] // den, c.k
        return ((k, j), (k + 1, j), (k, j + 1), (k - 1, j + 1))
    j, k = c.point[0] // den, c.k
    # unit square [j, j+1] x [k-j-1, k-j] split by its diagonal
    return ((j, k - j), (j, k - j - 1), (j + 1, k - j - 1), (j + 1, k - j))


def _on_segment(p: IPoint, a: IPoint, b: IPoint) -> bool:
    ax, ay = a
    ex, ey = b[0] - ax, b[1] - ay
    px, py = p[0] - ax, p[1] - ay
    if ex * py != ey * px:
        return False
    return 0 <= px * ex + py * ey <= ex * ex + ey * ey


def score_crossing(c: Crossing, entry: IPoint | None, exit: IPoint | None, den: int) -> int:
    """-1, 0 or +1 contribution of one crossing, decided by the sides of
    its quadrilateral through which the curve enters and leaves.  All
    points are numerators over ``den``."""
    if entry is None or exit is None:
        return 0
    U, A, V, B = [(x * den, y * den) for x, y in quad_cycle(c, den)]
    sides = ((U, A, U), (A, V, V), (V, B, V), (B, U, U))  # (corner, corner, near endpoint)
    e_adj = x_adj = None
    for p, q, adj in sides:
        if e_adj is None and _on_segment(entry, p, q):
            e_adj = adj
        if x_adj is None and _on_segment(exit, p, q):
            x_adj = adj
    if e_adj is None or x_adj is None:
        raise InternalError(f"crossing neighbor off the quad boundary at {c}")
    if e_adj == x_adj:
        return 0
    cr = ((exit[0] - entry[0]) * (e_adj[1] - entry[1])
          - (exit[1] - entry[1]) * (e_adj[0] - entry[0]))
    if cr == 0:
        raise InternalError(f"degenerate sign test at {c}")
    # entry-adjacent endpoint to the right of the travel chord: +1
    return 1 if cr < 0 else -1


def accumulate(crossings: Sequence[Crossing], neighbors, den: int) -> list[int]:
    """Sum crossing scores into a 6-vector; neighbors(i) returns the
    (entry_point, exit_point) pair for crossing i (either may be None),
    as numerators over ``den``."""
    vec = [0] * 6
    for i, c in enumerate(crossings):
        entry, exit = neighbors(i)
        vec[c.slot] += score_crossing(c, entry, exit, den)
    return vec
