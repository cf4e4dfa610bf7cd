"""Exact geometry in the lifted plane.

The base triangulation lifts to the arrangement of all lines ``x = k``,
``y = k`` and ``x + y = k`` (k integer), triangulating the plane with
vertices on the integer lattice.  This module enumerates transversal
crossings of lifted curves with that arrangement, scores each crossing
-1/0/+1 from the quadrilateral surrounding the crossed arc, and extracts
triangular faces of more general lifted-segment arrangements (used for
signed adjacency matrices).  Everything is Fraction-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import InternalError

Point = tuple[Fraction, Fraction]
IPoint = tuple[int, int]

# (family, parity of k) -> coordinate slot in the 6-vector
FAMILY_INDEX = {
    ("h", 0): 0, ("h", 1): 3,   # horizontal lines y = k
    ("v", 0): 1, ("v", 1): 4,   # vertical lines x = k
    ("d", 0): 2, ("d", 1): 5,   # diagonal lines x + y = k
}


@dataclass(frozen=True)
class Crossing:
    family: str          # 'h' | 'v' | 'd'
    k: int               # line index within the family
    point: Point
    t: Fraction | None = None   # position along a straight parametrization

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


def _dir_crossing(base: IPoint, u: IPoint, delta: Fraction) -> Crossing:
    point = (base[0] + delta * u[0], base[1] + delta * u[1])
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
    eps: Fraction,
) -> list[Crossing]:
    """Effective crossings of a spiral end with the arcs incident to its
    lattice point, in curve order.

    A starting spiral emerges from its wraps and leaves along ``direction``;
    an ending spiral arrives along ``direction`` and winds in.  Deep-wrap
    crossings all score 0 (their neighboring crossings share the spiral
    vertex); they are kept so that the outermost, scorable crossings have
    well-defined neighbors.  When ``direction`` is parallel to an incident
    arc, ``interior_side_left`` breaks the tie: it tells on which side of
    that line the straight part of the curve runs (left of the travel
    direction iff the starting spiral winds counterclockwise).
    """
    if at_end:
        ref = pseudo_angle((-direction[0], -direction[1]))
    else:
        ref = pseudo_angle(direction)
    offsets: list[tuple[Fraction, IPoint]] = []
    for u, ang in _INCIDENT_DIRS:
        off = Fraction((ang - ref) % 8 if ccw else (ref - ang) % 8)
        if off == 0:
            if at_end:
                include_first = interior_side_left if ccw else not interior_side_left
                off = Fraction(0) if include_first else Fraction(8)
            else:
                off = Fraction(8)
        for w in range(_SPIRAL_WRAPS):
            offsets.append((off + 8 * w, u))
    offsets.sort(key=lambda e: e[0])
    # offsets[i] is the i-th crossing counted from the outside in
    crossings = [
        _dir_crossing(base, u, eps / (2 ** rank))
        for rank, (_, u) in enumerate(offsets)
    ]
    if not at_end:
        crossings.reverse()  # curve order: deep wraps first, then outward
    return crossings


def _line_hits(
    c0: Fraction, rate: int, t_lo: Fraction, t_hi: Fraction, include_lo: bool,
) -> Iterator[tuple[int, Fraction]]:
    """Integer levels k reached by c0 + t*rate for t in (t_lo, t_hi),
    or in [t_lo, t_hi) when include_lo."""
    if rate == 0:
        return
    v_start = c0 + t_lo * rate
    v_stop = c0 + t_hi * rate
    lo, hi = (v_start, v_stop) if rate > 0 else (v_stop, v_start)
    for k in range(math.floor(lo), math.floor(hi) + 2):
        if lo < k < hi:
            yield k, Fraction(k - c0, rate)
        elif include_lo and k == v_start:
            yield k, t_lo
    return


def segment_crossings(
    start: Point,
    direction: IPoint,
    t_lo: Fraction,
    t_hi: Fraction,
    include_lo: bool = False,
) -> list[Crossing]:
    """Transversal crossings of p(t) = start + t*direction with the three
    line families, t in the given window, sorted along the curve."""
    x0, y0 = start
    dx, dy = direction
    out: list[Crossing] = []
    for family, c0, rate in (("h", y0, dy), ("v", x0, dx), ("d", x0 + y0, dx + dy)):
        for k, t in _line_hits(Fraction(c0), rate, t_lo, t_hi, include_lo):
            pt = (x0 + t * dx, y0 + t * dy)
            out.append(Crossing(family, k, pt, t))
    out.sort(key=lambda c: c.t)
    return out


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def quad_cycle(c: Crossing) -> tuple[IPoint, IPoint, IPoint, IPoint]:
    """The quadrilateral around the arc segment crossed at c, as a vertex
    cycle (U, A, V, B) with U, V the segment endpoints.  Sides (U,A) and
    (B,U) are adjacent to U; sides (A,V) and (V,B) to V."""
    if c.family == "h":
        j, k = _floor_frac(c.point[0]), c.k
        return ((j, k), (j + 1, k - 1), (j + 1, k), (j, k + 1))
    if c.family == "v":
        j, k = _floor_frac(c.point[1]), c.k
        return ((k, j), (k + 1, j), (k, j + 1), (k - 1, j + 1))
    j, k = _floor_frac(c.point[0]), c.k
    # unit square [j, j+1] x [k-j-1, k-j] split by its diagonal
    return ((j, k - j), (j, k - j - 1), (j + 1, k - j - 1), (j + 1, k - j))


def _on_segment(p: Point, a: IPoint, b: IPoint) -> bool:
    ax, ay = a
    bx, by = b
    px, py = p
    if (bx - ax) * (py - ay) != (by - ay) * (px - ax):
        return False
    dot = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
    return 0 <= dot <= (bx - ax) ** 2 + (by - ay) ** 2


def score_crossing(c: Crossing, entry: Point | None, exit: Point | None) -> int:
    """-1, 0 or +1 contribution of one crossing, decided by the sides of
    its quadrilateral through which the curve enters and leaves."""
    if entry is None or exit is None:
        return 0
    U, A, V, B = quad_cycle(c)
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
    chord = (exit[0] - entry[0], exit[1] - entry[1])
    w = (e_adj[0] - entry[0], e_adj[1] - entry[1])
    cr = chord[0] * w[1] - chord[1] * w[0]
    if cr == 0:
        raise InternalError(f"degenerate sign test at {c}")
    # entry-adjacent endpoint to the right of the travel chord: +1
    return 1 if cr < 0 else -1


def accumulate(crossings: Sequence[Crossing], neighbors) -> list[int]:
    """Sum crossing scores into a 6-vector; neighbors(i) returns the
    (entry_point, exit_point) pair for crossing i (either may be None)."""
    vec = [0] * 6
    for i, c in enumerate(crossings):
        entry, exit = neighbors(i)
        vec[c.slot] += score_crossing(c, entry, exit)
    return vec


# ---------------------------------------------------------------------------
# Segment arrangements and triangular faces (for signed adjacency matrices)
# ---------------------------------------------------------------------------


def triangular_faces(
    segments: Iterable[tuple[IPoint, IPoint]],
) -> list[tuple[IPoint, IPoint, IPoint]]:
    """Bounded triangular faces of a planar straight-line graph whose edges
    are pairwise non-crossing lattice segments.

    Standard face traversal: outgoing edges at each vertex are sorted by
    angle, and the face left of each directed edge is walked by taking, at
    the head, the next edge clockwise from the reversed edge.  Bounded
    faces come out counterclockwise; only 3-cycles are kept.
    """
    adj: dict[IPoint, list[IPoint]] = {}
    seen = set()
    for p, q in segments:
        if (p, q) in seen or (q, p) in seen:
            continue
        seen.add((p, q))
        adj.setdefault(p, []).append(q)
        adj.setdefault(q, []).append(p)
    for v, nbrs in adj.items():
        nbrs.sort(key=lambda w: pseudo_angle((w[0] - v[0], w[1] - v[1])))
    visited: set[tuple[IPoint, IPoint]] = set()
    faces = []
    for v, nbrs in adj.items():
        for w in nbrs:
            if (v, w) in visited:
                continue
            face = []
            edge = (v, w)
            while edge not in visited:
                visited.add(edge)
                face.append(edge[0])
                a, b = edge
                nb = adj[b]
                i = nb.index(a)
                edge = (b, nb[(i - 1) % len(nb)])
            if len(face) == 3 and edge == (v, w):
                (x1, y1), (x2, y2), (x3, y3) = face
                if (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) > 0:
                    faces.append((face[0], face[1], face[2]))
    return faces
