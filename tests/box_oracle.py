"""Geometric oracle for signed adjacency matrices.

The arcs of an all-plain triangulation are lifted to segments in a lattice
box, the triangular faces of that planar arrangement are traced, and each
face up to lattice half-turns and even translations is one ideal triangle
of the triangulation.  The matrix is read off the orientations of those
triangles, independently of flips and of ``FIG1_MATRIX``; its cost grows
with the height.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from spherelam.errors import InternalNonUnique
from spherelam.plane import IPoint
from spherelam.triangulation import ExchangeMatrix, TaggedTriangulation


def pseudo_angle(v: IPoint) -> Fraction:
    """Order-preserving angle surrogate in [0, 8), with the eight compass
    directions at integer values (E=0, N=2, NW=3, W=4, S=6, SE=7).

    The Fraction reference of the integer pair ``plane.pseudo_angle``, kept
    here so that the oracles in tests/ do not call the kernel they check."""
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


def lift_segments(tri: TaggedTriangulation, box: int):
    segments = []
    arc_of_segment = {}
    for idx, arc in enumerate(tri.arcs):
        a, b = arc.slope.vector
        pars = {(p.i, p.j) for p in arc.punctures}
        for x in range(-box, box + 1):
            for y in range(-box, box + 1):
                if (x % 2, y % 2) not in pars:
                    continue
                q = (x + a, y + b)
                if abs(q[0]) > box or abs(q[1]) > box:
                    continue
                seg = ((x, y), q)
                segments.append(seg)
                key = frozenset(seg)
                arc_of_segment[key] = idx
    return segments, arc_of_segment


def canonical_triangle(tri_pts) -> tuple:
    best = None
    for pts in (tri_pts, tuple((-x, -y) for x, y in tri_pts)):
        m = min(pts)
        shift = (-2 * (m[0] // 2), -2 * (m[1] // 2))
        moved = tuple(sorted((x + shift[0], y + shift[1]) for x, y in pts))
        if best is None or moved < best:
            best = moved
    return best


def box_adjacency(tri: TaggedTriangulation) -> ExchangeMatrix:
    """The signed adjacency matrix of an all-plain triangulation, computed
    from the triangular faces of the lifted segment arrangement in a box
    of side 2(3h+6): each face, canonicalized under lattice half-turns and
    even translations, adds +1 for every clockwise-consecutive pair of its
    sides."""
    h = tri.height
    box = 3 * h + 6
    inner = box - 2 * h - 2
    segments, arc_of_segment = lift_segments(tri, box)
    faces = triangular_faces(segments)
    reps: dict[tuple, tuple] = {}
    for face in faces:
        if any(abs(x) > inner or abs(y) > inner for x, y in face):
            continue
        reps.setdefault(canonical_triangle(face), face)
    if len(reps) != 4:
        raise InternalNonUnique(f"expected 4 ideal triangles, found {len(reps)}")
    n = 6
    B = [[0] * n for _ in range(n)]
    for face in reps.values():
        (x1, y1), (x2, y2), (x3, y3) = face
        area2 = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
        pts = list(face) if area2 < 0 else [face[0], face[2], face[1]]
        side_arcs = []
        for i in range(3):
            u, v = pts[i], pts[(i + 1) % 3]
            side_arcs.append(arc_of_segment[frozenset((u, v))])
        for i in range(3):
            s, t = side_arcs[i], side_arcs[(i + 1) % 3]
            B[s][t] += 1
            B[t][s] -= 1
    return tuple(tuple(row) for row in B)
