"""Small exact linear algebra on integers: rank and adjugates of integer
matrices by one fraction-free elimination kernel, and extreme rays of
polyhedral cones by a fraction-free double description.  Every answer is
an integer; no floating point anywhere."""

from __future__ import annotations

import math
from operator import index, mul
from typing import Sequence


def _int_rows(rows) -> list[list[int]]:
    # operator.index refuses Fraction and float: the kernel's floor
    # division would silently truncate them
    return [[index(x) for x in row] for row in rows]


def _bareiss(m: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) of the integer matrix m, in place, pivoting on its first ncols
    columns in order.

    Returns (pivot columns, last pivot d, sign of the row swaps).  The
    k-th pivot ends in row k and every division is exact, so all entries
    stay integers.  When the pivots are columns 0..n-1 of m = [A | B],
    d is the determinant of the top n rows of A in their new order (for
    square A, d = sign * det(A)), the top n rows of the B block end as
    d times A's inverse on those rows applied to B's, and every lower row
    ends as bordered minors, which vanish exactly when that row lies in
    the span of the pivot rows.  Entries left of each pivot column are not
    updated further, so the A block holds no result."""
    nrows = len(m)
    pivots: list[int] = []
    prev = 1
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        p_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if p_row is None:
            continue
        if p_row != r:
            m[r], m[p_row] = m[p_row], m[r]
            sign = -sign
        top = m[r][c:]
        p = top[0]
        for i in range(nrows):
            if i != r:
                row = m[i]
                f = row[c]
                row[c:] = [(p * a - f * b) // prev for a, b in zip(row[c:], top)]
        pivots.append(c)
        prev = p
    return pivots, prev, sign


def rank(rows: Sequence[Sequence[int]]) -> int:
    m = _int_rows(rows)
    return len(_bareiss(m, len(m[0]) if m else 0)[0])


def adjugate(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], int] | tuple[None, int]:
    """Integer adjugate and determinant of an integer matrix, so that
    adj @ M = det * I.  Returns (None, 0) for singular input."""
    n = len(matrix)
    m = _int_rows(list(row) + [int(i == j) for j in range(n)]
                  for i, row in enumerate(matrix))
    pivots, d, sign = _bareiss(m, n)
    if len(pivots) < n:
        return None, 0
    return [[sign * a for a in row[n:]] for row in m], sign * d


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, map(index, a), map(index, b)))


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries, preserving
    direction; the zero vector stays zero.  math.gcd refuses Fraction and
    float."""
    g = math.gcd(*v) or 1
    return tuple(x // g for x in v)


def _step(p: int, x: Sequence[int], q: int, y: Sequence[int]) -> tuple[int, ...]:
    """primitive(p*x - q*y), the one update of :func:`dd_rays`.  With
    p > 0 it points along x - (q/p)*y, the vector a rational double
    description would hold, so each step keeps the rays' and lines'
    directions and all entries stay coprime integers."""
    return primitive([p * a - q * b for a, b in zip(x, y)])


def dd_rays(
    ineqs: Sequence[Sequence[int]],
    eqs: Sequence[Sequence[int]] = (),
    dim: int | None = None,
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Extreme rays and lineality basis of {x : A x >= 0, B x = 0} of
    integer A and B by the double description method (Fukuda-Prodon,
    1996), equalities handled as inequality pairs.

    Rows are added one at a time to the cone spanned by the rays and by
    both directions of the lines, the identity basis to start with.  A row
    that is nonzero on some line takes the first such line l0, signed so
    a.l0 > 0, as a new ray, and moves every other line and every ray by
    :func:`_step` so that the row vanishes on them.  A row zero on every
    line keeps its positive and zero rays, drops its negative ones, and
    adds the step of each adjacent pair: a positive and a negative ray
    such that no third ray is tight at every row where both are.  Rays are
    returned in that order with duplicates dropped; lines stay nonzero
    because they stay independent."""
    rows = _int_rows(ineqs)
    for e in _int_rows(eqs):
        rows += [e, [-x for x in e]]
    if dim is None:
        dim = len(rows[0]) if rows else 0
    lines = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[tuple[int, ...], frozenset[int]]] = []
    for idx, a in enumerate(rows):
        lvals = [dot(a, l) for l in lines]
        pivot = next((i for i, v in enumerate(lvals) if v), None)
        if pivot is not None:
            l0, v0 = lines.pop(pivot), lvals.pop(pivot)
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0
            lines = [_step(v0, l, v, l0) for l, v in zip(lines, lvals)]
            rays = [(_step(v0, r, dot(a, r), l0), t | {idx}) for r, t in rays]
            rays.append((l0, frozenset(range(idx))))
            continue
        signed = [(r, t, dot(a, r)) for r, t in rays]
        rays = [(r, t) for r, t, v in signed if v > 0]
        rays += [(r, t | {idx}) for r, t, v in signed if v == 0]
        neg = [x for x in signed if x[2] < 0]
        for rp, tp, vp in signed:
            if vp <= 0:
                continue
            for rn, tn, vn in neg:
                common = tp & tn
                if not any(common <= t and r is not rp and r is not rn
                           for r, t, _ in signed):
                    rays.append((_step(vp, rn, vn, rp), common | {idx}))
    return list(dict.fromkeys(r for r, _ in rays if any(r))), lines
