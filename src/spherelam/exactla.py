"""Small exact linear algebra: rank, linear solves and adjugates of
integer matrices by one fraction-free elimination kernel, and extreme rays
of polyhedral cones by the double description method over the rationals.
No floating point anywhere."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index
from typing import Sequence

Vec = tuple[Fraction, ...]


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


def solve(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> Vec | None:
    """Unique exact solution of an integer (m x n) system with full column
    rank, or None when inconsistent.  Raises on rank-deficient columns."""
    ncols = len(matrix[0])
    m = _int_rows(list(row) + [rhs[i]] for i, row in enumerate(matrix))
    pivots, d, _ = _bareiss(m, ncols)
    if len(pivots) < ncols:
        raise ValueError("column-rank-deficient system")
    if any(row[ncols] for row in m[ncols:]):
        return None
    return tuple(Fraction(row[ncols], d) for row in m[:ncols])


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


def dot(a: Sequence, b: Sequence) -> Fraction:
    return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))


def primitive(v: Sequence) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, preserving direction."""
    fr = [Fraction(x) for x in v]
    den = math.lcm(*[f.denominator for f in fr]) if fr else 1
    ints = [int(f * den) for f in fr]
    g = math.gcd(*[abs(x) for x in ints]) if any(ints) else 1
    return tuple(x // (g or 1) for x in ints)


def dd_rays(
    ineqs: Sequence[Sequence[int]],
    eqs: Sequence[Sequence[int]] = (),
    dim: int | None = None,
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Extreme rays and lineality basis of {x : A x >= 0, B x = 0} by the
    double description method (equalities handled as inequality pairs)."""
    rows = [tuple(r) for r in ineqs]
    for e in eqs:
        rows.append(tuple(e))
        rows.append(tuple(-x for x in e))
    if dim is None:
        dim = len(rows[0]) if rows else 0
    lines: list[Vec] = [
        tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)
    ]
    rays: list[tuple[Vec, frozenset[int]]] = []
    for idx, a in enumerate(rows):
        lvals = [dot(a, l) for l in lines]
        pivot = next((i for i, v in enumerate(lvals) if v != 0), None)
        if pivot is not None:
            l0 = lines[pivot]
            v0 = lvals[pivot]
            if v0 < 0:
                l0 = tuple(-x for x in l0)
                v0 = -v0
            new_lines = []
            for i, l in enumerate(lines):
                if i == pivot:
                    continue
                c = lvals[i] / v0
                new_lines.append(tuple(x - c * y for x, y in zip(l, l0)))
            new_rays = []
            for r, tight in rays:
                c = dot(a, r) / v0
                new_rays.append(
                    (tuple(x - c * y for x, y in zip(r, l0)), tight | {idx})
                )
            lines = new_lines
            rays = new_rays + [(l0, frozenset(range(idx)))]
            continue
        pos, zero, neg = [], [], []
        for r, tight in rays:
            v = dot(a, r)
            if v > 0:
                pos.append((r, tight, v))
            elif v == 0:
                zero.append((r, tight | {idx}))
            else:
                neg.append((r, tight, v))
        if not neg:
            rays = [(r, t) for r, t, _ in pos] + zero
            continue
        all_rays = [(r, t) for r, t, _ in pos] + zero + [(r, t) for r, t, _ in neg]
        combos = []
        for rp, tp, vp in pos:
            for rn, tn, vn in neg:
                common = tp & tn
                adjacent = True
                for r2, t2 in all_rays:
                    if r2 is rp or r2 is rn:
                        continue
                    if common <= t2:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                w = tuple(vp * x - vn * y for y, x in zip(rp, rn))
                # w = vp*rn - vn*rp (positive combination since vn < 0)
                combos.append((w, common | {idx}))
        rays = [(r, t) for r, t, _ in pos] + zero + combos
    ray_vecs = []
    seen = set()
    for r, _ in rays:
        p = primitive(r)
        if any(p) and p not in seen:
            seen.add(p)
            ray_vecs.append(p)
    line_vecs = [primitive(l) for l in lines]
    return ray_vecs, line_vecs
