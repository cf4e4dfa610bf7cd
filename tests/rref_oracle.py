"""Plain ``Fraction`` row reduction: the reference for the integer Bareiss
kernel of ``spherelam.exactla`` and for the cone index's membership test.

It shares no code with the package: reduced row echelon form with the
textbook pivot-and-eliminate loop over ``Fraction``, and membership of a
vector in a cone by a left inverse of the generator matrix and a basis of
the equations of its span, both read off one such reduction per cone.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul
from typing import Sequence


def rref(rows):
    """Reduced row echelon form over Fraction, with pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [a / m[r][col] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


@functools.lru_cache(maxsize=None)
def _left_inverse(gens: tuple[tuple[int, ...], ...]):
    """(L, N, D) for the matrix A with columns ``gens``: integer rows with
    L @ A = D * I and N @ A = 0, N of full rank, read off the reduced form
    E [A | I] of [A | I] (rows r.. of E A are 0, and E is invertible) and
    scaled by the common denominator D of its entries."""
    r, n = len(gens), len(gens[0])
    red, pivots = rref([[*(g[i] for g in gens), *(int(i == j) for j in range(n))]
                        for i in range(n)])
    if pivots[:r] != list(range(r)):
        raise ValueError("the generators are dependent")
    e = [row[r:] for row in red]
    d = math.lcm(*(x.denominator for row in e for x in row))
    ints = tuple(tuple(int(x * d) for x in row) for row in e)
    return ints[:r], ints[r:], d


def membership(v: Sequence[int], cone) -> tuple[Fraction, ...] | None:
    """v's coefficients over the cone's generators when they are all
    nonnegative, or None when v is outside the cone or its span.  The
    generators must be independent, so the coefficients are unique."""
    left, null, d = _left_inverse(tuple(map(tuple, cone.generators)))
    if any(sum(map(mul, row, v)) for row in null):
        return None  # v is outside the span
    nums = [sum(map(mul, row, v)) for row in left]
    return None if any(x < 0 for x in nums) else tuple(Fraction(x, d) for x in nums)
