"""Double description over ``Fraction``: the reference for
:func:`spherelam.exactla.dd_rays`.

This is the elimination the integer kernel replaced, kept as written: a
``Fraction`` identity basis, lines and rays updated with ``Fraction``
quotients, and every vector scaled to coprime integers only at the end.
It shares no arithmetic with the kernel it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Vec = tuple[Fraction, ...]


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
