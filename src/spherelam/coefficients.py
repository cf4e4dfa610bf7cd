"""Universal geometric coefficient lists and g-vectors at bounded height.

Both lists are read off the closed-form items of :mod:`spherelam.shear`
over the slopes of a height and the coordinate permutations, with no cone,
elimination or triangulation: the commands ``gvectors`` and ``universal``
load this module, and not :mod:`spherelam.fan`, which re-exports its names.
"""

from __future__ import annotations

from .lattice import enumerate_slopes
from .shear import (
    FLIPS,
    GAMMA24,
    GROUP_Y,
    GROUP_Z,
    PERM_ID,
    PERM_X,
    PERM_Z,
    PERM_Z2,
    RHO,
    RHO2,
    ShearVector,
    _item1,
    _item2,
    _item4,
    _item5,
    apply_perm,
    compose,
    perm_product,
)


def _slopes_in_range(max_height: int, low_open: bool, include_inf: bool):
    """Standard-form slopes of bounded height in [0, inf] with the range
    endpoints included or not as flagged."""
    for s in enumerate_slopes(max_height):
        if s.is_infinite:
            if include_inf:
                yield s
        elif s.b > 0 or (s.b == 0 and not low_open):
            yield s


def _thm12_item2(a: int, b: int) -> ShearVector:
    # Thm 1.2 item 2 is the closed form's item 4 with a and b swapped
    return _item4(b, a)


THM12_ITEMS = (_item1, _thm12_item2, _item2, _item5)


_ZX = perm_product(sorted(GROUP_Z), (PERM_ID, PERM_X))

# Each form's rows: (item, low end open, inf included, permutations).
_UNIVERSAL_ROWS = {
    "thm12": [(item, True, True, sorted(GAMMA24)) for item in THM12_ITEMS],
    "thm81": [
        (_item1, True, True, _ZX),
        (_item4, False, False, _ZX),
        (_item2, True, True, perm_product(sorted(GROUP_Z), sorted(GROUP_Y))),
        (_item5, True, True, sorted(GROUP_Z)),
    ],
}


def universal_raw(max_height: int, form: str) -> list[ShearVector]:
    """The universal-coefficient list as generated (before deduplication):
    one entry per (item, slope, permutation), in the rows of the form."""
    if form not in _UNIVERSAL_ROWS:
        raise ValueError(f"unknown form {form!r}")
    return [apply_perm(p, base)
            for item, low_open, include_inf, perms in _UNIVERSAL_ROWS[form]
            for s in _slopes_in_range(max_height, low_open, include_inf)
            for base in [item(s.a, s.b)]
            for p in perms]


def universal_coeffs(max_height: int, form: str = "thm81") -> list[ShearVector]:
    """Deduplicated, sorted universal geometric coefficients at bounded
    height, in either of the two equivalent listings."""
    return sorted(set(universal_raw(max_height, form)))


def g_vectors(max_height: int) -> list[ShearVector]:
    """Shear vectors of all non-closed allowable curves at bounded height.

    Items are generated over nonnegative-slope base curves; each slope
    rotation represents curves of a different slope, so rotated orbit
    elements are kept only when the slope they stand for is itself within
    the height bound."""
    out = set()
    for s in _slopes_in_range(max_height, low_open=True, include_inf=True):
        rotated = (
            (PERM_ID, s),
            (PERM_Z, RHO.apply_slope(s)),
            (PERM_Z2, RHO2.apply_slope(s)),
        )
        for item in THM12_ITEMS[:3]:
            base = item(s.a, s.b)
            for zpow, image_slope in rotated:
                if image_slope.height > max_height:
                    continue
                for tau in FLIPS:
                    out.add(apply_perm(compose(zpow, tau), base))
    return sorted(out)
