"""The torus shear as it was computed before its closed form, kept as the
oracle of :func:`shear.torus_shear`: the crossing word of one period of the
closed curve for nonnegative slopes, a slope rotation for the others."""

from spherelam import plane
from spherelam.errors import InternalError
from spherelam.lattice import Slope
from spherelam.shear import _UNROTATE, RHO, RHO2, apply_perm


def torus_base(a: int, b: int) -> tuple[int, int, int]:
    """Torus shear of the closed curve of nonnegative slope b/a with
    respect to the plain torus triangulation of triple (0, inf, -1),
    computed from the cyclic crossing word of one period."""
    start, den = plane._closed_lift(a, b, (a, b))
    xs = plane.segment_crossings(start, (a, b), den, include_lo=True)
    # the crossed lines y = k (family 0) and x = k (family 1) in curve order
    letters = [c[1] for c in xs if c[1] < 2]
    x1 = -letters.count(0)
    x2 = letters.count(1)
    pairs = list(zip(letters, letters[1:] + letters[:1]))
    tt = pairs.count((0, 0))
    rr = pairs.count((1, 1))
    if tt and rr:
        raise InternalError("a torus word never contains both hh and vv pairs")
    return (x1, x2, tt - rr)


def torus_shear(s: Slope) -> tuple[int, int, int]:
    """The torus shear of any slope: :func:`torus_base` after rotating a
    negative slope into [0, inf), permuted back."""
    a, b = s.vector
    if b >= 0:
        return torus_base(a, b)
    rot = RHO2 if -b >= a else RHO
    return apply_perm(_UNROTATE[rot][:3], torus_shear(rot.apply_slope(s)))
