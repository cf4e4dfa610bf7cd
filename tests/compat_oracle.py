"""Tuple-based oracle for tagged-arc and allowable-curve compatibility.

The rule is read off the arcs' slopes, puncture sets and decorated ends,
never off the integer keys that :func:`spherelam.curves.arcs_compatible`
compares, so the kernel and the flip oracle built on this module share no
code path.
"""

from __future__ import annotations

from spherelam.curves import AllowableCurve, TaggedArc
from spherelam.lattice import farey_distance


def decorations_agree(x_ends, y_ends, shared) -> bool:
    """The tags (spiral directions) agree at every shared puncture."""
    xd = dict(x_ends)
    yd = dict(y_ends)
    return all(xd[p] == yd[p] for p in shared)


def coinciding_ok(x_ends, y_ends) -> bool:
    """For equal underlying arcs/curves: decorations agree at exactly one end."""
    xd = dict(x_ends)
    yd = dict(y_ends)
    agreements = sum(1 for p in xd if xd[p] == yd[p])
    return agreements == 1


def arcs_compatible(x: TaggedArc | AllowableCurve, y: TaggedArc | AllowableCurve) -> bool:
    """Equal arcs are compatible; arcs with one underlying arc iff their
    tags agree at exactly one end; others iff the Farey distance equals the
    number of shared punctures and the tags agree at each of them."""
    if x.slope == y.slope and x.ends == y.ends:
        return True
    if x.underlying == y.underlying:
        return coinciding_ok(x.ends, y.ends)
    shared = x.punctures & y.punctures
    if farey_distance(x.slope, y.slope) != len(shared):
        return False
    return decorations_agree(x.ends, y.ends, shared)


def curves_compatible(x: AllowableCurve, y: AllowableCurve) -> bool:
    """Closed curves only with themselves and with spiraling curves of
    their slope (a closed curve is its slope); two spiraling curves as
    tagged arcs."""
    if x.is_closed or y.is_closed:
        return x.slope == y.slope
    return arcs_compatible(x, y)
