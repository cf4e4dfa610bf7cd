"""The flip search as it was before :func:`triangulation.flip` became one
integer pass, kept as its oracle.

:func:`flip_slopes` takes the candidate slopes through :class:`Slope`
objects, ``det2`` and a gcd (:func:`standard_vector`); :func:`slope_keys`
lists the keys of a candidate slope that the kernel's own conditions allow
against the remaining keys; :func:`flip_keys` keeps the one key the
compatibility kernel accepts and returns the six keys of the flip in arc
order.
"""

from typing import Iterator, Sequence

from spherelam.curves import _SLOPE_MASKS, _keys_compatible
from spherelam.errors import InternalNonUnique
from spherelam.lattice import Slope, det2, standard_vector

# For |d| = 1 and |d| = 2, the (i, j) of one integral (i*s + j*t) / |d| per slope.
CANDIDATE_PAIRS = {1: ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (2, -1), (1, 2), (1, -2)),
                   2: ((2, 0), (0, 2), (1, 1), (1, -1))}


def flip_slopes(rest: Sequence[tuple[int, int, int, int]]) -> set[tuple[int, int]]:
    """The primitive vector (a, b), in standard form, of every slope the
    arc completing the arcs of keys ``rest`` can have: (i*s + j*t) / |d|
    for two distinct slopes s, t of ``rest`` and d = det(s, t)."""
    s = Slope(*rest[0][:2])
    t = next(Slope(a, b) for a, b, _, _ in rest if (a, b) != s.vector)
    d = abs(det2(s, t))
    return {standard_vector((i * s.a + j * t.a) // d, (i * s.b + j * t.b) // d)
            for i, j in CANDIDATE_PAIRS[d]}


def slope_keys(a: int, b: int, rest: Sequence[tuple[int, int, int, int]] = ()
               ) -> Iterator[tuple[int, int, int, int]]:
    """The keys of the tagged arcs of the slope with primitive vector
    (a, b) in standard form that the kernel does not reject outright
    against any key of ``rest``; all 8 when ``rest`` is empty.

    A mask of :data:`_SLOPE_MASKS` is kept when it shares ``|det|``
    endpoints with every key of ``rest`` but one of the same underlying
    arc; its notched ends are those notched in a key of ``rest`` that
    shares them, plus any subset of the ends no key shares."""
    dets = []
    for c, d, _, _ in rest:
        det = abs(a * d - b * c)
        if det > 2:
            return  # no mask can share more than two endpoints
        dets.append(det)
    for mask in _SLOPE_MASKS[2 * (a & 1) + (b & 1)]:
        fixed = marks = 0
        for (_, _, mask2, marks2), det in zip(rest, dets):
            shared = mask & mask2
            if mask2 == mask and not det:
                continue  # the same underlying arc: the tags differ at one end
            if shared.bit_count() != det:
                break
            fixed |= shared
            marks |= marks2 & shared
        else:
            free = sub = mask ^ fixed
            while True:
                yield a, b, mask, marks | sub
                if not sub:
                    break
                sub = (sub - 1) & free


def flip_keys(tri, k: int) -> tuple[tuple[int, int, int, int], ...]:
    """The keys of flip(tri, k) in arc order, by the search above."""
    taken = tri._keys
    rest = taken[:k] + taken[k + 1:]
    found = [key for a, b in flip_slopes(rest) for key in slope_keys(a, b, rest)
             if key not in taken and all(_keys_compatible(key, r) for r in rest)]
    if len(found) != 1:
        raise InternalNonUnique(f"flip produced {len(found)} completions instead of 1")
    return rest[:k] + (found[0],) + rest[k:]
