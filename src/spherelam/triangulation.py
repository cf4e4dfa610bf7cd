"""Tagged triangulations of the four-punctured sphere: types, flips and
exchange matrices.

The class :class:`~spherelam.curves.TaggedTriangulation` and its builders
live in :mod:`spherelam.curves`.  Every tagged triangulation has six arcs
and falls into one of six combinatorial types.  :func:`build_type`
assembles each type from three pieces: ``arc(s, x, y)``, the arc of slope
s from x to y carrying the tags of its endpoints; ``both(s)``, the two
such arcs of slope s; and ``coinciding(s, x)`` (:func:`_coinciding_pair`),
the two arcs of slope s at x that carry the tag of x there and differ at
the far end.  With p, q a Farey-2 pair of slopes whose arcs join v to u,
c and c2 its companion slopes, c leading from v to v', and w the fourth
puncture, the types are, in arc order:

- I    both(s) for each s of a Farey-1 triple
- II   arc(p, v, u), arc(q, v, u), both(c), both(c2)
- III  arc(p, v, u), arc(q, v, u), coinciding(c, v), coinciding(c, u)
- IV   arc(p, v, u), arc(q, v, u), coinciding(c, v), arc(c2, v, w), arc(c, u, w)
- V    arc(p, v, u), arc(q, v, u), coinciding(c, v), coinciding(c2, v)
- VI   coinciding(s, v) for each s of a Farey-1 triple

Types are parametrized exactly as enumerated by :func:`enumerate_triangulations`
and recognized by :func:`classify`; :func:`build_type` inverts classify.
:func:`build_type` and the enumeration read a spec as slope vectors, puncture
bits (2*i + j) and masks, take u, w, c, c2 and the free punctures from
:func:`_frame`, which checks it, and assemble arc keys, not arcs;
:func:`classify` reads the keys of a valid triangulation, checks nothing
again and builds only the Slopes of the spec it returns.

Neither :func:`flip` nor :func:`signed_adjacency` depends on the height:
both read a triangulation's lattice frame, which it keeps in its
``_frame`` slot.  The frame is an orientation-preserving lattice map and a
switch of the tags at some punctures (:func:`curves._switched_frame`);
it carries the arcs to height <= 2, onto one of the 27 entries of
:data:`_TABLE`.  Both are symmetries of the tagged arc complex, so they
change no exchange matrix and commute with flips (Fomin-Shapiro-Thurston,
Acta Math. 2008, Sec. 9).  :func:`signed_adjacency` reads the matrix of
the entry off :data:`_TABLE`, which a search from the base
(:func:`_search`) fills with ``FIG1_MATRIX`` carried by :func:`mutate`, as
far as the lookups need.  :func:`flip` reads the flip of the entry off
:data:`_FLIP_MEMO`, which :func:`_flip_key`, one integer pass over five
keys, fills one (entry, position) at a time: the kernel runs at most
27 x 6 times in a process.  The flip carries the frame over to its
result, so a walk frames its keys afresh only at its start.
"""

from __future__ import annotations

import itertools
import threading
from operator import itemgetter
from typing import Iterator, Sequence

from ._frozen import Frozen
from .curves import (
    PUNCTURES,
    Puncture,
    TaggedArc,
    TaggedTriangulation,
    Tagging,
    _DEGREE_TYPES,
    _MASK_BITS,
    _MASK_MOVES,
    _SLOPE_MASKS,
    _degrees,
    _key_preimage,
    _keys_compatible,
    _switched_frame,
    base_triangulation,
    tag_choices,
)
from .errors import (
    DomainError,
    InternalError,
    InternalNonUnique,
    InvalidParameters,
)
from .lattice import Slope, _slope_sorted, enumerate_slopes, farey1_triples

Key = tuple[int, int, int, int]
Vector = tuple[int, int]
# Each puncture by its bit number 2*i + j, and None for None.
_PUNCTURE_OF = {None: None, **dict(enumerate(PUNCTURES))}


def _companions(p: Vector, q: Vector) -> list[Vector]:
    """The two slope vectors Farey-1 adjacent to both of a pair known to be
    Farey-2 (unchecked; :func:`_frame` checks a spec's pair): the half-sum,
    with a > 0, and the half-difference, sign-normalised, sorted.  They
    have det +-1, so no gcd is taken."""
    (a, b), (c, d) = p, q
    x, y = (a - c) // 2, (b - d) // 2
    return _slope_sorted([((a + c) // 2, (b + d) // 2),
                          (-x, -y) if x < 0 or not x and y < 0 else (x, y)])


class TriType(Frozen):
    """Combinatorial type and determining data of a tagged triangulation.

    ``slopes`` is the Farey-1 triple (types I, VI) or the Farey-2 pair
    (II-V), sorted.  ``taggings`` holds only the freely choosable
    per-puncture tags of the type, by puncture.
    """

    __slots__ = _fields = ("tag", "slopes", "v", "v_prime", "taggings")
    tag: str
    slopes: tuple[Slope, ...]
    v: Puncture | None
    v_prime: Puncture | None
    taggings: tuple[tuple[Puncture, Tagging], ...]

    def __init__(self, tag: str, slopes: tuple[Slope, ...], v: Puncture | None = None,
                 v_prime: Puncture | None = None,
                 taggings: tuple[tuple[Puncture, Tagging], ...] = ()) -> None:
        slopes, taggings = tuple(slopes), tuple(taggings)
        bad = [x for x in slopes if not isinstance(x, Slope)] + [
            x for x in (v, v_prime) if not isinstance(x, (Puncture, type(None)))] + [
            x for x in taggings if type(x) is not tuple or [*map(type, x)] != [Puncture, Tagging]]
        if bad:
            raise InvalidParameters("a type takes Slopes, v and v' Punctures or None, and "
                                    f"(Puncture, Tagging) pairs, got {bad[0]!r}")
        self._set(tag, tuple(sorted(slopes)), v, v_prime,
                  tuple(sorted(taggings, key=lambda e: 2 * e[0].i + e[0].j)))

    def _set(self, *values) -> "TriType":  # in _fields order, slopes and taggings sorted
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        return self

    def to_json(self) -> dict:
        out: dict = {"type": self.tag, "slopes": [str(s) for s in self.slopes]}
        if self.v is not None:
            out["v"] = str(self.v)
        if self.v_prime is not None:
            out["v_prime"] = str(self.v_prime)
        out["tags"] = {str(p): t.value for p, t in self.taggings}
        return out


def _coinciding_pair(s: Vector, x: int, notched: int) -> list[Key]:
    """The keys of the arcs of slope vector s at puncture bit x, notched at x
    as the mask ``notched`` is, plain then notched at the far end."""
    far = 1 << (x ^ 2 * (s[0] & 1) ^ s[1] & 1)
    mask, marks = 1 << x | far, notched & 1 << x
    return [(*s, mask, marks), (*s, mask, marks | far)]


def _frame(kind: str, slopes: Sequence[Vector], v: int | None, v_prime: int | None):
    """(u, w, c, c2, free) of a type with these slope vectors (in any order)
    and puncture bits v and v' (or None): u ends the Farey-2 pair at v, w is
    IV's fourth puncture, companion c leads from v to v' and c2 is the other
    (None where the type has none); free lists the bits whose tag the type
    leaves free.  A slope of parity 2*(a % 2) + b % 2 moves a bit by XOR.
    Checks all but tags, for the specs of :func:`build_type`,
    :func:`_enumerate_typed` and the tests' object oracle."""
    if kind not in ("I", "II", "III", "IV", "V", "VI"):
        raise InvalidParameters(f"unknown type {kind!r}")
    if kind in ("I", "VI"):  # a wrong number of slopes reads zero vectors, which fail
        (a, b), (c, d), (e, f) = slopes if len(slopes) == 3 else [(0, 0)] * 3
        if not abs(a * d - b * c) == abs(a * f - b * e) == abs(c * f - d * e) == 1:
            raise InvalidParameters("types I and VI need a Farey-1 triple")
    else:
        (a, b), (c, d) = slopes if len(slopes) == 2 else [(0, 0)] * 2
        if abs(a * d - b * c) != 2:
            raise InvalidParameters("types II-V need a Farey-2 pair")
    if (v is None) != (kind == "I"):
        raise InvalidParameters(
            "type I takes no vertex v" if v is not None else f"type {kind} needs a vertex v")
    u = w = c = c2 = None
    if kind not in ("I", "VI"):
        u = v ^ 2 * (slopes[0][0] & 1) ^ slopes[0][1] & 1
        c, c2 = _companions(*slopes)
        if kind in ("II", "III") and not v < u:
            raise InvalidParameters(f"type {kind} requires v below its partner mod 2")
    if kind in ("III", "IV"):
        if v_prime is None or v_prime in (v, u):
            raise InvalidParameters(f"type {kind} needs v' off the Farey-2 pair")
        # p, c and c2 have the three nonzero parities, so v' and w are the
        # translates of v by the two companions
        if v ^ 2 * (c[0] & 1) ^ c[1] & 1 != v_prime:
            c, c2 = c2, c
        w = v ^ 2 * (c2[0] & 1) ^ c2[1] & 1
    elif v_prime is not None:
        raise InvalidParameters(f"type {kind} takes no v'")
    free = {"I": (0, 1, 2, 3), "II": (0, 1, 2, 3), "III": (v, u), "IV": (v, u, w),
            "V": (v, u), "VI": (v,)}[kind]
    return u, w, c, c2, free


def _assemble(kind: str, slopes: Sequence[Vector], v: int | None, frame,
              notched: int) -> tuple[Key, ...]:
    """The arc keys of the module docstring's table, in its order, for the
    slope vectors sorted as :class:`TriType` keeps them and the mask of the
    notched free punctures: arc(s, x, y) is ``(*s, mask, mask & notched)``
    for the mask of x and y, and both(s) has the masks of :data:`_SLOPE_MASKS`."""
    u, w, c, c2, _ = frame
    if kind in ("I", "II"):  # both(s) for each s of the triple, or of c and c2
        both = [(a, b, m, m & notched) for a, b in (slopes if kind == "I" else (c, c2))
                for m in _SLOPE_MASKS[2 * (a & 1) + (b & 1)]]
        if kind == "I":
            return tuple(both)
    if kind == "VI":
        return tuple([key for s in slopes for key in _coinciding_pair(s, v, notched)])
    mask = 1 << v | 1 << u
    keys = [(a, b, mask, mask & notched) for a, b in slopes]
    if kind == "II":
        keys += both
    elif kind == "III":
        keys += _coinciding_pair(c, v, notched) + _coinciding_pair(c, u, notched)
    elif kind == "IV":
        vw, uw = 1 << v | 1 << w, 1 << u | 1 << w
        keys += _coinciding_pair(c, v, notched) + [(*c2, vw, vw & notched), (*c, uw, uw & notched)]
    else:
        keys += _coinciding_pair(c, v, notched) + _coinciding_pair(c2, v, notched)
    return tuple(keys)


def build_type(spec: TriType) -> TaggedTriangulation:
    """The unique tagged triangulation with the given type data, its arcs in
    the order of the module docstring.

    The spec must give exactly the parameters its type takes, and one tag
    at each puncture whose tag the type leaves free (:func:`_frame`).  It
    is read as slope vectors, puncture bits and masks.
    """
    slopes = [(s.a, s.b) for s in spec.slopes]
    v = None if spec.v is None else 2 * spec.v.i + spec.v.j
    v_prime = None if spec.v_prime is None else 2 * spec.v_prime.i + spec.v_prime.j
    frame = _frame(spec.tag, slopes, v, v_prime)
    tagged = notched = 0
    for p, t in spec.taggings:
        tagged |= 1 << 2 * p.i + p.j
        notched |= (t is Tagging.NOTCHED) << 2 * p.i + p.j
    if tagged.bit_count() != len(spec.taggings):
        raise InvalidParameters("a puncture is tagged twice")
    free = frame[-1]
    if tagged != sum([1 << n for n in free]):
        raise InvalidParameters(
            f"type {spec.tag} takes tags at " + ", ".join(f"v{PUNCTURES[n]}" for n in free))
    return TaggedTriangulation._of_keys(_assemble(spec.tag, slopes, v, frame, notched))


def classify(tri: TaggedTriangulation) -> TriType:
    """Type and determining data of a triangulation (inverse of
    :func:`build_type` up to arc order).

    All is read off the arc keys of the valid ``tri`` and checked no
    more.  Two arcs on one endpoint mask (no mask has three) are a
    coinciding pair if they have one slope, and else the Farey-2 pair.  The
    degrees and the number of coinciding pairs give the type
    (:data:`curves._DEGREE_TYPES`).  A puncture is free unless it is the
    far end of a coinciding pair, where its two notch masks differ.  The
    slope vectors are sorted before each ``Slope`` is built, once.
    """
    keys = tri._keys
    on_mask: dict[int, Key] = {}
    f2 = None  # the Farey-2 pair's two keys
    pairs = []  # the endpoint mask of each coinciding pair
    notched = plain = far = 0
    for key in keys:
        a, b, mask, marks = key
        notched |= marks
        plain |= mask ^ marks
        other = on_mask.setdefault(mask, key)
        if other[0] != a or other[1] != b:
            f2 = other, key
        elif other is not key:
            pairs.append(mask)
            far |= other[3] ^ marks
    kind = _DEGREE_TYPES[tri.degree_sequence][len(pairs)]
    vectors = _slope_sorted([f2[0][:2], f2[1][:2]] if f2 else {key[:2] for key in keys})
    v = v_prime = None
    if kind in ("II", "III"):
        v = _MASK_BITS[f2[0][2]][0]  # the lower endpoint
    elif kind != "I":
        degrees = _degrees(keys)
        v = degrees.index(max(degrees))
    if kind in ("III", "IV"):
        v_prime = next(mask ^ 1 << v for mask in pairs if mask >> v & 1).bit_length() - 1
    mixed = notched & plain & ~far
    if mixed:
        p = PUNCTURES[(mixed & -mixed).bit_length() - 1]
        raise InternalError(f"mixed tags at v{p} outside a coinciding end")
    taggings = tuple([(p, TaggedArc._MARKS[notched >> n & 1])
                      for n, p in enumerate(PUNCTURES) if not far >> n & 1])
    return object.__new__(TriType)._set(kind, tuple([Slope(a, b) for a, b in vectors]),
                                         _PUNCTURE_OF[v], _PUNCTURE_OF[v_prime], taggings)


def _farey2_pairs(slopes: Sequence[Slope]) -> list[tuple[Slope, Slope]]:
    return [(p, q) for p, q in itertools.combinations(slopes, 2)
            if abs(p.a * q.b - p.b * q.a) == 2]


def enumerate_triangulations(max_height: int) -> Iterator[TaggedTriangulation]:
    """All tagged triangulations whose arc slopes have height <= max_height,
    each exactly once, by sweeping the parameter space of each type."""
    for _, tri in _enumerate_typed(max_height):
        yield tri


def _enumerate_typed(max_height: int) -> Iterator[tuple[TriType, TaggedTriangulation]]:
    """The sweep of :func:`enumerate_triangulations`, each triangulation
    with the type data it was built from, so callers need not
    :func:`classify` it; the kernels of :func:`build_type` assemble it."""
    slopes = enumerate_slopes(max_height)
    triples = farey1_triples(slopes)

    def parameters():
        """(type, slopes, v, v') of every spec, v and v' as puncture bits."""
        for triple in triples:
            yield "I", triple, None, None
        for p, q in _farey2_pairs(slopes):
            vs = [_MASK_BITS[mask][0] for mask in _SLOPE_MASKS[2 * (p.a & 1) + (p.b & 1)]]
            companions = _companions(p.vector, q.vector)
            for v in vs:
                yield "II", (p, q), v, None
            for kind, kind_vs in (("III", vs), ("IV", range(4))):
                for v, (a, b) in itertools.product(kind_vs, companions):
                    yield kind, (p, q), v, v ^ 2 * (a & 1) ^ b & 1
            for v in range(4):
                yield "V", (p, q), v, None
        for triple in triples:
            for v in range(4):
                yield "VI", triple, v, None

    for kind, spec_slopes, v, v_prime in parameters():
        spec_slopes = tuple(sorted(spec_slopes))
        vectors = [s.vector for s in spec_slopes]
        frame = _frame(kind, vectors, v, v_prime)
        free = frame[-1]
        by_bit = sorted(range(len(free)), key=free.__getitem__)  # free is unsorted in IV and V
        for tags in tag_choices([PUNCTURES[n] for n in free]):
            spec = object.__new__(TriType)._set(  # unchecked, its taggings by puncture
                kind, spec_slopes, _PUNCTURE_OF[v], _PUNCTURE_OF[v_prime],
                tuple([tags[i] for i in by_bit]))
            notched = sum([1 << n for n, (_, t) in zip(free, tags) if t is Tagging.NOTCHED])
            yield spec, TaggedTriangulation._of_keys(_assemble(kind, vectors, v, frame, notched))


def _candidate_table(pairs: dict[int, tuple[tuple[int, int], ...]]):
    """By |d|, ``(pairs[|d|], coords)``: ``coords`` maps the coordinates
    (u, v) = (det(s, r), det(t, r)) in -2..2 of a remaining slope r to
    ``(bits, row)``: ``row[c]`` is |det(w, r)| = |i*u + j*v| / |d| for the
    candidate w of ``pairs[|d|][c] = (i, j)``, and bit c is set where <= 2."""
    rows = {(ad, u, v): tuple([abs(i * u + j * v) // ad for i, j in ij])
            for ad, ij in pairs.items() for u, v in itertools.product(range(-2, 3), repeat=2)}
    return {ad: (ij, {(u, v): (sum(1 << c for c, x in enumerate(row) if x <= 2), row)
                      for (e, u, v), row in rows.items() if e == ad})
            for ad, ij in pairs.items()}


# The candidates (i*s + j*t) / d of flip, one (i, j) per slope, by |d|.
_CANDIDATES = _candidate_table({
    1: ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (2, -1), (1, 2), (1, -2)),
    2: ((2, 0), (0, 2), (1, 1), (1, -1))})


def _flip_key(taken: tuple[Key, ...], k: int) -> Key:
    """The key that replaces ``taken[k]`` in the flip of the triangulation
    with these keys: one integer pass over the keys of the other five.

    Take the vectors s, t of two distinct slopes among them (one slope
    carries at most four arcs).  Compatible arcs have Farey distance at
    most 2, so d = det(s, t) is +-1 or +-2, and by Cramer's rule the new
    slope w is one of the integral (i*s + j*t) / d with |i|, |j| <= 2, up
    to sign: for |d| = 1 the 8 pairs with gcd(i, j) = 1; for |d| = 2,
    s = t mod 2, so s, t, (s + t) / 2 and (s - t) / 2 (:data:`_CANDIDATES`).
    These are already primitive, so no gcd is taken: each has det +-1 with
    s or t, or (s + t) / 2 with (s - t) / 2, as s and t span a sublattice
    of index |d|.  Only the sign is normalised, and nothing depends on the
    height.  With (u, v) = (det(s, r), det(t, r)) for each remaining slope
    r, det(w, r) = (i*u + j*v) / d, read off the table, which drops a
    candidate with some |det| above 2.  Compatible arcs share |det| ends.
    A remaining key at |det| 2 has w's parity, so it fixes w's endpoint
    mask to its own; one at |det| 1 has another parity and meets either
    mask of w (:data:`_SLOPE_MASKS`) in one end, as the endpoint pairs of
    two parities do; one at det 0 has slope w.  So the mask is that of the
    |det|-2 keys, or either of w's two; its ends shared with keys at
    |det| >= 1 take their notches (the kernel rejects keys that disagree
    there), the others any tag.  A key so made survives if it is not in
    ``taken`` and the compatibility kernel accepts it against the five
    remaining keys.  Six distinct pairwise compatible arcs are a
    triangulation, and the flip is unique (Fomin-Shapiro-Thurston): any
    other count of survivors is :class:`InternalNonUnique`.
    """
    rest = taken[:k] + taken[k + 1:]
    sa, sb = rest[0][0], rest[0][1]
    ta, tb = next((a, b) for a, b, _, _ in rest if a != sa or b != sb)
    d = sa * tb - sb * ta
    pairs, coords = _CANDIDATES[abs(d)]
    ok, rows = -1, []
    for x, y, _, _ in rest:
        bits, row = coords[sa * y - sb * x, ta * y - tb * x]
        ok &= bits
        rows.append(row)
    found = []
    for c, (i, j) in enumerate(pairs):
        if not ok >> c & 1:
            continue  # no arc shares more than two endpoints
        a, b = (i * sa + j * ta) // d, (i * sb + j * tb) // d
        if a < 0 or not a and b < 0:
            a, b = -a, -b
        ends = notched = 0
        masks = _SLOPE_MASKS[2 * (a & 1) + (b & 1)]
        for (_, _, mask2, marks2), row in zip(rest, rows):
            det = row[c]
            if det:
                ends |= mask2
                notched |= marks2
                if det == 2:
                    masks = (mask2,) if mask2 in masks else ()
        for mask in masks:
            free = sub = mask & ~ends
            while True:
                key = (a, b, mask, mask & notched | sub)
                if key not in taken:
                    for r in rest:
                        if not _keys_compatible(key, r):
                            break
                    else:
                        found.append(key)
                if not sub:
                    break
                sub = (sub - 1) & free
    if len(found) != 1:
        raise InternalNonUnique(
            f"flip produced {len(found)} completions instead of 1"
        )
    return found[0]


# A lattice frame as a triangulation keeps it (curves.TaggedTriangulation._frame):
# (m, switch, pos, entry): the map and switch mask of curves._switched_frame,
# pos[i] the position of arc i's image in the entry, and the entry, the sorted
# image keys.
Frame = tuple[tuple[Vector, Vector], int, tuple[int, ...], tuple[Key, ...]]


def _framed(keys: Sequence[Key]) -> Frame:
    """The lattice frame of these keys (:func:`curves._switched_frame`)."""
    linear, switch, images = _switched_frame(keys)
    entry = tuple(sorted(images))
    return linear, switch, tuple(map(entry.index, images)), entry


def _store_frame(tri: TaggedTriangulation) -> Frame:
    """The frame of the keys of ``tri``, stored for it to keep: callers
    read ``tri._frame or _store_frame(tri)``."""
    frame = _framed(tri._keys)
    object.__setattr__(tri, "_frame", frame)
    return frame


# The flips of the entries met so far, keyed by (entry, position):
# (key, frame, degrees), the key that _flip_key puts at that position, in the
# entry's frame, the frame of the flipped entry, in entry order, and its
# sorted degree sequence.  At most 27 x 6 values, one kernel pass each: one
# thread at a time fills it.
_FLIP_MEMO: dict[tuple[tuple[Key, ...], int],
                 tuple[Key, Frame, tuple[int, int, int, int]]] = {}
_FLIP_LOCK = threading.Lock()


def _flip_entry(entry: tuple[Key, ...], j: int) -> tuple[Key, Frame, tuple[int, int, int, int]]:
    """The memo value of (entry, j), computed and stored unless another
    thread stored it first.  Its degree sequence is checked here, once,
    with the constructor's text: the frames only permute the punctures,
    so every flip the value serves has it."""
    with _FLIP_LOCK:
        value = _FLIP_MEMO.get((entry, j))
        if value is None:
            keys = entry[:j] + (_flip_key(entry, j),) + entry[j + 1:]
            degrees = tuple(sorted(_degrees(keys)))
            if degrees not in _DEGREE_TYPES:
                raise ValueError(f"impossible degree sequence {degrees}")
            _FLIP_MEMO[entry, j] = value = keys[j], _framed(keys), degrees
    return value


def flip(tri: TaggedTriangulation, k: int) -> TaggedTriangulation:
    """Replace arc k, an int in 0..5, by the unique other arc completing a
    triangulation, read off the flips of the lattice-frame entries.

    ``tri`` keeps its lattice frame (m, switch, pos, entry): the
    orientation-preserving map m and the switch of tags at some punctures
    carry its arcs onto the keys of one of the 27 entries of :data:`_TABLE`,
    arc i onto ``entry[pos[i]]``.  Both are symmetries of the tagged arc
    complex, so they commute with flips (Fomin-Shapiro-Thurston, Acta
    Math. 2008): the flip of ``tri`` at k is carried back from the flip of
    the entry at j = ``pos[k]``.  :data:`_FLIP_MEMO` holds that flip's new
    key, the frame of the flipped entry and its degree sequence; it is
    filled one (entry, j) at a time by :func:`_flip_key`, the integer
    kernel, which runs at most 162 times in a process, whatever the heights.
    The new key is carried back by the inverse of m and the switch
    (:func:`curves._key_preimage`), and the result gets its frame with no
    search: the product of the two maps, the switch ``switch ^
    move_{m^-1}[switch_j]``, and the positions ``pos_j[pos[i]]``.  So a
    walk computes a frame from its keys only at its start.  The flip being
    unique, the result has the keys that the kernel would give on ``tri``
    itself; it is built here, not by the constructor: the kernel has
    passed the masks and the pairs on the entry, the memo fill its degree
    sequence, and the frame maps preserve them.  Only the six keys being
    distinct is checked again.
    """
    if type(k) is not int or not 0 <= k < 6:
        raise DomainError("arc index must be in 0..5")
    linear, switch, pos, entry = tri._frame or _store_frame(tri)
    j = pos[k]
    key, (linear_j, switch_j, pos_j, entry_j), degrees = (
        _FLIP_MEMO.get((entry, j)) or _flip_entry(entry, j))
    taken = tri._keys
    keys = taken[:k] + (_key_preimage(key, linear, switch),) + taken[k + 1:]
    key_set = frozenset(keys)
    if len(key_set) != 6:
        raise ValueError("a tagged triangulation has exactly 6 distinct arcs")
    (p, q), (r, s) = linear  # m^-1 = ((s, -q), (-r, p)), mod 2 (s, q, r, p)
    (e, f), (g, h) = linear_j
    out = object.__new__(TaggedTriangulation)
    put = object.__setattr__
    put(out, "_keys", keys)
    put(out, "_key_set", key_set)
    put(out, "degree_sequence", degrees)
    put(out, "_frame", (
        ((e * p + f * r, e * q + f * s), (g * p + h * r, g * q + h * s)),
        switch ^ _MASK_MOVES[s & 1, q & 1, r & 1, p & 1][switch_j],
        itemgetter(*pos)(pos_j), entry_j))
    return out


# ---------------------------------------------------------------------------
# Signed adjacency and matrix mutation
# ---------------------------------------------------------------------------

ExchangeMatrix = tuple[tuple[int, ...], ...]


def signed_adjacency(tri: TaggedTriangulation) -> ExchangeMatrix:
    """The signed adjacency (exchange) matrix of any tagged triangulation,
    rows and columns in arc order.

    The lattice frame that ``tri`` keeps (see :func:`flip`) carries the
    arcs to height <= 2 and switches the tags at some punctures; neither
    changes the matrix.  The frame is computed from the keys
    (:func:`curves._switched_frame`) on first use, or carried over by the
    flip that built ``tri``; either way the sorted image keys, the entry,
    index :data:`_TABLE`, whose matrix is read back at the arcs' positions
    in the entry, so both frames give one matrix.  The cost does not
    depend on the height.
    """
    _, _, pos, entry = tri._frame or _store_frame(tri)
    B = _TABLE.get(entry) or _entry(entry)
    row = itemgetter(*pos)  # the entry row of each arc
    return tuple(map(row, row(B)))


def mutate(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation at index k, an int indexing a column of the
    extended (n + m) x n matrix B, whose first n rows are the square
    exchange matrix and the other m its coefficient rows: negate row and
    column k, and add sgn(b_ik) * max(b_ik * b_kj, 0) elsewhere.  An
    involution.  The coefficient rows change by the rule of every row other
    than k, so they carry shear coordinates of laminations along flips
    (Fomin-Thurston, Mem. AMS 2018, Sec. 13).  A matrix with fewer rows
    than columns, or with rows of other lengths, is a :class:`DomainError`."""
    n = len(B[0]) if B else 0
    if type(k) is not int or not 0 <= k < n:
        raise DomainError(f"mutation index must be in 0..{n - 1}")
    if len(B) < n or set(map(len, B)) != {n}:
        raise DomainError(f"mutation takes an (n + m) x n matrix, its top n x n square, "
                          f"not {len(B)} rows of {', '.join(map(str, map(len, B)))} entries")
    row_k = B[k]
    out = []
    for row in B:
        b = row[k]
        if b > 0:
            new = [x + b * y if y > 0 else x for x, y in zip(row, row_k)]
        elif b < 0:
            new = [x - b * y if y < 0 else x for x, y in zip(row, row_k)]
        else:
            out.append(tuple(row))
            continue
        new[k] = -b
        out.append(tuple(new))
    out[k] = tuple([-x for x in row_k])  # over what the loop made of row k
    return tuple(out)


FIG1_MATRIX: ExchangeMatrix = (
    (0, 1, -1, 0, 1, -1),
    (-1, 0, 1, -1, 0, 1),
    (1, -1, 0, 1, -1, 0),
    (0, 1, -1, 0, 1, -1),
    (-1, 0, 1, -1, 0, 1),
    (1, -1, 0, 1, -1, 0),
)


# The exchange matrix of each lattice frame image that _SEARCH has met, keyed
# by its sorted arc keys, rows in that order.
_TABLE: dict[tuple[Key, ...], ExchangeMatrix] = {}


def _search() -> Iterator[tuple[Key, ...]]:
    """The breadth-first search that fills :data:`_TABLE`, yielding each key
    it stores: from :func:`base_triangulation`, whose matrix is
    ``FIG1_MATRIX``, it carries the matrix along the six flips of each new
    entry by :func:`mutate`, and ends with 27 entries after 162 flips.  A
    flip whose matrix disagrees with the entry already there is an
    :class:`InternalError`."""
    # (T, B, k): the search visits flip(T, k) with mutate(B, k), or T where k
    # is None, so that it takes a flip only when it reaches it
    todo = [(base_triangulation(), FIG1_MATRIX, None)]
    for tri, B, k in todo:
        if k is not None:
            tri, B = flip(tri, k), mutate(B, k)
        _, _, pos, key = _framed(tri._keys)
        order = list(map(pos.index, range(6)))  # the arc at each row of the entry
        B = tuple([tuple([B[i][j] for j in order]) for i in order])
        if key in _TABLE:
            if _TABLE[key] != B:
                raise InternalError(f"two exchange matrices for the frame image {key}")
            continue
        _TABLE[key] = B
        yield key
        framed = TaggedTriangulation._of_keys(key)
        todo += [(framed, B, k) for k in range(6)]


# One search per process, run by one thread at a time only as far as the
# lookups need: a plain walk meets 3 entries, and the whole search takes
# about 6 ms.
_SEARCH = _search()
_SEARCH_LOCK = threading.Lock()


def _entry(key: tuple[Key, ...]) -> ExchangeMatrix:
    """The matrix of a key missing from :data:`_TABLE`, the search run on
    until it stores it; a key the search never meets is an
    :class:`InternalError`."""
    with _SEARCH_LOCK:
        if key in _TABLE:  # stored while this thread waited
            return _TABLE[key]
        for found in _SEARCH:
            if found == key:
                return _TABLE[key]
    raise InternalError(f"lattice frame image {list(key)} not in the adjacency table")
