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
The first two read u, w, c, c2 and the punctures whose tag the type leaves
free from :func:`_frame`, which checks a spec; :func:`classify` reads them
off the arc keys of a valid triangulation and checks nothing again.

Neither kernel depends on the height.  :func:`flip` tries at most 8
candidate slopes (:func:`_flip_slopes`) and keeps the one key that the
compatibility kernel accepts against the five remaining arcs, the flip
being unique (Fomin-Shapiro-Thurston, Acta Math. 2008);
:func:`signed_adjacency` reads the matrix of a type-I or type-II
triangulation off the base slots of its height-1 image under its lattice
frame (:func:`curves._frame_slots`): ``FIG1_MATRIX``, mutated at the one
slot where the image is the base flipped, if any.  Tags do not change it
where no two arcs coincide (ibid., Sec. 9), so it serves types I and II in
any tagging; types III-VI, which have a coinciding pair, are refused.
"""

from __future__ import annotations

import itertools
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
    _PAIRS,
    _arc_key,
    _degrees,
    _frame_slots,
    _keys_compatible,
    _slope_keys,
    endpoint_sets,
    tag_choices,
)
from .errors import (
    DomainError,
    InternalError,
    InternalNonUnique,
    InvalidParameters,
)
from .lattice import (
    Slope,
    det2,
    enumerate_slopes,
    farey1_triples,
    farey_distance,
    is_farey1_triple,
    standard_form,
    standard_vector,
)


def _companions(p: Slope, q: Slope) -> tuple[Slope, Slope]:
    """The two slopes Farey-1 adjacent to both members of a pair known to
    be Farey-2 (unchecked; :func:`_frame` checks a spec's pair): the
    half-sum and half-difference of the primitive vectors, sorted."""
    r = standard_form((p.a + q.a) // 2, (p.b + q.b) // 2)
    s = standard_form((p.a - q.a) // 2, (p.b - q.b) // 2)
    return (r, s) if r <= s else (s, r)


class TriType(Frozen):
    """Combinatorial type and determining data of a tagged triangulation.

    ``slopes`` is the Farey-1 triple (types I, VI) or the Farey-2 pair
    (II-V), sorted.  ``taggings`` holds only the freely choosable
    per-puncture tags of the type.
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
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "slopes", tuple(sorted(slopes)))
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "v_prime", v_prime)
        object.__setattr__(self, "taggings", tuple(sorted(taggings, key=lambda e: e[0])))

    def to_json(self) -> dict:
        out: dict = {"type": self.tag, "slopes": [str(s) for s in self.slopes]}
        if self.v is not None:
            out["v"] = str(self.v)
        if self.v_prime is not None:
            out["v_prime"] = str(self.v_prime)
        out["tags"] = {str(p): t.value for p, t in self.taggings}
        return out


def _tagged_arc(slope: Slope, x: Puncture, t: Tagging, y: Puncture, t2: Tagging,
                memo: dict[tuple[int, int, int, int], TaggedArc]) -> TaggedArc:
    """The arc of ``slope`` from x tagged t to y tagged t2: the one object
    of that arc across the calls sharing ``memo`` (integer key to arc, see
    :func:`arcs_compatible`)."""
    key = _arc_key(slope, x, t, y, t2)
    found = memo.get(key)
    if found is None:
        found = memo[key] = TaggedArc(slope, ((x, t), (y, t2)))
    return found


def _coinciding_pair(slope: Slope, agree_at: Puncture, tag: Tagging,
                     memo: dict[tuple[int, int, int, int], TaggedArc]) -> list[TaggedArc]:
    far = agree_at.translate(slope.parity)
    return [_tagged_arc(slope, agree_at, tag, far, t, memo) for t in Tagging]


def _frame(kind: str, slopes: tuple[Slope, ...], v: Puncture | None,
           v_prime: Puncture | None):
    """(u, w, c, c2, free) of a type with these slopes (in any order), v and v':
    u ends the Farey-2 pair at v, w is IV's fourth puncture, companion c leads
    from v to v' and c2 is the other (None where the type has none); free
    lists the punctures whose tag the type leaves free.  Checks all but tags,
    for the specs of :func:`build_type`, :func:`_enumerate_typed` and the
    tests' object oracle; :func:`classify` reads keys instead."""
    if kind not in ("I", "II", "III", "IV", "V", "VI"):
        raise InvalidParameters(f"unknown type {kind!r}")
    if kind in ("I", "VI"):
        if len(slopes) != 3 or not is_farey1_triple(*slopes):
            raise InvalidParameters("types I and VI need a Farey-1 triple")
    elif len(slopes) != 2 or farey_distance(*slopes) != 2:
        raise InvalidParameters("types II-V need a Farey-2 pair")
    if (v is None) != (kind == "I"):
        raise InvalidParameters(
            "type I takes no vertex v" if v is not None else f"type {kind} needs a vertex v")
    u = w = c = c2 = None
    if kind not in ("I", "VI"):
        u = v.translate(slopes[0].parity)
        c, c2 = _companions(*slopes)
        if kind in ("II", "III") and not v < u:
            raise InvalidParameters(f"type {kind} requires v below its partner mod 2")
    if kind in ("III", "IV"):
        if v_prime is None or v_prime in (v, u):
            raise InvalidParameters(f"type {kind} needs v' off the Farey-2 pair")
        # p, c and c2 have the three nonzero parities, so v' and w are the
        # translates of v by the two companions
        if v.translate(c.parity) != v_prime:
            c, c2 = c2, c
        w = v.translate(c2.parity)
    elif v_prime is not None:
        raise InvalidParameters(f"type {kind} takes no v'")
    free = {"I": PUNCTURES, "II": PUNCTURES, "III": (v, u), "IV": (v, u, w),
            "V": (v, u), "VI": (v,)}[kind]
    return u, w, c, c2, free


def _assemble(kind: str, slopes: tuple[Slope, ...], v: Puncture | None, frame,
              tags: dict[Puncture, Tagging],
              memo: dict[tuple[int, int, int, int], TaggedArc]) -> TaggedTriangulation:
    """The arcs of the module docstring's table, in its order, for ``slopes``
    sorted as :class:`TriType` keeps them and a tag at each free puncture.
    A ``memo`` (see :func:`_tagged_arc`) shared by the calls of one sweep
    gives their triangulations one object per arc."""
    u, w, c, c2, _ = frame

    def arc(s: Slope, x: Puncture, y: Puncture) -> TaggedArc:
        return _tagged_arc(s, x, tags[x], y, tags[y], memo)

    def both(s: Slope) -> list[TaggedArc]:
        return [arc(s, *pair) for pair in endpoint_sets(s)]

    def coinciding(s: Slope, x: Puncture) -> list[TaggedArc]:
        return _coinciding_pair(s, x, tags[x], memo)

    if kind == "I":
        arcs = [a for s in slopes for a in both(s)]
    elif kind == "VI":
        arcs = [a for s in slopes for a in coinciding(s, v)]
    else:
        arcs = [arc(s, v, u) for s in slopes]
        if kind == "II":
            arcs += both(c) + both(c2)
        elif kind == "III":
            arcs += coinciding(c, v) + coinciding(c, u)
        elif kind == "IV":
            arcs += coinciding(c, v) + [arc(c2, v, w), arc(c, u, w)]
        else:
            arcs += coinciding(c, v) + coinciding(c2, v)
    return TaggedTriangulation(tuple(arcs))


def build_type(spec: TriType) -> TaggedTriangulation:
    """The unique tagged triangulation with the given type data, its arcs in
    the order of the module docstring.

    The spec must give exactly the parameters its type takes, and one tag
    at each puncture whose tag the type leaves free (:func:`_frame`).
    """
    frame = _frame(spec.tag, spec.slopes, spec.v, spec.v_prime)
    free = frame[-1]
    tags = dict(spec.taggings)
    if len(tags) != len(spec.taggings):
        raise InvalidParameters("a puncture is tagged twice")
    if set(tags) != set(free):
        raise InvalidParameters(
            f"type {spec.tag} takes tags at " + ", ".join(f"v{x}" for x in free))
    return _assemble(spec.tag, spec.slopes, spec.v, frame, tags, {})


def classify(tri: TaggedTriangulation) -> TriType:
    """Type and determining data of a triangulation (inverse of
    :func:`build_type` up to arc order).

    All is read off the arc keys of the valid ``tri`` and checked no
    more: a coinciding pair is two keys that differ in the notch mask only,
    a Farey-2 pair two with one endpoint mask and ``|det|`` 2.  The degrees
    and the number of coinciding pairs give the type
    (:data:`curves._DEGREE_TYPES`).  A puncture is free unless it is the far
    end of a coinciding pair, where its two notch masks differ.
    """
    keys = tri._keys
    f2 = next(((i, j) for i, j in _PAIRS if keys[i][2] == keys[j][2]
               and abs(keys[i][0] * keys[j][1] - keys[i][1] * keys[j][0]) == 2), None)
    first: dict[tuple[int, int, int], int] = {}
    pairs = []  # the endpoint mask of each coinciding pair
    notched = plain = far = 0
    for a, b, mask, marks in keys:
        notched |= marks
        plain |= mask ^ marks
        other = first.setdefault((a, b, mask), marks)
        if other != marks:
            pairs.append(mask)
            far |= other ^ marks
    kind = _DEGREE_TYPES[tri.degree_sequence][len(pairs)]
    slopes = (tri.arcs[f2[0]].slope, tri.arcs[f2[1]].slope) if f2 else \
        tuple({arc.slope for arc in tri.arcs})
    v = v_prime = None
    if kind in ("II", "III"):
        mask = keys[f2[0]][2]
        v = PUNCTURES[(mask & -mask).bit_length() - 1]  # the lower endpoint
    elif kind != "I":
        degrees = _degrees(keys)
        v = PUNCTURES[degrees.index(max(degrees))]
    if kind in ("III", "IV"):
        bit = 1 << 2 * v.i + v.j
        v_prime = PUNCTURES[next(mask ^ bit for mask in pairs if mask & bit).bit_length() - 1]
    mixed = notched & plain & ~far
    if mixed:
        p = PUNCTURES[(mixed & -mixed).bit_length() - 1]
        raise InternalError(f"mixed tags at v{p} outside a coinciding end")
    taggings = tuple((p, Tagging.NOTCHED if notched >> n & 1 else Tagging.PLAIN)
                     for n, p in enumerate(PUNCTURES) if not far >> n & 1)
    return TriType(kind, slopes, v=v, v_prime=v_prime, taggings=taggings)


def _farey2_pairs(slopes: Sequence[Slope]) -> list[tuple[Slope, Slope]]:
    return [
        (p, q)
        for p, q in itertools.combinations(slopes, 2)
        if farey_distance(p, q) == 2
    ]


def enumerate_triangulations(max_height: int) -> Iterator[TaggedTriangulation]:
    """All tagged triangulations whose arc slopes have height <= max_height,
    each exactly once, by sweeping the parameter space of each type."""
    for _, tri in _enumerate_typed(max_height):
        yield tri


def _enumerate_typed(max_height: int) -> Iterator[tuple[TriType, TaggedTriangulation]]:
    """The sweep of :func:`enumerate_triangulations`, each triangulation
    with the type data it was built from, so callers need not
    :func:`classify` it."""
    slopes = enumerate_slopes(max_height)
    triples = farey1_triples(slopes)

    def parameters():
        """(type, slopes, v, v') of every spec."""
        for triple in triples:
            yield "I", triple, None, None
        for p, q in _farey2_pairs(slopes):
            vs = [min(pair) for pair in endpoint_sets(p)]
            companions = _companions(p, q)
            for v in vs:
                yield "II", (p, q), v, None
            for kind, kind_vs in (("III", vs), ("IV", PUNCTURES)):
                for v, c in itertools.product(kind_vs, companions):
                    yield kind, (p, q), v, v.translate(c.parity)
            for v in PUNCTURES:
                yield "V", (p, q), v, None
        for triple in triples:
            for v in PUNCTURES:
                yield "VI", triple, v, None

    memo: dict[tuple[int, int, int, int], TaggedArc] = {}
    for kind, spec_slopes, v, v_prime in parameters():
        frame = _frame(kind, spec_slopes, v, v_prime)
        for tags in tag_choices(frame[-1]):
            spec = TriType(kind, spec_slopes, v=v, v_prime=v_prime, taggings=tags)
            yield spec, _assemble(kind, spec.slopes, v, frame, dict(tags), memo)


# For |d| = 1 and |d| = 2, the (i, j) of one integral (i*s + j*t) / |d|
# per slope (see _flip_slopes).
_CANDIDATE_PAIRS = {1: ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (2, -1), (1, 2), (1, -2)),
                    2: ((2, 0), (0, 2), (1, 1), (1, -1))}


def _flip_slopes(rest: Sequence[TaggedArc]) -> set[tuple[int, int]]:
    """The primitive vector (a, b) of every slope the arc completing
    ``rest`` to a triangulation can have, in standard form: a > 0, or
    (0, 1).

    Take two distinct slopes s, t of the remaining arcs; they exist because
    one slope carries at most four arcs (two underlying arcs, each in at
    most two tagged versions).  Compatible arcs have Farey distance at most
    2, so d = det(s, t) is +-1 or +-2, and the new slope w has
    |det(w, s)|, |det(w, t)| <= 2.  Cramer's rule gives
    d * w = det(w, t) * s + det(s, w) * t, so w is one of the integral
    vectors (i*s + j*t) / d with |i|, |j| <= 2; (i, j) gives the slope of
    (-i, -j), and of (2i, 2j) when both are integral.  For |d| = 1 the 8
    pairs with gcd(i, j) = 1 give every slope.  For |d| = 2, s = t mod 2
    (primitive, even det), so (i*s + j*t) / 2 is integral iff i + j is
    even: the slopes of s, t, (s + t) / 2 and (s - t) / 2.
    """
    s = rest[0].slope
    t = next(a.slope for a in rest if a.slope != s)
    d = abs(det2(s, t))
    return {standard_vector((i * s.a + j * t.a) // d, (i * s.b + j * t.b) // d)
            for i, j in _CANDIDATE_PAIRS[d]}


def flip(tri: TaggedTriangulation, k: int) -> TaggedTriangulation:
    """Replace arc k, an int in 0..5, by the unique other arc completing a
    triangulation.

    The new slope is one of the at most 8 candidates of
    :func:`_flip_slopes`, a set whose size does not depend on the height.
    Of the 8 keys ``(a, b, mask, marks)`` (see :func:`arcs_compatible`) of
    a candidate slope, :func:`_slope_keys` keeps only those the kernel's
    own conditions allow against the five remaining keys: an endpoint mask
    sharing ``|det|`` endpoints with each remaining arc but one of the same
    underlying arc (so no ``|det|`` above 2), and the tags of the remaining
    arcs at shared ends.  A kept key survives if it is neither
    the removed arc nor a remaining one and passes the compatibility kernel
    against the five remaining keys.  Six distinct pairwise compatible arcs
    are a maximal compatible set, that is a triangulation, so each survivor
    is a flip, and the flip is unique: exactly one key survives, and only
    its arc is built, by :meth:`TaggedTriangulation._of_flip`.
    """
    if type(k) is not int or not 0 <= k < 6:
        raise DomainError("arc index must be in 0..5")
    rest = tri.arcs[:k] + tri.arcs[k + 1:]
    taken = tri._keys
    rest_keys = taken[:k] + taken[k + 1:]
    found = [key for a, b in _flip_slopes(rest) for key in _slope_keys(a, b, rest_keys)
             if key not in taken and all(_keys_compatible(key, r) for r in rest_keys)]
    if len(found) != 1:
        raise InternalNonUnique(
            f"flip produced {len(found)} completions instead of 1"
        )
    arc = TaggedArc._of_key(found[0])
    return TaggedTriangulation._of_flip(rest[:k] + (arc,) + rest[k:])


# ---------------------------------------------------------------------------
# Signed adjacency and matrix mutation
# ---------------------------------------------------------------------------

ExchangeMatrix = tuple[tuple[int, ...], ...]


def signed_adjacency(tri: TaggedTriangulation) -> ExchangeMatrix:
    """The signed adjacency matrix of a triangulation of type I or II, in
    any tagging.

    Tags do not change the matrix at a puncture where no two arcs coincide
    (Fomin-Shapiro-Thurston, Acta Math. 2008, Sec. 9).  Only types III-VI
    have a coinciding pair (equal slope and endpoints): a DomainError, read
    off the keys before any frame.  The lattice frame
    (:func:`curves._frame_slots`) reads slopes and endpoints only and
    carries the arcs to height 1, onto the base triangulation or the base
    flipped at slot 2 or 5.  It keeps faces and their orientation, so entry
    (i, j) is the image's entry at the base slots of arcs i and j: that of
    ``FIG1_MATRIX`` mutated at the flipped slot, if any, as a flip mutates
    the matrix (:data:`_FRAME_ADJACENCY`).  The cost does not depend on the
    height.
    """
    if len({key[:3] for key in tri._keys}) < 6:
        raise DomainError("signed adjacency covers types I and II: this triangulation "
                          "has a coinciding pair of arcs (types III-VI)")
    _, slots, flipped = _frame_slots(tri._keys)
    B, row = _FRAME_ADJACENCY[flipped], itemgetter(*slots)
    return tuple(row(B[slot]) for slot in slots)


def mutate(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation at index k, an int indexing a row of the square
    matrix B: negate row/column k, and add sgn(b_ik) * max(b_ik * b_kj, 0)
    elsewhere.  An involution."""
    n = len(B)
    if type(k) is not int or not 0 <= k < n:
        raise DomainError(f"mutation index must be in 0..{n - 1}")
    row_k = B[k]
    out = []
    for i, row in enumerate(B):
        b = row[k]
        if i == k:
            new = [-x for x in row]
        elif b > 0:
            new = [x + b * y if y > 0 else x for x, y in zip(row, row_k)]
        elif b < 0:
            new = [x - b * y if y < 0 else x for x, y in zip(row, row_k)]
        else:
            new = list(row)
        new[k] = -b
        out.append(tuple(new))
    return tuple(out)


FIG1_MATRIX: ExchangeMatrix = (
    (0, 1, -1, 0, 1, -1),
    (-1, 0, 1, -1, 0, 1),
    (1, -1, 0, 1, -1, 0),
    (0, 1, -1, 0, 1, -1),
    (-1, 0, 1, -1, 0, 1),
    (1, -1, 0, 1, -1, 0),
)

# The signed adjacency of each image a lattice frame yields (see
# signed_adjacency), rows by base slot, keyed by the flipped slot.
_FRAME_ADJACENCY = {None: FIG1_MATRIX, 2: mutate(FIG1_MATRIX, 2), 5: mutate(FIG1_MATRIX, 5)}
