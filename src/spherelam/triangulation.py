"""Tagged triangulations of the four-punctured sphere.

Every tagged triangulation has six arcs and falls into one of six
combinatorial types.  :func:`build_type` assembles each type from three
pieces: ``arc(s, x, y)``, the arc of slope s from x to y carrying the tags
of its endpoints; ``both(s)``, the two such arcs of slope s; and
``coinciding(s, x)`` (:func:`_coinciding_pair`), the two arcs of slope s
at x that carry the tag of x there and differ at the far end.  With p, q
a Farey-2 pair of slopes whose arcs join v to u, c and c2 its companion
slopes, c leading from v to v', and w the fourth puncture, the types are,
in arc order:

- I    both(s) for each s of a Farey-1 triple
- II   arc(p, v, u), arc(q, v, u), both(c), both(c2)
- III  arc(p, v, u), arc(q, v, u), coinciding(c, v), coinciding(c, u)
- IV   arc(p, v, u), arc(q, v, u), coinciding(c, v), arc(c2, v, w), arc(c, u, w)
- V    arc(p, v, u), arc(q, v, u), coinciding(c, v), coinciding(c2, v)
- VI   coinciding(s, v) for each s of a Farey-1 triple

Types are parametrized exactly as enumerated by :func:`enumerate_triangulations`
and recognized by :func:`classify`; :func:`build_type` inverts classify.
All three read u, w, c, c2 and the punctures whose tag the type leaves free
from :func:`_frame`, the one statement of them.

Neither kernel depends on the height.  :func:`flip` tries at most 12
candidate slopes: with s, t two distinct remaining slopes and
d = det(s, t), the new slope is an integral (i*s + j*t) / d with
|i|, |j| <= 2, by Cramer's rule and the Farey-distance bound of
compatibility.  :func:`signed_adjacency` maps an all-plain triangulation
to a height-1 representative by an orientation-preserving lattice map and
reads the matrix there from a memo of three arc sets, filled by mutating
``FIG1_MATRIX`` along the six flips of the base triangulation.  The tests
check it against a geometric oracle on the lifted segment arrangement.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .curves import (
    PUNCTURES,
    Puncture,
    TaggedArc,
    Tagging,
    _arc_of_key,
    _keys_compatible,
    _slope_keys,
    arcs_compatible,
    endpoint_sets,
    tag_choices,
)
from .errors import (
    InternalError,
    InternalNonUnique,
    InvalidParameters,
    MalformedInput,
    NotAllPlain,
)
from .lattice import (
    Slope,
    det2,
    enumerate_slopes,
    farey1_triples,
    farey_distance,
    is_farey1_triple,
    pair_to_basis,
    standard_form,
)

_ADMISSIBLE_DEGREES = {(2, 2, 2, 6), (2, 2, 3, 5), (2, 2, 4, 4), (3, 3, 3, 3)}


@dataclass(frozen=True)
class TaggedTriangulation:
    """Six distinct pairwise compatible tagged arcs, in a fixed order."""

    arcs: tuple[TaggedArc, ...]
    arc_set: frozenset[TaggedArc] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "arc_set", frozenset(self.arcs))
        if len(self.arcs) != 6 or len(self.arc_set) != 6:
            raise ValueError("a tagged triangulation has exactly 6 distinct arcs")
        for x, y in itertools.combinations(self.arcs, 2):
            if not arcs_compatible(x, y):
                raise ValueError(f"incompatible arcs {x}, {y}")
        if self.degree_sequence not in _ADMISSIBLE_DEGREES:
            raise ValueError(f"impossible degree sequence {self.degree_sequence}")

    @property
    def degree_sequence(self) -> tuple[int, int, int, int]:
        deg = {p: 0 for p in PUNCTURES}
        for arc in self.arcs:
            for p in arc.punctures:
                deg[p] += 1
        return tuple(sorted(deg.values()))  # type: ignore[return-value]

    @property
    def height(self) -> int:
        return max(arc.height for arc in self.arcs)

    @property
    def all_plain(self) -> bool:
        return all(
            t is Tagging.PLAIN for arc in self.arcs for _, t in arc.ends
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, TaggedTriangulation) and self.arc_set == other.arc_set

    def __hash__(self) -> int:
        return hash(self.arc_set)

    def to_json(self) -> list:
        return [arc.to_json() for arc in self.arcs]

    @staticmethod
    def from_json(obj: list) -> "TaggedTriangulation":
        if not isinstance(obj, list):
            raise MalformedInput("a triangulation is a JSON array of arcs")
        return TaggedTriangulation(tuple(TaggedArc.from_json(a) for a in obj))


def base_triangulation() -> TaggedTriangulation:
    """The base triangulation: arcs 1,4 of slope 0, arcs 2,5 of slope inf,
    arcs 3,6 of slope -1, all plain, indexed so that arcs 1,2,3 pass
    through v00."""
    z = Slope(1, 0)
    inf = Slope(0, 1)
    mone = Slope(1, -1)
    order = [(z, 0), (inf, 0), (mone, 0), (z, 1), (inf, 1), (mone, 1)]
    arcs = []
    for slope, which in order:
        pair = endpoint_sets(slope)[which]
        arcs.append(
            TaggedArc(slope, ((pair[0], Tagging.PLAIN), (pair[1], Tagging.PLAIN)))
        )
    return TaggedTriangulation(tuple(arcs))


def f2_companions(p: Slope, q: Slope) -> tuple[Slope, Slope]:
    """The two slopes Farey-1 adjacent to both members of a Farey-2 pair:
    the half-sum and half-difference of the primitive vectors."""
    if farey_distance(p, q) != 2:
        raise InvalidParameters(f"{p}, {q} is not a Farey-2 pair")
    r = standard_form((p.a + q.a) // 2, (p.b + q.b) // 2)
    s = standard_form((p.a - q.a) // 2, (p.b - q.b) // 2)
    return (r, s) if r <= s else (s, r)


@dataclass(frozen=True)
class TriType:
    """Combinatorial type and determining data of a tagged triangulation.

    ``slopes`` is the Farey-1 triple (types I, VI) or the Farey-2 pair
    (II-V), sorted.  ``taggings`` holds only the freely choosable
    per-puncture tags of the type.
    """

    tag: str
    slopes: tuple[Slope, ...]
    v: Puncture | None = None
    v_prime: Puncture | None = None
    taggings: tuple[tuple[Puncture, Tagging], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "slopes", tuple(sorted(self.slopes)))
        object.__setattr__(
            self, "taggings", tuple(sorted(self.taggings, key=lambda e: e[0]))
        )

    def to_json(self) -> dict:
        out: dict = {"type": self.tag, "slopes": [str(s) for s in self.slopes]}
        if self.v is not None:
            out["v"] = str(self.v)
        if self.v_prime is not None:
            out["v_prime"] = str(self.v_prime)
        out["tags"] = {str(p): t.value for p, t in self.taggings}
        return out


def _coinciding_pair(slope: Slope, agree_at: Puncture, tag: Tagging) -> list[TaggedArc]:
    far = agree_at.translate(slope.parity)
    return [
        TaggedArc(slope, ((agree_at, tag), (far, Tagging.PLAIN))),
        TaggedArc(slope, ((agree_at, tag), (far, Tagging.NOTCHED))),
    ]


def _frame(kind: str, slopes: tuple[Slope, ...], v: Puncture | None,
           v_prime: Puncture | None):
    """(u, w, c, c2, free) of a type with these slopes (in any order), v and v':
    u ends the Farey-2 pair at v, w is IV's fourth puncture, companion c leads
    from v to v' and c2 is the other (None where the type has none); free
    lists the punctures whose tag the type leaves free.  Checks all but tags."""
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
        c, c2 = f2_companions(*slopes)
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
              tags: dict[Puncture, Tagging]) -> TaggedTriangulation:
    """The arcs of the module docstring's table, in its order, for ``slopes``
    sorted as :class:`TriType` keeps them and a tag at each free puncture."""
    u, w, c, c2, _ = frame

    def arc(s: Slope, x: Puncture, y: Puncture) -> TaggedArc:
        return TaggedArc(s, ((x, tags[x]), (y, tags[y])))

    def both(s: Slope) -> list[TaggedArc]:
        return [arc(s, *pair) for pair in endpoint_sets(s)]

    if kind == "I":
        arcs = [a for s in slopes for a in both(s)]
    elif kind == "VI":
        arcs = [a for s in slopes for a in _coinciding_pair(s, v, tags[v])]
    else:
        arcs = [arc(s, v, u) for s in slopes]
        if kind == "II":
            arcs += both(c) + both(c2)
        elif kind == "III":
            arcs += _coinciding_pair(c, v, tags[v]) + _coinciding_pair(c, u, tags[u])
        elif kind == "IV":
            arcs += _coinciding_pair(c, v, tags[v]) + [arc(c2, v, w), arc(c, u, w)]
        else:
            arcs += _coinciding_pair(c, v, tags[v]) + _coinciding_pair(c2, v, tags[v])
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
    return _assemble(spec.tag, spec.slopes, spec.v, frame, tags)


def classify(tri: TaggedTriangulation) -> TriType:
    """Type and determining data of a triangulation (inverse of
    :func:`build_type` up to arc order).

    The degrees, the Farey-2 pair (types II-V) and the coinciding pairs
    give the type, its slopes, v and v'; the taggings are the common tag
    of the arcs at each puncture :func:`_frame` leaves free.
    """
    arcs = tri.arcs
    f2 = next(((x, y) for x, y in itertools.combinations(arcs, 2)
               if x.punctures == y.punctures and x.slope != y.slope
               and farey_distance(x.slope, y.slope) == 2), None)
    pairs = [pts for (_, pts), n in
             Counter(arc.underlying for arc in arcs).items() if n == 2]
    kind = {(3, 3, 3, 3): "I", (2, 2, 4, 4): "III" if pairs else "II", (2, 2, 3, 5): "IV",
            (2, 2, 2, 6): "V" if f2 else "VI"}[tri.degree_sequence]
    slopes = (f2[0].slope, f2[1].slope) if f2 else tuple({arc.slope for arc in arcs})
    v = v_prime = None
    if kind in ("II", "III"):
        v = min(f2[0].punctures)
    elif kind != "I":
        v = max(PUNCTURES, key=lambda p: sum(p in arc.punctures for arc in arcs))
    if kind in ("III", "IV"):
        v_prime = next(p for pts in pairs if v in pts for p in pts if p != v)
    taggings = []
    for p in _frame(kind, slopes, v, v_prime)[-1]:
        seen = {t for arc in arcs for q, t in arc.ends if q == p}
        if len(seen) != 1:
            raise InternalError(f"mixed tags at v{p} outside a coinciding end")
        taggings.append((p, seen.pop()))
    return TriType(kind, slopes, v=v, v_prime=v_prime, taggings=tuple(taggings))


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
            companions = f2_companions(p, q)
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

    for kind, spec_slopes, v, v_prime in parameters():
        frame = _frame(kind, spec_slopes, v, v_prime)
        for tags in tag_choices(frame[-1]):
            spec = TriType(kind, spec_slopes, v=v, v_prime=v_prime, taggings=tags)
            yield spec, _assemble(kind, spec.slopes, v, frame, dict(tags))


# The (i, j) with |i|, |j| <= 2 above (0, 0), one of each pair +-(i, j).
_UPPER_PAIRS = [(i, j) for i, j in itertools.product(range(-2, 3), repeat=2) if (i, j) > (0, 0)]


def _flip_slopes(rest: Sequence[TaggedArc]) -> set[Slope]:
    """Every slope the arc completing ``rest`` to a triangulation can have.

    Take two distinct slopes s, t of the remaining arcs; they exist because
    one slope carries at most four arcs (two underlying arcs, each in at
    most two tagged versions).  Compatible arcs have Farey distance at most
    2, so d = det(s, t) is +-1 or +-2, and the new slope w has
    |det(w, s)|, |det(w, t)| <= 2.  Cramer's rule gives
    d * w = det(w, t) * s + det(s, w) * t, so w is one of the integral
    vectors (i*s + j*t) / d with |i|, |j| <= 2.  (i, j) and (-i, -j) give
    one slope, so the 12 pairs above (0, 0) in lexicographic order give
    them all: at most 12 slopes at any height.
    """
    s = rest[0].slope
    t = next(a.slope for a in rest if a.slope != s)
    d = det2(s, t)
    out = set()
    for i, j in _UPPER_PAIRS:
        x, y = i * s.a + j * t.a, i * s.b + j * t.b
        if x % d == 0 and y % d == 0:
            out.add(standard_form(x // d, y // d))
    return out


def flip(tri: TaggedTriangulation, k: int) -> TaggedTriangulation:
    """Replace arc k by the unique other arc completing a triangulation.

    The new slope is one of the at most 12 candidates of
    :func:`_flip_slopes`, a set whose size does not depend on the height.
    Each candidate slope (a, b) gives 8 candidate keys ``(a, b, mask,
    marks)`` in the encoding of :func:`arcs_compatible`: its two endpoint
    masks, ``1 | 1 << (2*(a % 2) + b % 2)`` and the complement of that in
    ``0b1111``, each with the 4 subsets of its bits as notched ends.  A key
    is dropped if it is the removed arc or a remaining one, or if it fails
    the compatibility kernel against the five remaining keys; a
    :class:`TaggedArc` is built only for a survivor, and kept when it
    completes a valid triangulation.  Exactly one must be kept.
    """
    rest = tri.arcs[:k] + tri.arcs[k + 1:]
    taken = {arc._key for arc in tri.arcs}
    rest_keys = [arc._key for arc in rest]

    found = []
    for slope in _flip_slopes(rest):
        for key in _slope_keys(slope):
            if key in taken or not all(_keys_compatible(key, r) for r in rest_keys):
                continue
            try:
                new = TaggedTriangulation(rest[:k] + (_arc_of_key(slope, key),) + rest[k:])
            except ValueError:
                continue
            found.append(new)
    if len(found) != 1:
        raise InternalNonUnique(
            f"flip produced {len(found)} completions instead of 1"
        )
    return found[0]


# ---------------------------------------------------------------------------
# Signed adjacency and matrix mutation
# ---------------------------------------------------------------------------

ExchangeMatrix = tuple[tuple[int, ...], ...]


# Signed adjacency of the three canonical arc sets (see signed_adjacency),
# rows in canonical arc order; filled on the first call.
_CANONICAL_ADJACENCY: dict[tuple[TaggedArc, ...], ExchangeMatrix] = {}


def _canonical_pair(slopes: set[Slope]) -> tuple[Slope, Slope]:
    """A Farey-1 pair (s, t) of the slopes of an all-plain triangulation
    with every other slope at Farey distance <= 1 from both: any two of the
    triple for type I, the two companion slopes for type II."""
    for s, t in itertools.combinations(sorted(slopes), 2):
        if farey_distance(s, t) == 1 and all(
            farey_distance(r, s) <= 1 and farey_distance(r, t) <= 1
            for r in slopes
        ):
            return s, t
    raise InternalError(
        "no Farey-1 pair spans the slopes " + ", ".join(map(str, sorted(slopes)))
    )


def _canonical_form(tri: TaggedTriangulation) -> tuple[tuple[TaggedArc, ...], list[int]]:
    """(canon, order): the images of the arcs of an all-plain ``tri`` under
    the orientation-preserving lattice map sending its
    :func:`_canonical_pair` to (1, 0) and (0, +-1), canon[r] that of arc
    order[r], sorted."""
    m = pair_to_basis(*_canonical_pair({arc.slope for arc in tri.arcs}))
    image = [arc.image(m) for arc in tri.arcs]
    order = sorted(range(6), key=lambda i: (image[i].slope.vector, min(image[i].punctures)))
    return tuple(image[i] for i in order), order


def _fill_canonical_adjacency() -> None:
    """The memo from the base triangulation with ``FIG1_MATRIX`` and its
    six flips with the six mutations of that matrix."""
    base = base_triangulation()
    table: dict[tuple[TaggedArc, ...], ExchangeMatrix] = {}
    flips = [(flip(base, k), mutate(FIG1_MATRIX, k)) for k in range(6)]
    for tri, B in [(base, FIG1_MATRIX), *flips]:
        canon, order = _canonical_form(tri)
        C = tuple(tuple(B[i][j] for j in order) for i in order)
        if table.setdefault(canon, C) != C:
            raise InternalError("two flips of the base give one arc set two matrices")
    _CANONICAL_ADJACENCY.update(table)


def signed_adjacency(tri: TaggedTriangulation) -> ExchangeMatrix:
    """The signed adjacency matrix of an all-plain triangulation.

    An all-plain triangulation has type I or II, and the orientation-
    preserving lattice map sending its :func:`_canonical_pair` (s, t) to
    (1, 0) and (0, +-1) carries every arc to height 1: the remaining slopes
    are +-s +- t.  The map keeps faces and their orientation, so the matrix
    of the image, with arcs in the same order, is the matrix of ``tri``.
    The image is one of three arc sets: the base's type-I set on
    {-1, 0, inf}, and type II on {1, -1} with v = 00 or v = 01, each one
    flip from the base.  A flip mutates the matrix (Fomin-Shapiro-Thurston,
    Acta Math. 2008), so the memo of the three is filled from
    ``FIG1_MATRIX`` and its six mutations, and the matrix is permuted back
    to the caller's arc order: the cost does not depend on the height.
    """
    if not tri.all_plain:
        raise NotAllPlain("signed adjacency needs all arcs tagged plain")
    if not _CANONICAL_ADJACENCY:
        _fill_canonical_adjacency()
    canon, order = _canonical_form(tri)
    B = _CANONICAL_ADJACENCY.get(canon)
    if B is None:
        raise InternalError("canonical arc set missing from the adjacency memo")
    pos = {i: r for r, i in enumerate(order)}
    return tuple(tuple(B[pos[i]][pos[j]] for j in range(6)) for i in range(6))


def mutate(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation at index k: negate row/column k, and add
    sgn(b_ik) * max(b_ik * b_kj, 0) elsewhere.  An involution."""
    n = len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == k or j == k:
                row.append(-B[i][j])
            else:
                prod = B[i][k] * B[k][j]
                sign = 1 if B[i][k] > 0 else (-1 if B[i][k] < 0 else 0)
                row.append(B[i][j] + sign * max(prod, 0))
        out.append(tuple(row))
    return tuple(out)


FIG1_MATRIX: ExchangeMatrix = (
    (0, 1, -1, 0, 1, -1),
    (-1, 0, 1, -1, 0, 1),
    (1, -1, 0, 1, -1, 0),
    (0, 1, -1, 0, 1, -1),
    (-1, 0, 1, -1, 0, 1),
    (1, -1, 0, 1, -1, 0),
)
