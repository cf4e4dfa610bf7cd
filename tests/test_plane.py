"""The integer lifted-plane kernel against a Fraction reference.

The reference functions below are the Fraction-exact crossing code the
integer kernel replaced: points as Fractions, crossings ordered by their
parameter t.  The kernel's points are numerators over a denominator D,
compared here as Fraction(X, D)."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from box_oracle import pseudo_angle as ref_pseudo_angle
from spherelam import curves, plane
from spherelam.curves import SpiralDir
from spherelam.errors import InternalError

# ---------------------------------------------------------------------------
# Fraction reference
# ---------------------------------------------------------------------------


def ref_line_hits(c0, rate, t_lo, t_hi, include_lo):
    if rate == 0:
        return
    v_start = c0 + t_lo * rate
    v_stop = c0 + t_hi * rate
    lo, hi = (v_start, v_stop) if rate > 0 else (v_stop, v_start)
    for k in range(math.floor(lo), math.floor(hi) + 2):
        if lo < k < hi:
            yield k, Fraction(k - c0, rate)
        elif include_lo and k == v_start:
            yield k, t_lo


def ref_segment_crossings(start, direction, include_lo=False):
    """(family, k, point) in curve order, t in (0, 1) or [0, 1)."""
    x0, y0 = start
    dx, dy = direction
    out = []
    for family, c0, rate in (("h", y0, dy), ("v", x0, dx), ("d", x0 + y0, dx + dy)):
        for k, t in ref_line_hits(Fraction(c0), rate, Fraction(0), Fraction(1), include_lo):
            out.append((t, (family, k, (x0 + t * dx, y0 + t * dy))))
    out.sort(key=lambda e: e[0])
    return [c for _, c in out]


# Turns of a reference spiral end: the inner one gives every crossing of
# the outer one both of its neighbors.
REF_SPIRAL_WRAPS = 2


def ref_spiral_crossings(base, direction, ccw, at_end, interior_side_left, eps):
    """(family, k, point) of REF_SPIRAL_WRAPS whole turns, in curve order."""
    if at_end:
        ref = ref_pseudo_angle((-direction[0], -direction[1]))
    else:
        ref = ref_pseudo_angle(direction)
    offsets = []
    for u, ang in plane._INCIDENT_DIRS:
        off = Fraction((ang - ref) % 8 if ccw else (ref - ang) % 8)
        if off == 0:
            if at_end:
                include_first = interior_side_left if ccw else not interior_side_left
                off = Fraction(0) if include_first else Fraction(8)
            else:
                off = Fraction(8)
        for w in range(REF_SPIRAL_WRAPS):
            offsets.append((off + 8 * w, u))
    offsets.sort(key=lambda e: e[0])
    out = []
    for rank, (_, u) in enumerate(offsets):
        delta = eps / 2 ** rank
        point = (base[0] + delta * u[0], base[1] + delta * u[1])
        if u[1] == 0:
            family, k = "h", base[1]
        elif u[0] == 0:
            family, k = "v", base[0]
        else:
            family, k = "d", base[0] + base[1]
        out.append((family, k, point))
    if not at_end:
        out.reverse()
    return out


def offset_sort_spiral_crossings(base, direction, ccw, at_end, interior_side_left, eps, den):
    """The two outermost crossings of a spiral end as ``plane.spiral_crossings``
    found them before its scan: the six modular offsets from the travel
    direction's pseudo-angle, sorted, the two smallest kept."""
    n, q = plane.pseudo_angle((-direction[0], -direction[1]) if at_end else direction)
    offsets = []
    for u, ang in plane._INCIDENT_DIRS:
        off = (ang * q - n) % (8 * q) if ccw else (n - ang * q) % (8 * q)
        if off == 0:
            if at_end:
                include_first = interior_side_left if ccw else not interior_side_left
                off = 0 if include_first else 8 * q
            else:
                off = 8 * q
        offsets.append((off, u))
    offsets.sort()
    crossings = [plane._dir_crossing(base, u, den, eps >> rank)
                 for rank, (_, u) in enumerate(offsets[:2])]
    if not at_end:
        crossings.reverse()
    return crossings


def ref_quad_cycle(family, k, point):
    fl = math.floor
    if family == "h":
        j = fl(point[0])
        return ((j, k), (j + 1, k - 1), (j + 1, k), (j, k + 1))
    if family == "v":
        j = fl(point[1])
        return ((k, j), (k + 1, j), (k, j + 1), (k - 1, j + 1))
    j = fl(point[0])
    return ((j, k - j), (j, k - j - 1), (j + 1, k - j - 1), (j + 1, k - j))


def ref_on_segment(p, a, b):
    (ax, ay), (bx, by), (px, py) = a, b, p
    if (bx - ax) * (py - ay) != (by - ay) * (px - ax):
        return False
    dot = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
    return 0 <= dot <= (bx - ax) ** 2 + (by - ay) ** 2


def ref_score_crossing(family, k, point, entry, exit):
    if entry is None or exit is None:
        return 0
    U, A, V, B = ref_quad_cycle(family, k, point)
    e_adj = x_adj = None
    for p, q, adj in ((U, A, U), (A, V, V), (V, B, V), (B, U, U)):
        if e_adj is None and ref_on_segment(entry, p, q):
            e_adj = adj
        if x_adj is None and ref_on_segment(exit, p, q):
            x_adj = adj
    if e_adj is None or x_adj is None:
        raise InternalError("off the quad boundary")
    if e_adj == x_adj:
        return 0
    cr = ((exit[0] - entry[0]) * (e_adj[1] - entry[1])
          - (exit[1] - entry[1]) * (e_adj[0] - entry[0]))
    if cr == 0:
        raise InternalError("degenerate sign test")
    return 1 if cr < 0 else -1


# ---------------------------------------------------------------------------

# the kernel's families 0, 1, 2 are the reference's "h", "v", "d"
FAMILIES = "hvd"


def slot(family: str, k: int) -> int:
    """The coordinate a crossing of line k of a family adds to."""
    return FAMILIES.index(family) + 3 * (k % 2)


def as_fractions(c, den: int):
    """A kernel crossing (t, family, k, x, y) as a reference crossing."""
    _, f, k, x, y = c
    return (FAMILIES[f], k, (Fraction(x, den), Fraction(y, den)))


def score_or_error(score, *args):
    """score(*args), or the InternalError it raised, by its kind."""
    try:
        return score(*args)
    except InternalError as e:
        kind = "degenerate sign test" if "degenerate sign test" in str(e) else \
            "off the quad boundary"
        return f"InternalError: {kind}"


def kernel_score(c, entry, exit, den: int) -> int:
    """The score ``accumulate`` gives c on the open path entry, c, exit
    (a None neighbor leaves c at an end of the path)."""
    before, after = [None if p is None else (0, 0, 0, *p) for p in (entry, exit)]
    vec = plane.accumulate([x for x in (before, c, after) if x is not None], den)
    i = slot(FAMILIES[c[1]], c[2])
    assert all(v == 0 for j, v in enumerate(vec) if j != i), vec
    return vec[i]


def ref_total(crossings, scores):
    """Reference scores of Fraction crossings summed by slot, or the
    first InternalError along the path if any of them raised."""
    errors = [s for s in scores if isinstance(s, str)]
    if errors:
        return errors[0]
    vec = [0] * 6
    for (family, k, _), score in zip(crossings, scores):
        vec[slot(family, k)] += score
    return vec


def lift_den(q, direction):
    """A denominator that makes every crossing of a start with
    denominator q and this direction exact."""
    dx, dy = direction
    return q * math.prod(abs(f) for f in (dx, dy, dx + dy) if f)


coord = st.integers(-40, 40)
direction = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda d: d != (0, 0))


class TestSegmentCrossings:
    @settings(max_examples=300)
    @given(coord, coord, st.integers(1, 12), direction, st.booleans())
    def test_matches_fraction_reference(self, px, py, q, d, include_lo):
        den = lift_den(q, d)
        m = den // q
        got = plane.segment_crossings((px * m, py * m), d, den, include_lo)
        start = (Fraction(px, q), Fraction(py, q))
        want = ref_segment_crossings(start, d, include_lo)
        assert [as_fractions(c, den) for c in got] == want
        # and each crossing scores the same between its neighbors
        pts = [c[3:] for c in got]
        ref_pts = [point for _, _, point in want]
        scores = [score_or_error(ref_score_crossing, *ref, entry, exit)
                  for ref, entry, exit in zip(want, [None] + ref_pts[:-1], ref_pts[1:] + [None])]
        for c, entry, exit, score in zip(got, [None] + pts[:-1], pts[1:] + [None], scores):
            assert score_or_error(kernel_score, c, entry, exit, den) == score
        # [0, 1) is one period of the line under the shift by d: on the
        # cyclic path the end crossings take neighbors shifted by it
        if include_lo and got:
            sx, sy = d[0] * den, d[1] * den
            entries = [(pts[-1][0] - sx, pts[-1][1] - sy)] + pts[:-1]
            exits = pts[1:] + [(pts[0][0] + sx, pts[0][1] + sy)]
            ref_entries = [(ref_pts[-1][0] - d[0], ref_pts[-1][1] - d[1])] + ref_pts[:-1]
            ref_exits = ref_pts[1:] + [(ref_pts[0][0] + d[0], ref_pts[0][1] + d[1])]
            for i in {0, len(got) - 1}:
                scores[i] = score_or_error(ref_score_crossing, *want[i],
                                           ref_entries[i], ref_exits[i])
                assert score_or_error(kernel_score, got[i], entries[i], exits[i], den) \
                    == scores[i]
            assert score_or_error(plane.accumulate, got, den, d) == ref_total(want, scores)

    def test_include_lo_takes_the_start_level(self):
        # start on y = 0 and x + y = 0 at the origin, moving into the plane
        got = plane.segment_crossings((0, 0), (2, 3), 30, include_lo=True)
        assert got[:3] == [(0, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 2, 0, 0, 0)]
        assert all(c[3:] != (0, 0) for c in plane.segment_crossings((0, 0), (2, 3), 30))

    def test_negative_directions(self):
        den = lift_den(3, (-4, -1))
        got = plane.segment_crossings((den // 3, 2 * den // 3), (-4, -1), den)
        want = ref_segment_crossings((Fraction(1, 3), Fraction(2, 3)), (-4, -1))
        assert [as_fractions(c, den) for c in got] == want
        assert [k for _, f, k, _, _ in got if f == 1] == [0, -1, -2, -3]


SIX_DIRECTIONS = [u for u, _ in plane._INCIDENT_DIRS]


def outermost_two(ref, at_end):
    """The two outermost crossings of a reference spiral end, in curve
    order: a starting spiral runs from the inside out."""
    return ref[:2] if at_end else ref[-2:]


def check_spiraling_lift(d, base, ccw0, ccw1):
    """The kernel's lift of the spiraling curve along d from base, spiral,
    segment and spiral built as the shear oracle builds them, against the
    Fraction reference lift with two whole turns at each end."""
    a, b = d
    eps = 2 * math.prod(abs(f) for f in (a, b, a + b) if f)
    den = 8 * (abs(a) + abs(b) + 2) ** 2 * eps
    tip = (base[0] + a, base[1] + b)
    got = (plane.spiral_crossings(base, d, ccw0, False, ccw0, eps, den)
           + plane.segment_crossings((base[0] * den, base[1] * den), d, den)
           + plane.spiral_crossings(tip, d, ccw1, True, ccw0, eps, den))
    first = ref_spiral_crossings(base, d, ccw0, False, ccw0, Fraction(eps, den))
    segment = ref_segment_crossings(base, d)
    last = ref_spiral_crossings(tip, d, ccw1, True, ccw0, Fraction(eps, den))
    assert [as_fractions(c, den) for c in got] == \
        outermost_two(first, False) + segment + outermost_two(last, True)
    want = first + segment + last
    pts = [point for _, _, point in want]
    scores = [ref_score_crossing(*ref, entry, exit)
              for ref, entry, exit in zip(want, [None] + pts[:-1], pts[1:] + [None])]
    # every reference crossing of rank >= 1 scores 0 on its own
    deep = scores[:len(first) - 1] + scores[len(want) - len(last) + 1:]
    assert deep == [0] * len(deep)
    assert plane.accumulate(got, den) == ref_total(want, scores)


class TestSpiralCrossings:
    @pytest.mark.parametrize("d", SIX_DIRECTIONS + [(2, 3), (-3, 5), (1, -4)])
    def test_matches_fraction_reference(self, d):
        eps = 2 * 7
        den = 8 * 9 * eps
        for base in ((0, 0), (-3, 2)):
            for ccw, at_end, side in itertools.product((False, True), repeat=3):
                got = plane.spiral_crossings(base, d, ccw, at_end, side, eps, den)
                want = ref_spiral_crossings(base, d, ccw, at_end, side, Fraction(eps, den))
                assert [as_fractions(c, den) for c in got] == outermost_two(want, at_end), \
                    (base, ccw, at_end, side)

    def test_scan_matches_offset_sort(self):
        # every direction with |dx|, |dy| <= 8, the six arc directions and
        # their multiples among them, under every ccw, at_end and side
        eps, den = 2 * 7, 8 * 9 * 2 * 7
        for d in itertools.product(range(-8, 9), repeat=2):
            if d == (0, 0):
                continue
            for base in ((0, 0), (1, -2)):
                for flags in itertools.product((False, True), repeat=3):
                    assert plane.spiral_crossings(base, d, *flags, eps, den) == \
                        offset_sort_spiral_crossings(base, d, *flags, eps, den), (d, base, flags)

    def test_integer_pseudo_angle(self):
        for v in itertools.product(range(-9, 10), repeat=2):
            if v != (0, 0):
                n, q = plane.pseudo_angle(v)
                assert q > 0 and Fraction(n, q) == ref_pseudo_angle(v), v
        for u, ang in plane._INCIDENT_DIRS:
            n, q = plane.pseudo_angle(u)
            assert Fraction(n, q) == ang
        with pytest.raises(ValueError):
            plane.pseudo_angle((0, 0))

    def test_spiraling_lifts_up_to_height_six(self):
        spiraling = [c for c in curves.enumerate_curves(6) if not c.is_closed]
        for c in spiraling:
            (p, p_dir), (_, q_dir) = c.ends
            check_spiraling_lift(c.slope.vector, (p.i, p.j),
                                 p_dir is SpiralDir.CCW, q_dir is SpiralDir.CCW)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.one_of(st.sampled_from(SIX_DIRECTIONS),
                     st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)).filter(
                         lambda d: math.gcd(*d) == 1)),
           st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]), st.booleans(), st.booleans())
    def test_spiraling_lift_matches_fraction_reference(self, d, base, ccw0, ccw1):
        check_spiraling_lift(d, base, ccw0, ccw1)

    def test_offsets_shrink_by_halves_toward_the_puncture(self):
        eps = 2 ** 11
        got = plane.spiral_crossings((1, 1), (2, 1), True, True, True, eps, 2 ** 14)
        dist = [max(abs(x - 2 ** 14), abs(y - 2 ** 14)) for _, _, _, x, y in got]
        assert dist == [eps, eps >> 1]


class TestQuadCycle:
    @pytest.mark.parametrize("family,k,point", [
        ("h", -1, (Fraction(-1, 3), Fraction(-1))),
        ("h", 2, (Fraction(-7, 2), Fraction(2))),
        ("v", -3, (Fraction(-3), Fraction(-5, 4))),
        ("d", -2, (Fraction(-1, 3), Fraction(-5, 3))),
        ("d", 1, (Fraction(-5, 2), Fraction(7, 2))),
    ])
    def test_floor_at_negative_coordinates(self, family, k, point):
        den = 12
        c = (0, FAMILIES.index(family), k, int(point[0] * den), int(point[1] * den))
        # enter through the middle of side (B,U) and leave through the
        # middle of (A,V) of the reference quad: off any other cell
        U, A, V, B = ref_quad_cycle(family, k, point)
        entry, exit = [(Fraction(p[0] + q[0], 2), Fraction(p[1] + q[1], 2))
                       for p, q in ((B, U), (A, V))]
        score = kernel_score(c, tuple(int(x * den) for x in entry),
                             tuple(int(x * den) for x in exit), den)
        assert score == ref_score_crossing(family, k, point, entry, exit) != 0
        # truncation toward zero would give another cell
        j = ref_quad_cycle(family, k, point)[0]
        assert j != ref_quad_cycle(family, k, tuple(Fraction(int(x)) for x in point))[0]


class TestScoreErrors:
    # the horizontal arc from (0, 0) to (1, 0), crossed at (1/2, 0); its
    # quad is U=(0,0), A=(1,-1), V=(1,0), B=(0,1)
    DEN = 4
    C = (0, 0, 0, 2, 0)

    def test_neighbor_off_the_quad(self):
        with pytest.raises(InternalError, match="off the quad boundary"):
            kernel_score(self.C, (40, 40), (4, 2), self.DEN)
        with pytest.raises(InternalError, match="off the quad boundary"):
            kernel_score(self.C, (0, 2), (-8, -8), self.DEN)
        # on the line x = 1 of side (A,V), but above its span
        with pytest.raises(InternalError, match="off the quad boundary"):
            kernel_score(self.C, (4, 2), (0, 2), self.DEN)

    def test_degenerate_sign_test(self):
        # entering at the corner U itself leaves no side to test against
        with pytest.raises(InternalError, match="degenerate sign test"):
            kernel_score(self.C, (0, 0), (4, -2), self.DEN)

    def test_scores(self):
        # between sides (B, U) and (A, V) the score is +1 either way,
        # between (U, A) and (V, B) it is -1
        assert kernel_score(self.C, (0, 2), (4, -2), self.DEN) == 1
        assert kernel_score(self.C, (4, -2), (0, 2), self.DEN) == 1
        assert kernel_score(self.C, (2, -2), (2, 2), self.DEN) == -1
        # both neighbors on sides adjacent to U: 0
        assert kernel_score(self.C, (0, 2), (2, -2), self.DEN) == 0
        assert kernel_score(self.C, None, (2, -2), self.DEN) == 0

    @pytest.mark.parametrize("entry,exit", [
        ((4, -4), (4, -2)),  # A is on (U,A) before (A,V): next to U
        ((0, 4), (0, 2)),    # B is on (V,B) before (B,U): next to V
    ])
    def test_corners_take_the_first_side(self, entry, exit):
        ref = ref_score_crossing("h", 0, (Fraction(1, 2), 0),
                                 *[(Fraction(x, self.DEN), Fraction(y, self.DEN))
                                   for x, y in (entry, exit)])
        assert kernel_score(self.C, entry, exit, self.DEN) == ref == -1


# ---------------------------------------------------------------------------
# Whole paths: walks across the triangles of the arrangement
# ---------------------------------------------------------------------------

# V - U of an arc of each family
ARC_STEP = ((1, 0), (0, 1), (1, -1))
# where a walk puts its next point on the arc U -> V, at U + t(V - U):
# on an end (so that a neighbor can sit on a corner of a quadrilateral) or
# inside the arc; or off the quadrilateral, on the arc's line past an end
ON_ARC = tuple(Fraction(n, 12) for n in (0, 3, 4, 6, 8, 9, 12))
PAST_ENDS = (Fraction(-1, 2), Fraction(-1, 4), Fraction(5, 4), Fraction(3, 2))
WALK_DEN = 12
walk_steps = st.lists(st.tuples(st.integers(0, 3), st.sampled_from(ON_ARC * 6 + PAST_ENDS)),
                      min_size=1, max_size=12)


def arc_crossing(p, q, t):
    """The reference crossing at U + t(V - U) of the lattice arc pq."""
    d = (q[0] - p[0], q[1] - p[1])
    U, f = (p, ARC_STEP.index(d)) if d in ARC_STEP else (q, ARC_STEP.index((-d[0], -d[1])))
    k = (U[1], U[0], U[0] + U[1])[f]
    return FAMILIES[f], k, (U[0] + t * ARC_STEP[f][0], U[1] + t * ARC_STEP[f][1])


def walk(steps):
    """Reference crossings from the middle of the arc (0, 0)-(1, 0): each
    step (side, t) crosses that side of the last crossing's quadrilateral,
    so the next crossing lies on that quadrilateral's boundary unless the
    step puts it past the ends of the side."""
    path = [arc_crossing((0, 0), (1, 0), Fraction(1, 2))]
    for side, t in steps:
        quad = ref_quad_cycle(*path[-1])
        path.append(arc_crossing(quad[side], quad[(side + 1) % 4], t))
    return path


def closed_walk(steps):
    """One period of a closed path: the walk up to its first later crossing
    of a translate of its first arc, whose lattice vector is the period;
    None if there is no such crossing.  The crossing before it takes the
    first crossing, shifted by the period, as its next neighbor."""
    path = walk(steps)
    start = ref_quad_cycle(*path[0])[0]
    for j in range(2, len(path)):
        U = ref_quad_cycle(*path[j])[0]
        period = (U[0] - start[0], U[1] - start[1])
        if path[j][0] == path[0][0] and period != (0, 0):
            return path[:j], period
    return None


def check_path(path, period=None):
    """``accumulate`` on a whole path of reference crossings against the
    reference, crossing by crossing and summed; returns the sum or the
    first InternalError."""
    def over_den(p):
        return None if p is None else (int(p[0] * WALK_DEN), int(p[1] * WALK_DEN))

    got = [(0, FAMILIES.index(f), k, *over_den(p)) for f, k, p in path]
    pts = [p for _, _, p in path]
    if period is None:
        entries, exits = [None] + pts[:-1], pts[1:] + [None]
    else:
        (px, py), (x0, y0), (x1, y1) = period, pts[0], pts[-1]
        entries, exits = [(x1 - px, y1 - py)] + pts[:-1], pts[1:] + [(x0 + px, y0 + py)]
    scores = [score_or_error(ref_score_crossing, *c, entry, exit)
              for c, entry, exit in zip(path, entries, exits)]
    for c, entry, exit, score in zip(got, entries, exits, scores):
        assert score_or_error(kernel_score, c, over_den(entry), over_den(exit), WALK_DEN) \
            == score
    total = score_or_error(plane.accumulate, got, WALK_DEN, period)
    assert total == ref_total(path, scores)
    return total


class TestWholePaths:
    @settings(max_examples=400, derandomize=True)
    @given(walk_steps)
    def test_open_walks_match_fraction_reference(self, steps):
        check_path(walk(steps))

    @settings(max_examples=400, derandomize=True)
    @given(walk_steps)
    def test_closed_walks_match_fraction_reference(self, steps):
        closed = closed_walk(steps)
        if closed is not None:
            check_path(*closed)

    @settings(max_examples=400, derandomize=True)
    @given(walk_steps)
    def test_open_walks_split_at_two_consecutive_crossings(self, steps):
        # a crossing scores from its two neighbors alone, so a path scores
        # as its part up to crossing i + 1 plus its part from crossing i:
        # the split by which the shear oracle scores a memoised segment
        path = [(0, FAMILIES.index(f), k, int(x * WALK_DEN), int(y * WALK_DEN))
                for f, k, (x, y) in walk(steps)]
        whole = score_or_error(plane.accumulate, path, WALK_DEN)
        for i in range(len(path)):
            first = score_or_error(plane.accumulate, path[:i + 2], WALK_DEN)
            if isinstance(first, str):
                # the first failing crossing of the path fails in the first
                # part that holds it, with the same neighbors
                assert first == whole
                continue
            last = score_or_error(plane.accumulate, path[i:], WALK_DEN)
            if isinstance(last, str):
                assert last == whole
            else:
                assert [x + y for x, y in zip(first, last)] == whole

    @pytest.mark.parametrize("steps,closed,error", [
        ([(0, Fraction(1, 2)), (0, Fraction(3, 2))], False, "off the quad boundary"),
        ([(2, Fraction(1, 2)), (0, Fraction(0))], False, "degenerate sign test"),
        ([(0, Fraction(1, 2)), (1, Fraction(3, 2))], True, "off the quad boundary"),
        ([(2, Fraction(0)), (3, Fraction(1, 2))], True, "degenerate sign test"),
    ])
    def test_internal_errors_on_whole_paths(self, steps, closed, error):
        path = closed_walk(steps) if closed else (walk(steps),)
        assert check_path(*path) == f"InternalError: {error}"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_neighbors_on_corners_take_the_first_side(self, family):
        # a neighbor on corner A lies on (U,A) and (A,V), one on B on (V,B)
        # and (B,U); the other neighbor is on a corner or a side's middle
        f, (ux, uy) = FAMILIES.index(family), (2, -1)
        c = arc_crossing((ux, uy), (ux + ARC_STEP[f][0], uy + ARC_STEP[f][1]), Fraction(1, 2))
        quad = ref_quad_cycle(*c)
        others = list(quad) + [(Fraction(p[0] + q[0], 2), Fraction(p[1] + q[1], 2))
                               for p, q in zip(quad, quad[1:] + quad[:1])]
        totals = [check_path([("h", 0, entry), c, ("h", 0, exit)])
                  for corner in (quad[1], quad[3]) for other in others
                  for entry, exit in ((corner, other), (other, corner))]
        # a corner counts on (U,A) or (V,B), so no path scores +1 here
        assert {t[f + 3 * (c[1] % 2)] for t in totals if not isinstance(t, str)} == {-1, 0}
