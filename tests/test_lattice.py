import itertools

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from object_oracle import triple_to_basis
from spherelam import lattice
from spherelam.errors import MalformedInput, NotFareyNeighbors, NotFareyTriple, ZeroVector
from spherelam.lattice import (
    INF,
    MINUS_ONE,
    ZERO,
    Slope,
    _slope_sorted,
    enumerate_slopes,
    farey1_triples,
    farey_distance,
    is_farey1_triple,
    mediant,
    separating_neighbors,
    standard_form,
    standard_vector,
)


def S(text):
    return Slope.parse(text)


class TestStandardForm:
    def test_gcd_reduction(self):
        assert standard_form(4, 6) == Slope(2, 3)

    def test_vertical(self):
        assert standard_form(0, -7) == Slope(0, 1)

    def test_already_standard(self):
        assert standard_form(5, -2) == Slope(5, -2)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            standard_form(0, 0)

    def test_negative_first_component(self):
        assert standard_form(-3, 2) == Slope(3, -2)

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 5))
    def test_scale_invariant(self, p, q, k):
        if p == 0 and q == 0:
            return
        assert standard_form(p * k, q * k) == standard_form(p, q)

    def test_vector(self):
        assert standard_vector(-4, 6) == (2, -3)
        assert standard_vector(0, -7) == (0, 1)
        with pytest.raises(ZeroVector):
            standard_vector(0, 0)

    def test_invalid_slope_rejected(self):
        with pytest.raises(ValueError):
            Slope(2, 4)
        with pytest.raises(ValueError):
            Slope(0, 3)
        with pytest.raises(ValueError):
            Slope(-1, 1)


class TestFarey:
    def test_unit_basis(self):
        assert farey_distance(ZERO, INF) == 1

    def test_distance_two(self):
        assert farey_distance(Slope(1, 1), Slope(1, 3)) == 2

    def test_distance_one(self):
        # |2*1 - 3*1| = 1 for slopes 3/2 and 1/1
        assert farey_distance(Slope(2, 3), Slope(1, 1)) == 1

    @given(st.integers(-20, 20), st.integers(-20, 20),
           st.integers(-20, 20), st.integers(-20, 20))
    def test_symmetric(self, p, q, r, s):
        if (p == 0 and q == 0) or (r == 0 and s == 0):
            return
        x, y = standard_form(p, q), standard_form(r, s)
        assert farey_distance(x, y) == farey_distance(y, x)
        assert farey_distance(x, x) == 0

    def test_triples(self):
        assert is_farey1_triple(ZERO, INF, MINUS_ONE)
        assert is_farey1_triple(ZERO, INF, Slope(1, 1))
        assert not is_farey1_triple(ZERO, INF, Slope(1, 2))

    @pytest.mark.parametrize("h", range(1, 9))
    def test_farey1_triples_match_the_combinations_filter(self, h):
        for pool in (enumerate_slopes(h), enumerate_slopes(h)[::-1]):
            # the former scan over all slope triples, kept as the oracle
            oracle = [t for t in itertools.combinations(pool, 3) if is_farey1_triple(*t)]
            assert farey1_triples(pool) == oracle


class TestMediant:
    def test_zero_inf(self):
        assert mediant(ZERO, INF) == Slope(1, 1)

    def test_one_inf(self):
        assert mediant(Slope(1, 1), INF) == Slope(1, 2)

    def test_componentwise(self):
        m = mediant(Slope(2, 3), Slope(1, 1))
        assert m == Slope(3, 4)
        assert farey_distance(m, Slope(2, 3)) == 1
        assert farey_distance(m, Slope(1, 1)) == 1

    def test_rejects_non_neighbors(self):
        with pytest.raises(NotFareyNeighbors):
            mediant(Slope(1, 1), Slope(1, 3))

    def test_strictly_between(self):
        for s, t in [(ZERO, INF), (Slope(1, 1), Slope(1, 2)), (MINUS_ONE, ZERO)]:
            m = mediant(s, t)
            lo, hi = min(s, t), max(s, t)
            assert lo < m < hi


class TestSlopeOrder:
    def test_inf_is_max(self):
        for s in enumerate_slopes(4):
            assert s <= INF

    def test_value_order(self):
        finite = [s for s in enumerate_slopes(3) if not s.is_infinite]
        by_value = sorted(finite, key=lambda s: Fraction(s.b, s.a))
        assert sorted(finite) == by_value

    def test_comparisons_match_value_order(self):
        # > and >= fall back on the reflected < and <=; Slope's order and
        # the vector sort _slope_sorted are one cross-product order, inf last
        def value(s):
            return (1, 0) if s.is_infinite else (0, Fraction(s.b, s.a))

        slopes = enumerate_slopes(12)
        for s, t in itertools.product(slopes, repeat=2):
            x, y = value(s), value(t)
            assert (s < t, s <= t, s > t, s >= t) == (x < y, x <= y, x > y, x >= y)
            assert (_slope_sorted([t.vector, s.vector]) == [s.vector, t.vector]) == (x <= y)
            assert min(s, t) == (s if x <= y else t)
            assert max(s, t) == (t if x <= y else s)
        by_value = sorted(slopes, key=value)
        assert by_value[-1] == INF
        assert sorted(slopes) == by_value
        assert _slope_sorted(s.vector for s in slopes) == [s.vector for s in by_value]
        assert _slope_sorted(s.vector for s in reversed(slopes)) == [s.vector for s in by_value]


#: spellings outside the slope grammar, which int() alone would accept or
#: reject with a bare ValueError
BAD_SLOPE_TEXTS = ["1_0/3", "\uff11/2", "1/\uff12", "1/2/3", "", " ", "3 / 2", "3/", "/3",
                   "+inf", "1.5", "0x10", "abc", "1/2x", "--1"]


class TestSlopeParse:
    @pytest.mark.parametrize("text,slope", [
        ("2/3", Slope(3, 2)), ("-1/1", MINUS_ONE), (" 3/2 ", Slope(2, 3)), ("+3/-2", Slope(2, -3)),
        ("4/6", Slope(3, 2)), ("0", ZERO), ("-0", ZERO), ("007", Slope(1, 7)), ("2/0", INF),
        ("inf", INF), ("-inf", INF), ("1/0", INF), ("-1/0", INF),
    ])
    def test_accepted(self, text, slope):
        assert Slope.parse(text) == slope

    def test_canonical_spellings_round_trip(self):
        for s in enumerate_slopes(6):
            assert Slope.parse(str(s)) == s

    @pytest.mark.parametrize("text", BAD_SLOPE_TEXTS)
    def test_outside_the_grammar(self, text):
        with pytest.raises(MalformedInput, match=r"\[\+-\]\?\[0-9\]\+"):
            Slope.parse(text)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            Slope.parse("0/0")

    def test_digit_cap(self):
        from spherelam.lattice import _MAX_DIGITS

        n = "9" * _MAX_DIGITS
        assert Slope.parse(f" -{n}/+{n[1:]}1 ") == Slope(int(n[1:] + "1"), -int(n))
        for text in (f"{n}0", f"1/-{n}0", f"0{n}/1"):
            with pytest.raises(MalformedInput, match=f"^an integer has at most {_MAX_DIGITS} "
                                                     f"digits, got {_MAX_DIGITS + 1}$"):
                Slope.parse(text)


class TestEnumerate:
    def test_height_one(self):
        assert set(enumerate_slopes(1)) == {INF, ZERO, Slope(1, 1), MINUS_ONE}

    def test_height_two_count(self):
        assert len(enumerate_slopes(2)) == 8

    def test_all_standard(self):
        for s in enumerate_slopes(5):
            assert standard_form(s.a, s.b) == s
            assert s.height <= 5

    def test_deterministic_order(self):
        assert enumerate_slopes(3) == enumerate_slopes(3)

    @pytest.mark.parametrize("h", [True, 2.5, 3.0, "3", None])
    def test_height_is_an_int(self, h):
        # 2.5 once ended in a bare TypeError, and True enumerated height 1
        with pytest.raises(ValueError, match="must be a positive int"):
            enumerate_slopes(h)


def brute_force_separating_ok(M, f, pair):
    lo, mid = pair
    if not is_farey1_triple(lo, mid, f):
        return False
    if not (lo < mid < f):
        return False
    return not any(lo <= q < f for q in M)


def loop_separating_neighbors(M, f):
    """The former descent, kept as a reference: one mediant step per pass,
    each pass scanning the slopes of M below f."""
    below = [q for q in set(M) if q < f]
    x = lattice._left_farey_neighbor(f)
    while any(x <= q for q in below):
        x = mediant(x, f)
    return x, mediant(x, f)


@st.composite
def slopes_up_to(draw, height):
    a = draw(st.integers(0, height))
    b = draw(st.integers(-height, height).filter(lambda b: a or b))
    return standard_form(a, b)


class TestSeparatingNeighbors:
    def test_example(self):
        M = {ZERO, Slope(1, 1)}
        pair = separating_neighbors(M, Slope(1, 1))
        assert brute_force_separating_ok(M, Slope(1, 1), pair)

    def test_singleton_inf(self):
        pair = separating_neighbors({INF}, INF)
        assert brute_force_separating_ok({INF}, INF, pair)

    def test_random_sets(self):
        import random

        rng = random.Random(7)
        pool = enumerate_slopes(6)
        for _ in range(100):
            M = set(rng.sample(pool, rng.randint(1, 8)))
            f = rng.choice(sorted(M))
            pair = separating_neighbors(M, f)
            assert brute_force_separating_ok(M, f, pair)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(slopes_up_to(5), slopes_up_to(1000)), min_size=1, max_size=8),
           st.data())
    def test_matches_the_loop(self, M, data):
        # f = inf has left neighbors x - k*f for every k, so a step count
        # below 0 would still give a slope there
        f = data.draw(st.one_of(st.sampled_from(M), st.just(INF), slopes_up_to(1000)))
        pair = separating_neighbors(M, f)
        assert pair == loop_separating_neighbors(M, f)
        assert brute_force_separating_ok(M, f, pair)

    def test_one_division_at_height_a_billion(self):
        # the loop would take n mediant steps past (n-1)/n toward 1/1
        n = 10**9
        M = {Slope(n, n - 1), Slope(1, 1)}
        pair = separating_neighbors(M, Slope(1, 1))
        assert pair == (Slope(n + 1, n), Slope(n + 2, n + 1))
        assert brute_force_separating_ok(M, Slope(1, 1), pair)


class TestTripleToBasis:
    """The basis change of type-I triangulations before the lattice frame,
    kept in ``object_oracle`` as the oracle of the shear and image tests."""

    def test_identity(self):
        m = triple_to_basis((ZERO, INF, MINUS_ONE))
        assert m.linear == ((1, 0), (0, 1))

    def test_unimodular(self):
        triples = farey1_triples(enumerate_slopes(3))
        assert triples
        for t in triples:
            m = triple_to_basis(t)
            assert abs(m.det) == 1
            assert {m.apply_slope(s) for s in t} == {ZERO, INF, MINUS_ONE}

    def test_explicit_map(self):
        m = triple_to_basis((Slope(2, 1), Slope(3, 2), Slope(1, 1)))
        assert m.apply_vector((2, 1)) == (1, 0)

    def test_rejects_non_triple(self):
        with pytest.raises(NotFareyTriple):
            triple_to_basis((ZERO, INF, Slope(1, 2)))
