import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dd_oracle
from rref_oracle import rref
from spherelam.exactla import adjugate, dd_rays, dot, primitive, rank


class TestRank:
    def test_identity(self):
        assert rank([[1, 0], [0, 1]]) == 2

    def test_singular(self):
        assert rank([[1, 2], [2, 4]]) == 1

    def test_rectangular(self):
        assert rank([[1, 0, 0], [0, 1, 0]]) == 2
        assert rank([[1, 1], [2, 2], [3, 3]]) == 1


class TestInvertAdjugate:
    def test_inverse(self):
        # determinant 1: the adjugate is the inverse
        assert adjugate([[2, 1], [1, 1]]) == ([[1, -1], [-1, 2]], 1)

    def test_singular(self):
        assert adjugate([[1, 1], [1, 1]]) == (None, 0)

    def test_adjugate_identity(self):
        m = [[3, 1, 2], [0, 2, 1], [1, 0, 1]]
        adj, det = adjugate(m)
        n = len(m)
        prod = [
            [sum(adj[i][k] * m[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[det if i == j else 0 for j in range(n)] for i in range(n)]


class TestPrimitive:
    def test_integers(self):
        assert primitive((2, 4, -6)) == (1, 2, -3)

    def test_fractions(self):
        # every caller passes integers; a rational must not be scaled silently
        with pytest.raises(TypeError):
            primitive((Fraction(1, 2), Fraction(1, 3)))

    def test_zero(self):
        assert primitive((0, 0, 0)) == (0, 0, 0)
        assert primitive(()) == ()

    def test_sign_preserved(self):
        assert primitive((-2, 0, 4)) == (-1, 0, 2)


class TestDoubleDescription:
    def test_orthant(self):
        rays, lines = dd_rays([[1, 0], [0, 1]])
        assert not lines
        assert set(rays) == {(1, 0), (0, 1)}

    def test_halfplane_has_lineality(self):
        rays, lines = dd_rays([[1, 0]], dim=2)
        assert set(rays) == {(1, 0)}
        assert len([l for l in lines if any(l)]) == 1

    def test_equality_slice(self):
        # x >= 0, y >= 0, z >= 0, x + y = z: a 2-dimensional cone
        rays, lines = dd_rays(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]], eqs=[[1, 1, -1]]
        )
        assert not [l for l in lines if any(l)]
        assert set(rays) == {(1, 0, 1), (0, 1, 1)}

    def test_point_cone(self):
        rays, lines = dd_rays([[1, 0], [-1, 0], [0, 1], [0, -1]])
        assert not rays
        assert not [l for l in lines if any(l)]

    def test_null_space_via_equalities(self):
        rays, lines = dd_rays([], eqs=[[1, 1, 0], [0, 1, 1]], dim=3)
        assert not rays
        nontrivial = [l for l in lines if any(l)]
        assert len(nontrivial) == 1
        assert nontrivial[0] in ((1, -1, 1), (-1, 1, -1))

    def test_simplicial_3d(self):
        # cone over a triangle: inequalities from the rows of the inverse
        # of the generator matrix (the adjugate, signed by the determinant)
        # recover the generators as extreme rays
        gens = [(1, 0, 0), (1, 2, 0), (1, 1, 3)]
        cols = [list(c) for c in zip(*gens)]
        adj, det = adjugate(cols)
        ineqs = [primitive([det * x for x in row]) for row in adj]
        rays, lines = dd_rays(ineqs)
        assert not [l for l in lines if any(l)]
        assert set(rays) == {primitive(g) for g in gens}


# ---------------------------------------------------------------------------
# Property tests of the Bareiss kernel against plain Fraction elimination
# (tests/rref_oracle.py)
# ---------------------------------------------------------------------------


def _leibniz_det(m):
    """Oracle: determinant as a signed sum over permutations."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


@st.composite
def int_matrices(draw, square=False):
    """Integer matrices up to 6 x 7 with entries in [-9, 9], about half of
    them 0 so that pivots need row swaps; rows are often copies, negations
    or zeros of earlier rows, and columns copies of earlier columns, so
    singular and rank-deficient inputs are common."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 7))
    entries = st.just(0) | st.integers(-9, 9)
    m = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
         for _ in range(nrows)]
    for i in range(1, nrows):
        how = draw(st.sampled_from(("keep", "keep", "copy", "negate", "zero")))
        j = draw(st.integers(0, i - 1))
        if how == "copy":
            m[i] = list(m[j])
        elif how == "negate":
            m[i] = [-x for x in m[j]]
        elif how == "zero":
            m[i] = [0] * ncols
    for c in range(1, ncols):
        if draw(st.integers(0, 5)) == 0:
            src = draw(st.integers(0, c - 1))
            for row in m:
                row[c] = row[src]
    return m


class TestKernelProperties:
    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    def test_rank(self, m):
        assert rank(m) == len(rref(m)[1])

    @settings(max_examples=300, deadline=None)
    @given(int_matrices(square=True))
    def test_invert_and_adjugate(self, m):
        n = len(m)
        det = _leibniz_det(m)
        red, pivots = rref([row + [int(i == j) for j in range(n)]
                            for i, row in enumerate(m)])
        if det == 0:
            assert pivots[:n] != list(range(n))
            assert adjugate(m) == (None, 0)
            return
        inverse = [row[n:] for row in red]
        adj, got_det = adjugate(m)
        assert got_det == det
        assert adj == [[det * x for x in row] for row in inverse]
        assert all(isinstance(x, int) for row in adj for x in row)
        prod = [[sum(adj[i][k] * m[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[det if i == j else 0 for j in range(n)] for i in range(n)]

    def test_rejects_non_integers(self):
        # the kernel divides with //, so a Fraction or float must not slip in
        with pytest.raises(TypeError):
            rank([[Fraction(1, 2), 1]])
        with pytest.raises(TypeError):
            adjugate([[1.0, 0], [0, 1]])
        # nor into the double description and its helpers
        with pytest.raises(TypeError):
            dd_rays([[1, Fraction(1, 2)]])
        with pytest.raises(TypeError):
            dd_rays([], eqs=[[0.5, 1]])
        with pytest.raises(TypeError):
            dot((1, 2), (Fraction(1, 2), 1))
        with pytest.raises(TypeError):
            dot((1.0, 2), (1, 1))
        with pytest.raises(TypeError):
            primitive((2.0, 4))


# ---------------------------------------------------------------------------
# The integer double description against the Fraction one it replaced
# ---------------------------------------------------------------------------


@st.composite
def int_systems(draw):
    """(ineqs, eqs, dim) of dimension 2 to 5 with entries in [-3, 3]: often
    fewer rows than the dimension, so lines remain; rows are often copies
    or negations of earlier ones, and either part may be empty."""
    dim = draw(st.integers(2, 5))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    ineqs = draw(st.lists(row, max_size=7))
    for i in range(1, len(ineqs)):
        how = draw(st.sampled_from(("keep", "keep", "copy", "negate")))
        j = draw(st.integers(0, i - 1))
        if how == "copy":
            ineqs[i] = list(ineqs[j])
        elif how == "negate":
            ineqs[i] = [-x for x in ineqs[j]]
    eqs = draw(st.lists(row, max_size=2))
    given_dim = draw(st.sampled_from((dim, None))) if ineqs or eqs else dim
    return ineqs, eqs, given_dim


class TestDoubleDescriptionOracle:
    @settings(max_examples=300, deadline=None)
    @given(int_systems())
    def test_matches_fraction_dd(self, system):
        ineqs, eqs, dim = system
        rays, lines = dd_rays(ineqs, eqs=eqs, dim=dim)
        assert (rays, lines) == dd_oracle.dd_rays(ineqs, eqs=eqs, dim=dim)
        # lines need no zero filter: they stay independent
        assert not lines or rank(lines) == len(lines)

    def test_empty_input(self):
        assert dd_rays([], dim=3) == dd_oracle.dd_rays([], dim=3) == (
            [], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert dd_rays([]) == dd_oracle.dd_rays([]) == ([], [])
