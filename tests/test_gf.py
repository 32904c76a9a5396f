"""Tests for exact GF(p) linear algebra."""

import itertools
import random

import numpy as np
import pytest

from cdskit.gf import (
    GfMatrix,
    _rref_array,
    hstack,
    is_prime,
    left_kernel,
    rank,
    rowspace_intersection_basis,
    rowspace_intersection_dim,
    vstack,
)


def rref(m: GfMatrix) -> tuple[GfMatrix, tuple[int, ...]]:
    """The reduced row echelon form that kernels and intersection bases
    are read from, and its pivot columns."""
    red, pivots = _rref_array(m.data, m.p)
    return GfMatrix(m.p, red), tuple(pivots)


def span_of(m: GfMatrix) -> set[tuple[int, ...]]:
    """Brute-force row space: every linear combination of the rows.

    Independent oracle for rank: |span| = p^rank.
    """
    vectors = {tuple([0] * m.cols)}
    for coeffs in itertools.product(range(m.p), repeat=m.rows):
        v = np.zeros(m.cols, dtype=np.int64)
        for c, row in zip(coeffs, m.data):
            v = (v + c * row) % m.p
        vectors.add(tuple(int(x) for x in v))
    return vectors


def brute_rank(m: GfMatrix) -> int:
    size = len(span_of(m))
    r = 0
    while m.p**r < size:
        r += 1
    assert m.p**r == size, "row space size is not a power of p"
    return r


def random_matrix(rng: random.Random, p: int, rows: int, cols: int) -> GfMatrix:
    return GfMatrix.from_rows(
        p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], cols
    )


class TestConstruction:
    def test_rejects_nonprime_modulus(self):
        with pytest.raises(ValueError):
            GfMatrix.from_rows(4, [[1, 2]])

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            GfMatrix(3, np.array([[0, 5]]))

    def test_from_rows_reduces_mod_p(self):
        m = GfMatrix.from_rows(5, [[7, -1]])
        assert m.to_lists() == [[2, 4]]

    def test_empty_matrices_are_legal(self):
        assert rank(GfMatrix.zeros(2, 0, 3)) == 0
        assert rank(GfMatrix.zeros(2, 3, 0)) == 0

    def test_is_prime(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


class TestRank:
    def test_identity_gf2(self):
        assert rank(GfMatrix.identity(2, 3)) == 3

    def test_duplicate_rows_gf2(self):
        assert rank(GfMatrix.from_rows(2, [[1, 1], [1, 1]])) == 1

    def test_dependent_rows_gf5(self):
        # row2 = 2*row1, so only rows 1 and 3 contribute.
        m = GfMatrix.from_rows(5, [[1, 2], [2, 4], [0, 1]])
        assert rank(m) == 2
        assert brute_rank(m) == 2


class TestRref:
    def test_zero_matrix(self):
        red, pivots = rref(GfMatrix.zeros(3, 2, 2))
        assert red == GfMatrix.zeros(3, 2, 2)
        assert pivots == ()

    def test_invertible_diagonal_gf5(self):
        red, pivots = rref(GfMatrix.from_rows(5, [[2, 0], [0, 3]]))
        assert red == GfMatrix.identity(5, 2)
        assert pivots == (0, 1)

    def test_hand_elimination_gf2(self):
        red, pivots = rref(GfMatrix.from_rows(2, [[1, 1, 0], [1, 1, 1]]))
        assert red.to_lists() == [[1, 1, 0], [0, 0, 1]]
        assert pivots == (0, 2)

    def test_idempotent_and_rank_preserving(self):
        rng = random.Random(11)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            m = random_matrix(rng, p, rng.randrange(5), rng.randrange(1, 5))
            red, pivots = rref(m)
            again, pivots2 = rref(red)
            assert again == red and pivots2 == pivots
            assert rank(m) == len(pivots)
            assert span_of(red) == span_of(m)


class TestLeftKernel:
    def test_identity_has_empty_kernel(self):
        k = left_kernel(GfMatrix.identity(2, 3))
        assert k.rows == 0 and k.cols == 3

    def test_equal_rows_cancel_gf2(self):
        k = left_kernel(GfMatrix.from_rows(2, [[1, 1], [1, 1]]))
        assert k.to_lists() == [[1, 1]]

    def test_gf3_single_relation(self):
        # x.m = 0 means x1 + 2*x2 = 0 and x3 = 0; over GF(3) the solution
        # space is spanned by (1, 1, 0).
        m = GfMatrix.from_rows(3, [[1, 0], [2, 0], [0, 1]])
        k = left_kernel(m)
        assert k.rows == 1
        assert span_of(k) == span_of(GfMatrix.from_rows(3, [[1, 1, 0]]))

    def test_kernel_rows_annihilate(self):
        rng = random.Random(23)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            m = random_matrix(rng, p, rng.randrange(1, 5), rng.randrange(1, 5))
            k = left_kernel(m)
            assert k.rows == m.rows - rank(m)
            if k.rows:
                assert not ((k.data @ m.data) % p).any()


class TestRowspaceIntersection:
    def test_identical_full_rank(self):
        a = GfMatrix.identity(2, 2)
        assert rowspace_intersection_dim(a, a) == 2

    def test_complementary_lines(self):
        a = GfMatrix.from_rows(2, [[1, 0]])
        b = GfMatrix.from_rows(2, [[0, 1]])
        assert rowspace_intersection_dim(a, b) == 0
        assert rowspace_intersection_basis(a, b).rows == 0

    def test_coordinate_windows_share_four(self):
        # Coordinate subspaces on z0..z4 and z1..z5 inside GF(2)^9 meet in
        # the span of z1..z4.
        a = GfMatrix(2, np.eye(9, dtype=np.int64)[0:5])
        b = GfMatrix(2, np.eye(9, dtype=np.int64)[1:6])
        assert rowspace_intersection_dim(a, b) == 4
        basis = rowspace_intersection_basis(a, b)
        expected = GfMatrix(2, np.eye(9, dtype=np.int64)[1:5])
        assert span_of(basis) == span_of(expected)

    def test_identical_inputs_give_common_row_space(self):
        m = GfMatrix.from_rows(3, [[1, 2, 0], [0, 1, 1]])
        basis = rowspace_intersection_basis(m, m)
        assert span_of(basis) == span_of(m)

    def test_mismatch_errors(self):
        with pytest.raises(ValueError):
            rowspace_intersection_dim(
                GfMatrix.from_rows(2, [[1, 0]]), GfMatrix.from_rows(2, [[1]])
            )
        with pytest.raises(ValueError):
            rowspace_intersection_dim(
                GfMatrix.from_rows(2, [[1, 0]]), GfMatrix.from_rows(3, [[1, 0]])
            )

    def test_random_properties(self):
        rng = random.Random(37)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            cols = rng.randrange(1, 5)
            a = random_matrix(rng, p, rng.randrange(4), cols)
            b = random_matrix(rng, p, rng.randrange(4), cols)
            assert rank(vstack(a, b)) <= rank(a) + rank(b)
            d = rowspace_intersection_dim(a, b)
            assert d == rowspace_intersection_dim(b, a)
            basis = rowspace_intersection_basis(a, b)
            assert basis.rows == d
            # The basis lies in both row spaces: stacking it adds no rank.
            assert rank(vstack(a, basis)) == rank(a)
            assert rank(vstack(b, basis)) == rank(b)
            # Oracle: the intersection of the brute-force spans.
            common = span_of(a) & span_of(b)
            assert len(common) == p**d


class TestAgainstBruteForce:
    def test_rank_matches_enumeration(self):
        rng = random.Random(5)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            m = random_matrix(rng, p, rng.randrange(4), rng.randrange(1, 4))
            assert rank(m) == brute_rank(m)


def test_hstack_and_vstack_shapes():
    a = GfMatrix.from_rows(2, [[1, 0], [0, 1]])
    b = GfMatrix.from_rows(2, [[1, 1]])
    assert vstack(a, b).rows == 3
    assert hstack(a, GfMatrix.from_rows(2, [[1], [0]])).cols == 3
    with pytest.raises(ValueError):
        vstack(a, GfMatrix.from_rows(2, [[1]]))
