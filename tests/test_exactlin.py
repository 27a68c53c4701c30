"""Exact linear algebra: worked examples and algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqftkit.exactlin import (
    Matrix,
    ShapeError,
    inverse,
    kron,
    matmul,
    matrix_from_json,
    matrix_to_json,
    rank,
    scalar_from_str,
    scalar_to_str,
    swap_matrix,
)

scalars = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)


def matrices(rows, cols):
    return st.lists(scalars, min_size=rows * cols, max_size=rows * cols).map(
        lambda xs: Matrix(rows, cols, xs)
    )


dims = st.integers(min_value=1, max_value=3)


class TestMatmul:
    def test_identity(self):
        i2 = Matrix.identity(2)
        assert matmul(i2, i2) == i2

    def test_hand_product(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[0, 1], [1, 0]])
        assert matmul(a, b) == Matrix.from_rows([[2, 1], [4, 3]])

    def test_rational_product(self):
        a = Matrix.scalar(Fraction(1, 2))
        b = Matrix.scalar(Fraction(2, 3))
        assert matmul(a, b) == Matrix.scalar(Fraction(1, 3))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(Matrix.zeros(2, 3), Matrix.zeros(2, 3))
        assert "2x3" in str(err.value)

    def test_zero_dimensional_edges(self):
        a = Matrix.zeros(0, 2)
        b = Matrix.zeros(2, 3)
        assert matmul(a, b).shape == (0, 3)

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(dims, dims, dims, dims).flatmap(
            lambda s: st.tuples(
                matrices(s[0], s[1]), matrices(s[1], s[2]), matrices(s[2], s[3])
            )
        )
    )
    def test_associativity(self, abc):
        a, b, c = abc
        assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


class TestKron:
    def test_identities(self):
        assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)

    def test_scalar_scaling(self):
        assert kron(Matrix.scalar(2), Matrix.identity(2)) == Matrix.from_rows(
            [[2, 0], [0, 2]]
        )

    def test_definition_expansion(self):
        a = Matrix.from_rows([[0, 1], [1, 0]])
        b = Matrix.from_rows([[1], [0]])
        assert kron(a, b) == Matrix.from_rows([[0, 1], [0, 0], [1, 0], [0, 0]])

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(dims, dims, dims, dims, dims, dims).flatmap(
            lambda s: st.tuples(
                matrices(s[0], s[1]),
                matrices(s[1], s[2]),
                matrices(s[3], s[4]),
                matrices(s[4], s[5]),
            )
        )
    )
    def test_functoriality(self, quad):
        a, c, b, d = quad
        assert matmul(kron(a, b), kron(c, d)) == kron(matmul(a, c), matmul(b, d))


class TestSwap:
    def test_unit_factor(self):
        for n in range(1, 5):
            assert swap_matrix(1, n) == Matrix.identity(n)
            assert swap_matrix(n, 1) == Matrix.identity(n)

    def test_two_by_two(self):
        s = swap_matrix(2, 2)
        assert s == Matrix.from_rows(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        )

    def test_symmetry(self):
        assert matmul(swap_matrix(3, 2), swap_matrix(2, 3)) == Matrix.identity(6)

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(dims, dims, dims, dims).flatmap(
            lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[2], s[3]))
        )
    )
    def test_naturality(self, pair):
        a, b = pair
        lhs = matmul(swap_matrix(a.rows, b.rows), kron(a, b))
        rhs = matmul(kron(b, a), swap_matrix(a.cols, b.cols))
        assert lhs == rhs


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(3)) == 3

    def test_proportional_rows(self):
        assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1

    def test_zero(self):
        assert rank(Matrix.zeros(2, 2)) == 0

    def test_rational_entries(self):
        m = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
        assert rank(m) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(dims, dims).flatmap(lambda s: matrices(s[0] + 1, s[1])),
        st.integers(min_value=1, max_value=9),
    )
    def test_invariance_under_row_ops(self, m, scale):
        rows = m.to_lists()
        swapped = Matrix.from_rows([rows[-1]] + rows[1:-1] + [rows[0]])
        scaled = Matrix.from_rows([[x * scale for x in rows[0]]] + rows[1:])
        assert rank(m) == rank(swapped) == rank(scaled)


class TestInverse:
    def test_round_trip(self):
        m = Matrix.from_rows([[1, 2], [3, Fraction(5, 2)]])
        assert matmul(m, inverse(m)) == Matrix.identity(2)
        assert matmul(inverse(m), m) == Matrix.identity(2)

    def test_singular_rejected(self):
        with pytest.raises(ShapeError):
            inverse(Matrix.from_rows([[1, 2], [2, 4]]))


class TestReshape:
    def test_reads_the_same_row_major_entries(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, Fraction(1, 6)]])
        assert m.reshape(3, 2) == Matrix.from_rows([[1, 2], [3, 4], [5, Fraction(1, 6)]])
        assert m.reshape(1, 6) == Matrix.row([1, 2, 3, 4, 5, Fraction(1, 6)])
        assert m.reshape(6, 1).reshape(2, 3) == m

    def test_size_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Matrix.identity(2).reshape(3, 1)

    def test_first_difference(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        assert a.first_difference(a) is None
        assert a.first_difference(Matrix.from_rows([[1, 2], [Fraction(3, 2), 0]])) == 2
        with pytest.raises(ShapeError):
            a.first_difference(a.reshape(1, 4))


class TestSerialization:
    def test_scalar_round_trip(self):
        for text in ["0", "7", "-3", "1/3", "-22/7"]:
            assert scalar_to_str(scalar_from_str(text)) == text

    def test_denominator_one_omitted(self):
        assert scalar_to_str(Fraction(4, 2)) == "2"

    def test_bad_scalar(self):
        with pytest.raises(ValueError):
            scalar_from_str("ten")

    def test_matrix_round_trip(self):
        m = Matrix.from_rows([[Fraction(1, 2), 0], [3, Fraction(-2, 5)]])
        assert matrix_from_json(matrix_to_json(m)) == m
        assert matrix_to_json(m) == [["1/2", "0"], ["3", "-2/5"]]

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json([["1"], ["1", "2"]])
