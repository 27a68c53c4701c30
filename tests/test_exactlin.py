"""Exact linear algebra: worked examples, algebraic laws, and the kernels
against ``Fraction`` references."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import dense
from tqftkit.algebras import cyclic_group, group_algebra
from tqftkit.evaluate import eval_term
from tqftkit.exactlin import (
    BACKEND,
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
from tqftkit.exactlin import _reduce
from tqftkit.surfaces import frobenius_interpretation
from tqftkit.terms import parse_term

scalars = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)


# entries whose text is over the default digit limit of 4,300
TOO_LONG = [2**20000, -(3**10000), Fraction(1, 7**6000), Fraction(-(10**5000), 3)]


def shaped(entries):
    """Matrices of every shape up to 4 x 4, zero rows or columns included."""
    return st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
        lambda s: st.lists(entries, min_size=s[0] * s[1], max_size=s[0] * s[1]).map(
            lambda xs: Matrix(s[0], s[1], xs)
        )
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
        rows = dense(m)
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


entry_values = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    scalars,
    st.sampled_from([Fraction(0), Fraction(-0), Fraction(0, 5), Fraction(4, 2)]),
)


class TestFromEntries:
    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
            lambda s: st.tuples(
                st.just(s),
                st.dictionaries(
                    st.tuples(st.integers(0, max(s[0] - 1, 0)), st.integers(0, max(s[1] - 1, 0))),
                    entry_values,
                    max_size=s[0] * s[1],
                ),
            )
        )
    )
    def test_equals_the_dense_constructor(self, case):
        (rows, cols), entries = case
        if rows * cols == 0:
            entries = {}
        flat = [entries.get((i, j), 0) for i in range(rows) for j in range(cols)]
        m = Matrix.from_entries(rows, cols, entries)
        assert m == Matrix(rows, cols, flat)
        assert dense(m) == [[Fraction(entries.get((i, j), 0)) for j in range(cols)] for i in range(rows)]

    def test_canonical_form(self):
        m = Matrix.from_entries(2, 3, {(1, 2): Fraction(1, 6), (1, 0): Fraction(1, 4), (0, 1): 0, (0, 0): 2})
        assert m.den == 12 and m.nz == (((0, 24),), ((0, 3), (2, 2)))
        assert Matrix.from_entries(2, 2, {(0, 0): 0, (1, 1): Fraction(0, 3)}) == Matrix.zeros(2, 2)
        assert Matrix.from_entries(3, 0, {}) == Matrix.zeros(3, 0)

    @pytest.mark.parametrize("rows, cols, entries, message", [
        (2, 2, {(2, 0): 1}, "entry (2,0) outside 2x2"),
        (2, 2, {(0, 2): 0}, "entry (0,2) outside 2x2"),
        (2, 2, {(-1, 0): 1}, "entry (-1,0) outside 2x2"),
        (0, 0, {(0, 0): 1}, "entry (0,0) outside 0x0"),
        (-1, 2, {}, "negative shape -1x2"),
        (2, -3, {(0, 0): 1}, "negative shape 2x-3"),
    ])
    def test_bad_index_or_shape(self, rows, cols, entries, message):
        with pytest.raises(ShapeError) as err:
            Matrix.from_entries(rows, cols, entries)
        assert str(err.value) == message

    def test_bad_index_type_or_scalar(self):
        with pytest.raises(TypeError, match="not a matrix index"):
            Matrix.from_entries(2, 2, {(0, 1.0): 1})
        with pytest.raises(TypeError, match="not an exact scalar: 0.5"):
            Matrix.from_entries(2, 2, {(0, 1): 0.5})

    @pytest.mark.parametrize("build", [
        lambda x: Matrix(1, 1, [x]),
        lambda x: Matrix.from_entries(1, 1, {(0, 0): x}),
        lambda x: Matrix.from_rows([[x]]),
        lambda x: Matrix.column([x]),
        lambda x: Matrix.row([x]),
        lambda x: Matrix.scalar(x),
        lambda x: Matrix.identity(2).scale(x),
    ])
    @pytest.mark.parametrize("bad", ["1", "1/2", "0", "", True, False, 0.5, 0.0])
    def test_constructors_take_int_and_fraction_only(self, build, bad):
        with pytest.raises(TypeError, match=f"^not an exact scalar: {re.escape(repr(bad))}$"):
            build(bad)
        assert build(Fraction(3, 6)) == build(Fraction(1, 2)) and build(0) == build(Fraction(0))

    def test_immutable_and_bounded(self):
        m = Matrix.identity(2)
        with pytest.raises(AttributeError, match="^Matrix is immutable$"):
            m.rows = 3
        with pytest.raises(IndexError, match=r"^\(2,0\) outside 2x2$"):
            m.entry(2, 0)
        with pytest.raises(IndexError, match=r"^\(0,-1\) outside 2x2$"):
            m.entry(0, -1)
        assert m == Matrix.identity(2)

    def test_dense_adapter_messages(self):
        with pytest.raises(ShapeError, match="^negative shape -1x2$"):
            Matrix(-1, 2, [])
        with pytest.raises(ShapeError, match="^2x2 matrix needs 4 entries, got 3$"):
            Matrix(2, 2, [1, 2, 3])
        with pytest.raises(ShapeError, match="^0x3 matrix needs 0 entries, got 1$"):
            Matrix(0, 3, [1])
        for bad in (1.5, 0.0, None, False, "", "1"):
            with pytest.raises(TypeError, match=f"^not an exact scalar: {bad!r}$"):
                Matrix(1, 2, [1, bad])
        assert Matrix(2, 2, iter([1, 0, 0, 1])) == Matrix.identity(2)


class TestSerialization:
    def test_scalar_round_trip(self):
        for text in ["0", "7", "-3", "1/3", "-22/7"]:
            assert scalar_to_str(scalar_from_str(text)) == text

    def test_denominator_one_omitted(self):
        assert scalar_to_str(Fraction(4, 2)) == "2"

    def test_too_long_to_print(self, digit_limit):
        assert scalar_to_str(-(10 ** (digit_limit - 1))) == "-1" + "0" * (digit_limit - 1)
        for x in (10**digit_limit, Fraction(1, 3**10000)):
            with pytest.raises(ValueError) as err:
                scalar_to_str(x)
            assert str(err.value) == f"exact value too long to print: over {digit_limit} digits"

    def test_repr_abbreviates_entries_too_long_to_print(self, digit_limit):
        m = Matrix.from_rows([[2**20000, Fraction(-1, 3**10000)], [Fraction(1, 2), 0]])
        assert repr(m) == "Matrix(2x2: [<20001-bit> -<15850-bit>; 1/2 0])"
        assert repr(Matrix.scalar(-(10 ** (digit_limit - 1)))) == f"Matrix(1x1: [-1{'0' * (digit_limit - 1)}])"

    @settings(max_examples=200, deadline=None)
    @given(shaped(st.one_of(st.just(0), scalars)))
    def test_json_is_written_from_the_nonzeros(self, m):
        assert matrix_to_json(m) == [[str(x) for x in row] for row in dense(m)]

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shaped(st.one_of(st.just(0), scalars, st.sampled_from(TOO_LONG))))
    def test_repr_is_written_from_the_nonzeros(self, digit_limit, m):
        def text(x):
            # the entries of TOO_LONG have over 10,000 bits and over 4,300 digits
            bits = max(x.numerator.bit_length(), x.denominator.bit_length())
            return f"{'-' if x < 0 else ''}<{bits}-bit>" if bits > 10000 else str(x)

        body = "; ".join(" ".join(map(text, row)) for row in dense(m))
        assert repr(m) == f"Matrix({m.rows}x{m.cols}: [{body}])"

    def test_bad_scalar(self):
        with pytest.raises(ValueError):
            scalar_from_str("ten")

    @pytest.mark.parametrize("text", [
        # Fraction's own grammar read the first eight as numbers
        "1.5", "1_0", " 1", "1 ", "1\n", "\u0661", "1e3", "-1.5e-3", "inf", "nan", "0x10",
        "1/0", "", "+", "/2", "1/", "1/-2", "1/+2", "1//2", "--1", "1/2/3", "\u00bd",
    ])
    def test_only_p_q_text_is_a_scalar(self, text):
        with pytest.raises(ValueError) as err:
            scalar_from_str(text)
        assert str(err.value) == f"not a rational scalar: {text!r}"

    @pytest.mark.parametrize("value, expected", [
        ("+2", 2), ("-3/6", Fraction(-1, 2)), ("007", 7), ("-0", 0), ("0/5", 0), ("12/08", Fraction(3, 2)),
        (3, 3), (-4.0, -4),
    ])
    def test_p_q_text_and_json_integers_are_read(self, value, expected):
        assert scalar_from_str(value) == expected and type(scalar_from_str(value)) is Fraction

    @pytest.mark.parametrize("value", [True, False, 0.1, float("inf"), float("nan")])
    def test_json_values_that_are_no_integer_are_refused(self, value):
        with pytest.raises(ValueError, match="^not a rational scalar: "):
            scalar_from_str(value)

    @settings(max_examples=300, deadline=None)
    @given(st.builds(Fraction, st.integers(-(10**300), 10**300), st.integers(1, 10**300)))
    def test_text_round_trip_of_long_fractions(self, x):
        assert scalar_from_str(scalar_to_str(x)) == x

    def test_matrix_round_trip(self):
        m = Matrix.from_rows([[Fraction(1, 2), 0], [3, Fraction(-2, 5)]])
        assert matrix_from_json(matrix_to_json(m)) == m
        assert matrix_to_json(m) == [["1/2", "0"], ["3", "-2/5"]]

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json([["1"], ["1", "2"]])


# --- the kernels against Fraction references ----------------------------------


def random_rational(rng, rows, cols):
    """A random rational matrix and its entries as lists of Fractions."""
    entries = [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(cols)]
        for _ in range(rows)
    ]
    return Matrix(rows, cols, [x for row in entries for x in row]), entries


def reference_mul(a, b):
    k = len(b)
    m = len(b[0]) if b else 0
    return [[sum((row[t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)] for row in a]


def reference_kron(a, b, a_cols, b_cols):
    return [
        [a[ia][ja] * b[ib][jb] for ja in range(a_cols) for jb in range(b_cols)]
        for ia in range(len(a))
        for ib in range(len(b))
    ]


def reference_reduce(rows, ncols):
    """Gauss-Jordan over Fractions on the first ncols columns: the rank and
    the reduced rows."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][col]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
    return r, m


def reference_inverse(a):
    n = len(a)
    r, m = reference_reduce([row + [int(i == j) for j in range(n)] for i, row in enumerate(a)], n)
    return None if r < n else [row[n:] for row in m]


def low_rank_with_zero_columns(rng, rows, cols):
    """An integer matrix of rank at most rows // 2 + 1 with some columns
    zeroed, so the elimination meets columns without a pivot."""
    k = rng.randint(0, rows // 2 + 1)
    left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
    right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
    zeroed = {j for j in range(cols) if rng.random() < 0.3}
    return [
        [0 if j in zeroed else sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
        for i in range(rows)
    ]


def test_mul_matches_fraction_reference():
    rng = random.Random(7)
    for _ in range(25):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, a_rows = random_rational(rng, n, k)
        b, b_rows = random_rational(rng, k, m)
        assert matmul(a, b) == Matrix.from_rows(reference_mul(a_rows, b_rows))


def test_rank_of_known_matrices():
    assert rank(Matrix(2, 2, [1, 0, 0, 1])) == 2
    assert rank(Matrix(2, 2, [1, 2, 2, 4])) == 1
    assert rank(Matrix(2, 2, [0] * 4)) == 0
    # needs column pivoting: first column zero
    assert rank(Matrix(2, 3, [0, 1, 0, 0, 0, 1])) == 2


def test_rank_with_rational_rows():
    # rows proportional over Q even though integer parts differ
    m = Matrix(2, 2, [Fraction(1, 2), Fraction(1, 3), 3, 2])
    assert rank(m) == 1


def test_selected_backend_is_reported():
    assert BACKEND == "python"


def test_kron_matches_fraction_reference():
    rng = random.Random(11)
    shapes = [(0, 3, 2, 2), (3, 0, 2, 2), (2, 2, 0, 3), (2, 2, 3, 0), (0, 0, 0, 0)]
    shapes += [tuple(rng.randint(1, 4) for _ in range(4)) for _ in range(25)]
    for ra, ca, rb, cb in shapes:
        a, a_rows = random_rational(rng, ra, ca)
        b, b_rows = random_rational(rng, rb, cb)
        want = Matrix(ra * rb, ca * cb, [x for row in reference_kron(a_rows, b_rows, ca, cb) for x in row])
        assert kron(a, b) == want


def test_rank_matches_fraction_reference():
    rng = random.Random(13)
    shapes = [(0, 3), (3, 0), (0, 0)] + [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
    for rows, cols in shapes:
        entries = low_rank_with_zero_columns(rng, rows, cols)
        scaled = [[Fraction(x, d) for x in row] for row in entries for d in [rng.randint(1, 6)]]
        m = Matrix(rows, cols, [x for row in scaled for x in row])
        assert rank(m) == reference_reduce(scaled, cols)[0]
        assert rank(m.transpose()) == rank(m)


def test_inverse_matches_fraction_reference():
    rng = random.Random(17)
    assert inverse(Matrix.zeros(0, 0)) == Matrix.zeros(0, 0)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        a, a_rows = random_rational(rng, n, n)
        want = reference_inverse(a_rows)
        if want is None:
            with pytest.raises(ShapeError):
                inverse(a)
        else:
            assert inverse(a) == Matrix.from_rows(want)
            checked += 1
    assert checked > 40


def test_inverse_with_negative_determinant():
    m = Matrix.from_rows([[0, Fraction(1, 2)], [3, 0]])  # determinant -3/2
    inv = inverse(m)
    assert inv.den > 0
    assert inv == Matrix.from_rows([[0, Fraction(1, 3)], [2, 0]])


def test_inverse_messages_unchanged():
    with pytest.raises(ShapeError, match="cannot invert non-square 2x3"):
        inverse(Matrix.zeros(2, 3))
    with pytest.raises(ShapeError, match="matrix of rank < 3 has no inverse"):
        inverse(Matrix(3, 3, [1, 2, 3, 2, 4, 6, 0, 0, 1]))


def test_reduce_on_rank_deficient_matrices_with_zero_pivot_columns():
    rng = random.Random(19)
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        entries = low_rank_with_zero_columns(rng, rows, cols)
        work = [list(row) for row in entries]
        r, last_pivot = _reduce(work, cols)
        want, reduced = reference_reduce(entries, cols)
        assert r == want
        # the rows end as last_pivot times the reduced echelon rows
        assert [[Fraction(x, last_pivot) for x in row] for row in work] == reduced


def test_canonical_form():
    half = Fraction(1, 2)
    built = [
        Matrix(2, 2, [half, Fraction(1, 3), 0, 2]),
        Matrix.from_rows([[Fraction(3, 6), Fraction(2, 6)], [Fraction(0), Fraction(4, 2)]]),
        Matrix.from_rows([[3, 2], [0, 12]]).scale(Fraction(1, 6)),
        matmul(Matrix.scalar(Fraction(1, 6)), Matrix.row([3, 2, 0, 12])).reshape(2, 2),
        matmul(Matrix.from_rows([[half, 0], [0, 2]]), Matrix.from_rows([[1, Fraction(2, 3)], [0, 1]])),
    ]
    for m in built:
        assert (m.nz, m.den) == ((((0, 3), (1, 2)), ((1, 12),)), 6)
        assert m == built[0] and hash(m) == hash(built[0])
    integral = matmul(Matrix.from_rows([[half, half]]), Matrix.column([4, 2]))
    assert integral.den == 1 and integral.nz == (((0, 3),),)
    zero = built[0].scale(0)
    assert zero.den == 1 and zero.nz == ((), ()) and zero == Matrix.zeros(2, 2)
    assert hash(zero) == hash(Matrix.zeros(2, 2))


def test_wide_term_stores_only_its_nonzeros():
    # id[S1^6] * pants at dimension 5 is 78,125 x 390,625 dense; kron(I, mu)
    # keeps one block of mu per basis word of the identity legs
    z5 = group_algebra(cyclic_group(5))
    interp = frobenius_interpretation(z5)
    wide = eval_term(parse_term("id[S1,S1,S1,S1,S1,S1] * pants", interp.sig), interp)
    assert wide.shape == (5 ** 7, 5 ** 8)
    assert sum(map(len, wide.nz)) == 5 ** 8
    rng = random.Random(37)
    for _ in range(2000):
        block, i, jk = rng.randrange(5 ** 6), rng.randrange(5), rng.randrange(25)
        assert wide.entry(block * 5 + i, block * 25 + jk) == z5.mu.entry(i, jk)
        r, c = rng.randrange(5 ** 7), rng.randrange(5 ** 8)
        assert wide.entry(r, c) == (z5.mu.entry(r % 5, c % 25) if r // 5 == c // 25 else 0)


def test_first_difference_with_different_denominators():
    a = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [1, 5]])
    b = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 5)], [1, 5]])
    assert a.den != b.den
    assert a.first_difference(b) == 1
    assert b.first_difference(a) == 1
    # equal entries at the front under different common denominators
    c = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [1, 4]])
    d = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 7), 5]])
    assert c.den != d.den and c.first_difference(d) == 2
