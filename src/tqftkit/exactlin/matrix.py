"""Dense matrices over the exact rationals.

A ``Matrix`` stores its entries as one row-major tuple ``nums`` of
integer numerators over one common denominator ``den > 0``, in lowest
terms: ``gcd(den, *nums) == 1``, so the zero matrix has ``den == 1`` and
two equal matrices have equal fields.  Entry ``(i, j)`` is
``Fraction(nums[i * cols + j], den)``.  The kernels below work on the
integers directly and normalise once per result; no kernel builds a
``Fraction`` per entry.  Matrices are immutable and may have zero rows
or columns.

Scalars are ``fractions.Fraction`` (arbitrary precision, denominator
positive, always reduced, zero is 0/1).  Index conventions are fixed
once here and used by every higher layer:

* ``kron(a, b)`` sends row pair ``(i_a, i_b)`` to ``i_a * b.rows + i_b``
  and columns likewise.
* ``swap_matrix(d1, d2)`` is the permutation sending basis index
  ``i * d2 + j`` to ``j * d1 + i`` for ``i < d1``, ``j < d2``.

Scalars serialize as ``"p/q"`` with ``/q`` omitted when the denominator
is one; matrices serialize as JSON lists of rows of such strings.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Sequence, Union

# The kernels are pure Python; the name is kept for reports that record it.
BACKEND = "python"

Scalar = Fraction
ScalarLike = Union[Fraction, int, str]

__all__ = [
    "BACKEND",
    "Matrix",
    "Scalar",
    "ShapeError",
    "inverse",
    "kron",
    "matmul",
    "matrix_from_json",
    "matrix_to_json",
    "rank",
    "scalar_from_str",
    "scalar_to_str",
    "swap_matrix",
]


class ShapeError(ValueError):
    """Raised when matrix shapes do not fit the requested operation."""


def _as_fraction(x: ScalarLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


class Matrix:
    """An immutable rows-by-cols matrix of exact rationals.

    ``nums`` is the row-major tuple of integer numerators and ``den`` the
    one positive common denominator, with ``gcd(den, *nums) == 1``.
    """

    __slots__ = ("rows", "cols", "nums", "den")

    def __init__(self, rows: int, cols: int, entries: Iterable[ScalarLike]):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape {rows}x{cols}")
        # two int lists rather than one Fraction per entry: wide matrices
        # have millions of entries
        nums = []
        dens = []
        for x in entries:
            if not isinstance(x, (int, Fraction)):
                x = _as_fraction(x)
            nums.append(x.numerator)
            dens.append(x.denominator)
        if len(nums) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(nums)}"
            )
        den = lcm(*dens)
        if den != 1:
            nums = [n * (den // d) for n, d in zip(nums, dens)]
        Matrix._init(self, rows, cols, nums, den)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def _init(self, rows: int, cols: int, nums, den: int) -> None:
        if den != 1:
            if den < 0:
                den = -den
                nums = [-x for x in nums]
            g = gcd(den, *nums)
            if g != 1:
                den //= g
                nums = [x // g for x in nums]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @classmethod
    def _raw(cls, rows: int, cols: int, nums, den: int = 1) -> "Matrix":
        """The matrix ``nums / den``, brought to lowest terms."""
        m = cls.__new__(cls)
        m._init(rows, cols, nums, den)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[ScalarLike]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ShapeError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        nums = [0] * (n * n)
        nums[:: n + 1] = [1] * n
        return cls._raw(n, n, nums)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._raw(rows, cols, (0,) * (rows * cols))

    @classmethod
    def column(cls, values: Sequence[ScalarLike]) -> "Matrix":
        return cls(len(values), 1, values)

    @classmethod
    def row(cls, values: Sequence[ScalarLike]) -> "Matrix":
        return cls(1, len(values), values)

    @classmethod
    def scalar(cls, value: ScalarLike) -> "Matrix":
        return cls(1, 1, [value])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i},{j}) outside {self.rows}x{self.cols}")
        return Fraction(self.nums[i * self.cols + j], self.den)

    def to_lists(self) -> list[list[Fraction]]:
        return [
            [self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)
        ]

    def transpose(self) -> "Matrix":
        nums = []
        for j in range(self.cols):
            nums += self.nums[j :: self.cols]
        return Matrix._raw(self.cols, self.rows, nums, self.den)

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same row-major entries read with a new shape."""
        if rows < 0 or cols < 0 or rows * cols != self.rows * self.cols:
            raise ShapeError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        return Matrix._raw(rows, cols, self.nums, self.den)

    def scale(self, factor: ScalarLike) -> "Matrix":
        f = _as_fraction(factor)
        p = f.numerator
        return Matrix._raw(
            self.rows, self.cols, [p * x for x in self.nums], self.den * f.denominator
        )

    def first_difference(self, other: "Matrix") -> int | None:
        """Row-major index of the first entry where two matrices of one
        shape differ, or None when they are equal."""
        if self.shape != other.shape:
            raise ShapeError(f"cannot compare {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        if self == other:
            return None
        da, db = self.den, other.den
        for k, (x, y) in enumerate(zip(self.nums, other.nums)):
            if x * db != y * da:
                return k
        return None

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Matrix.identity(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.nums, self.den))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(scalar_to_str(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: [{body}])"


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product; raises ShapeError naming both shapes on mismatch.

    Each nonzero ``x`` of row i of ``a``, at column t, adds ``x`` times the
    nonzeros of row t of ``b`` into an integer row; the matrices arising
    from string-diagram evaluation are mostly sparse permutation blocks.
    """
    if a.cols != b.rows:
        raise ShapeError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    n, k, m = a.rows, a.cols, b.cols
    an, bn = a.nums, b.nums
    cols = range(m)
    brows = []  # row t of b as (column, value) pairs of its nonzeros
    for t in range(k):
        row = bn[t * m : (t + 1) * m]
        brows.append(tuple(zip(compress(cols, row), compress(row, row))))
    out = []
    for i in range(n):
        arow = an[i * k : (i + 1) * k]
        acc = [0] * m
        for x, brow in compress(zip(arow, brows), arow):
            for j, y in brow:
                acc[j] += x * y
        out += acc
    return Matrix._raw(n, m, out, a.den * b.den)


def kron(a: Matrix, b: Matrix) -> Matrix:
    ca, rb, cb = a.cols, b.rows, b.cols
    zero = (0,) * cb
    brows = [b.nums[t * cb : (t + 1) * cb] for t in range(rb)]
    out = []
    for i in range(a.rows):
        arow = a.nums[i * ca : (i + 1) * ca]
        for brow in brows:
            for x in arow:
                if not x:
                    out += zero
                elif x == 1:
                    out += brow
                else:
                    out += [x * y for y in brow]
    return Matrix._raw(a.rows * rb, ca * cb, out, a.den * b.den)


def swap_matrix(d1: int, d2: int) -> Matrix:
    """Permutation matrix of the tensor-factor swap, size d1*d2."""
    n = d1 * d2
    nums = [0] * (n * n)
    for i in range(d1):
        for j in range(d2):
            nums[(j * d1 + i) * n + (i * d2 + j)] = 1
    return Matrix._raw(n, n, nums)


def _reduce(rows: list[list[int]], ncols: int) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows, in
    place, pivoting on the first ``ncols`` columns.

    Each step updates every other row as ``(piv * x - head * y) // prev``
    with ``prev`` the previous pivot; every entry stays a minor of the
    input, so each division is exact.  Returns the rank and the last
    pivot.  When the first ``ncols`` columns have full rank n = len(rows),
    that block ends as ``last_pivot * I``.
    """
    n = len(rows)
    r = 0
    prev = 1
    for col in range(ncols):
        if r == n:
            break
        p = r
        while p < n and not rows[p][col]:
            p += 1
        if p == n:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        piv = prow[col]
        for i in range(n):
            if i == r:
                continue
            row = rows[i]
            head = row[col]
            if head:
                rows[i] = [(piv * x - head * y) // prev for x, y in zip(row, prow)]
            elif piv != prev:
                rows[i] = [piv * x // prev for x in row]
        prev = piv
        r += 1
    return r, prev


def rank(a: Matrix) -> int:
    c = a.cols
    return _reduce([list(a.nums[i * c : (i + 1) * c]) for i in range(a.rows)], c)[0]


def inverse(a: Matrix) -> Matrix:
    """Inverse by fraction-free Gauss-Jordan elimination of ``[N | I]``,
    where ``a = N / a.den``; raises ShapeError if singular."""
    if a.rows != a.cols:
        raise ShapeError(f"cannot invert non-square {a.rows}x{a.cols}")
    n = a.rows
    rows = []
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        rows.append(list(a.nums[i * n : (i + 1) * n]) + unit)
    r, pivot = _reduce(rows, n)
    if r < n:
        raise ShapeError(f"matrix of rank < {n} has no inverse")
    # [N | I] is now [p * I | p * N^-1] with p the last pivot (+-det N),
    # and a^-1 = a.den * N^-1
    return Matrix._raw(n, n, [a.den * x for row in rows for x in row[n:]], pivot)


def scalar_to_str(x: ScalarLike) -> str:
    return str(_as_fraction(x))


def scalar_from_str(s: Union[str, int]) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational scalar: {s!r}") from exc


def matrix_to_json(a: Matrix) -> list[list[str]]:
    return [
        [scalar_to_str(a.entry(i, j)) for j in range(a.cols)]
        for i in range(a.rows)
    ]


def matrix_from_json(obj, expect_shape: tuple[int, int] | None = None) -> Matrix:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ValueError("matrix JSON must be a list of rows")
    rows = len(obj)
    cols = len(obj[0]) if rows else 0
    flat = []
    for r in obj:
        if len(r) != cols:
            raise ValueError("matrix JSON has ragged rows")
        flat.extend(scalar_from_str(x) for x in r)
    m = Matrix(rows, cols, flat)
    if expect_shape is not None and m.shape != expect_shape:
        raise ShapeError(f"expected {expect_shape[0]}x{expect_shape[1]}, got {rows}x{cols}")
    return m
