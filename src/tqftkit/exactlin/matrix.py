"""Dense matrices over the exact rationals.

Scalars are ``fractions.Fraction`` (arbitrary precision, denominator
positive, always reduced, zero is 0/1).  Matrices are immutable,
row-major, and may have zero rows or columns.  Index conventions are
fixed once here and used by every higher layer:

* ``kron(a, b)`` sends row pair ``(i_a, i_b)`` to ``i_a * b.rows + i_b``
  and columns likewise.
* ``swap_matrix(d1, d2)`` is the permutation sending basis index
  ``i * d2 + j`` to ``j * d1 + i`` for ``i < d1``, ``j < d2``.

Scalars serialize as ``"p/q"`` with ``/q`` omitted when the denominator
is one; matrices serialize as JSON lists of rows of such strings.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from ._kernels_py import mat_kron, mat_mul, mat_rank

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

    Entries are stored as parallel flat tuples of numerators and
    denominators so the arithmetic kernels can run without boxing.
    """

    __slots__ = ("rows", "cols", "nums", "dens")

    def __init__(self, rows: int, cols: int, entries: Iterable[ScalarLike]):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape {rows}x{cols}")
        nums = []
        dens = []
        for x in entries:
            f = _as_fraction(x)
            nums.append(f.numerator)
            dens.append(f.denominator)
        if len(nums) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(nums)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "dens", tuple(dens))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _raw(cls, rows: int, cols: int, nums, dens) -> "Matrix":
        m = cls.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "nums", tuple(nums))
        object.__setattr__(m, "dens", tuple(dens))
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
        for i in range(n):
            nums[i * n + i] = 1
        return cls._raw(n, n, nums, [1] * (n * n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._raw(rows, cols, [0] * (rows * cols), [1] * (rows * cols))

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
        k = i * self.cols + j
        return Fraction(self.nums[k], self.dens[k])

    def to_lists(self) -> list[list[Fraction]]:
        return [
            [self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)
        ]

    def transpose(self) -> "Matrix":
        nums = [0] * (self.rows * self.cols)
        dens = [1] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                nums[j * self.rows + i] = self.nums[i * self.cols + j]
                dens[j * self.rows + i] = self.dens[i * self.cols + j]
        return Matrix._raw(self.cols, self.rows, nums, dens)

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same row-major entries read with a new shape."""
        if rows < 0 or cols < 0 or rows * cols != self.rows * self.cols:
            raise ShapeError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        return Matrix._raw(rows, cols, self.nums, self.dens)

    def scale(self, factor: ScalarLike) -> "Matrix":
        f = _as_fraction(factor)
        return Matrix(
            self.rows,
            self.cols,
            [
                Fraction(n, d) * f
                for n, d in zip(self.nums, self.dens)
            ],
        )

    def first_difference(self, other: "Matrix") -> int | None:
        """Row-major index of the first entry where two matrices of one
        shape differ, or None when they are equal."""
        if self.shape != other.shape:
            raise ShapeError(f"cannot compare {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        if self == other:
            return None
        for k, (n, d) in enumerate(zip(self.nums, self.dens)):
            if n != other.nums[k] or d != other.dens[k]:
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
            and self.nums == other.nums
            and self.dens == other.dens
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.nums, self.dens))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(scalar_to_str(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: [{body}])"


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product; raises ShapeError naming both shapes on mismatch."""
    if a.cols != b.rows:
        raise ShapeError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    nums, dens = mat_mul(
        a.rows, a.cols, b.cols, list(a.nums), list(a.dens), list(b.nums), list(b.dens)
    )
    return Matrix._raw(a.rows, b.cols, nums, dens)


def kron(a: Matrix, b: Matrix) -> Matrix:
    nums, dens = mat_kron(
        a.rows, a.cols, b.rows, b.cols,
        list(a.nums), list(a.dens), list(b.nums), list(b.dens),
    )
    return Matrix._raw(a.rows * b.rows, a.cols * b.cols, nums, dens)


def swap_matrix(d1: int, d2: int) -> Matrix:
    """Permutation matrix of the tensor-factor swap, size d1*d2."""
    n = d1 * d2
    nums = [0] * (n * n)
    for i in range(d1):
        for j in range(d2):
            nums[(j * d1 + i) * n + (i * d2 + j)] = 1
    return Matrix._raw(n, n, nums, [1] * (n * n))


def rank(a: Matrix) -> int:
    return mat_rank(a.rows, a.cols, list(a.nums), list(a.dens))


def inverse(a: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan elimination; raises ShapeError if singular."""
    if a.rows != a.cols:
        raise ShapeError(f"cannot invert non-square {a.rows}x{a.cols}")
    n = a.rows
    m = [[a.entry(i, j) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        p = col
        while p < n and m[p][col] == 0:
            p += 1
        if p == n:
            raise ShapeError(f"matrix of rank < {n} has no inverse")
        m[col], m[p] = m[p], m[col]
        inv[col], inv[p] = inv[p], inv[col]
        scale = m[col][col]
        m[col] = [x / scale for x in m[col]]
        inv[col] = [x / scale for x in inv[col]]
        for i in range(n):
            if i == col or m[i][col] == 0:
                continue
            factor = m[i][col]
            m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
            inv[i] = [x - factor * y for x, y in zip(inv[i], inv[col])]
    return Matrix.from_rows(inv)


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
