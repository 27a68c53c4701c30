"""Exact rational scalars and sparse linear algebra.

A ``Matrix`` stores only its nonzero entries: ``nz[i]`` is row i as a
tuple of ``(column, numerator)`` pairs, sorted by column, with no zero
numerator, over one common denominator ``den > 0``.  The form is
canonical: ``gcd(den, *numerators) == 1``, so the zero matrix has
``den == 1`` and two equal matrices have equal fields.  Entry ``(i, j)``
is ``Fraction(v, den)`` for the pair ``(j, v)`` of row i, and zero when
row i has no pair for column j.  Matrices are immutable and may have
zero rows or columns.

The kernels below work on the integers directly and normalise once per
result; no kernel builds a ``Fraction`` per entry.  Their costs, with
``nnz`` the number of nonzeros:

* ``Matrix(rows, cols, entries)`` reads every given entry once and keeps
  the nonzeros; ``identity``, ``zeros`` and ``swap_matrix`` cost one
  step per row.
* ``matmul(a, b)`` costs the nonzero products ``a[i, t] * b[t, j]``
  plus, for each row of ``a`` with two or more nonzeros, one integer
  accumulator of ``b.cols`` entries; a row of ``a`` with one nonzero
  (identity padding, swaps) scales a row of ``b`` and needs none.
* ``kron(a, b)`` costs ``nnz(a) * nnz(b)`` plus one step per result row.
* ``transpose``, ``reshape``, ``scale`` and ``differences`` cost ``nnz``
  plus one step per row.
* ``rank`` and ``inverse`` unpack the nonzero rows to dense integer rows
  for one fraction-free Gauss-Jordan elimination (``_reduce``).

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

from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence, Union

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

    ``nz`` holds one tuple per row of that row's nonzeros as sorted
    ``(column, numerator)`` pairs, and ``den`` is the one positive common
    denominator, with ``gcd(den, *numerators) == 1``.
    """

    __slots__ = ("rows", "cols", "nz", "den")

    def __init__(self, rows: int, cols: int, entries: Iterable[ScalarLike]):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape {rows}x{cols}")
        # row-major positions, numerators and denominators of the nonzeros
        where = []
        nums = []
        dens = []
        count = 0
        for count, x in enumerate(entries, 1):
            if not isinstance(x, (int, Fraction)):
                x = _as_fraction(x)
            if x:
                where.append(count - 1)
                nums.append(x.numerator)
                dens.append(x.denominator)
        if count != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {count}"
            )
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the form is already canonical
        den = lcm(*dens)
        if den != 1:
            nums = [n * (den // d) for n, d in zip(nums, dens)]
        nz = [[] for _ in range(rows)]
        for k, v in zip(where, nums):
            i, j = divmod(k, cols)
            nz[i].append((j, v))
        Matrix._set(self, rows, cols, tuple(map(tuple, nz)), den)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def _set(self, rows: int, cols: int, nz: tuple, den: int) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nz", nz)
        object.__setattr__(self, "den", den)

    @classmethod
    def _new(cls, rows: int, cols: int, nz: tuple, den: int = 1) -> "Matrix":
        """The matrix with these fields, which must already be canonical."""
        m = cls.__new__(cls)
        m._set(rows, cols, nz, den)
        return m

    @classmethod
    def _raw(cls, rows: int, cols: int, nz, den: int = 1) -> "Matrix":
        """The matrix ``nz / den`` brought to lowest terms.  ``nz`` is one
        sequence per row of sorted, zero-free ``(column, numerator)``
        pairs; ``den`` is any nonzero integer."""
        if den != 1:
            if den < 0:
                den = -den
                nz = [[(j, -v) for j, v in row] for row in nz]
            g = gcd(den, *[v for row in nz for _, v in row])
            if g != 1:
                den //= g
                nz = [[(j, v // g) for j, v in row] for row in nz]
        return cls._new(rows, cols, tuple(map(tuple, nz)), den)

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
        return cls._new(n, n, tuple([((i, 1),) for i in range(n)]))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._new(rows, cols, ((),) * rows)

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

    @property
    def nums(self) -> tuple[int, ...]:
        """All ``rows * cols`` numerators over ``den`` in row-major order,
        zeros included.  Built on each access; the kernels never use it."""
        out = []
        for row in self.nz:
            out += _dense(row, self.cols)
        return tuple(out)

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i},{j}) outside {self.rows}x{self.cols}")
        row = self.nz[i]
        k = bisect_left(row, (j,))  # (j,) sorts before every (j, v)
        if k < len(row) and row[k][0] == j:
            return Fraction(row[k][1], self.den)
        return Fraction(0)

    def to_lists(self) -> list[list[Fraction]]:
        zero = Fraction(0)
        out = []
        for row in self.nz:
            dense = [zero] * self.cols
            for j, v in row:
                dense[j] = Fraction(v, self.den)
            out.append(dense)
        return out

    def transpose(self) -> "Matrix":
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nz):
            for j, v in row:
                out[j].append((i, v))
        return Matrix._new(self.cols, self.rows, tuple(map(tuple, out)), self.den)

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same row-major entries read with a new shape."""
        if rows < 0 or cols < 0 or rows * cols != self.rows * self.cols:
            raise ShapeError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        if (rows, cols) == self.shape:
            return self
        out = [()] * rows
        at = -1  # the result row being filled
        filled = []
        for i, row in enumerate(self.nz):
            base = i * self.cols
            for j, v in row:
                r, c = divmod(base + j, cols)
                if r != at:
                    if filled:
                        out[at] = tuple(filled)
                    at, filled = r, []
                filled.append((c, v))
        if filled:
            out[at] = tuple(filled)
        return Matrix._new(rows, cols, tuple(out), self.den)

    def scale(self, factor: ScalarLike) -> "Matrix":
        f = _as_fraction(factor)
        p = f.numerator
        if not p:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix._raw(
            self.rows,
            self.cols,
            [[(j, p * v) for j, v in row] for row in self.nz],
            self.den * f.denominator,
        )

    def differences(self, other: "Matrix") -> Iterator[int]:
        """Row-major indices, in increasing order, where two same-shape matrices differ."""
        if self.shape != other.shape:
            raise ShapeError(f"cannot compare {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        if self == other:
            return
        da, db = self.den, other.den
        for i, (ra, rb) in enumerate(zip(self.nz, other.nz)):
            if ra == rb and da == db:
                continue
            a, b = dict(ra), dict(rb)
            for j in sorted(a.keys() | b.keys()):
                if a.get(j, 0) * db != b.get(j, 0) * da:
                    yield i * self.cols + j

    def first_difference(self, other: "Matrix") -> int | None:
        """The first of ``differences``, or None when the matrices are equal."""
        return next(self.differences(other), None)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Matrix.identity(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.nz == other.nz
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.nz, self.den))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(scalar_to_str, row)) for row in self.to_lists())
        return f"Matrix({self.rows}x{self.cols}: [{body}])"


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product; raises ShapeError naming both shapes on mismatch.

    A row of ``a`` with one nonzero ``x`` at column t gives ``x`` times
    row t of ``b``.  Any other row adds each of its nonzeros times the
    matching row of ``b`` into a dense integer row, which keeps the
    entries that did not cancel.
    """
    if a.cols != b.rows:
        raise ShapeError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    m = b.cols
    cols = range(m)
    bnz = b.nz
    out = []
    for arow in a.nz:
        if len(arow) > 1:
            acc = [0] * m
            for t, x in arow:
                for j, y in bnz[t]:
                    acc[j] += x * y
            out.append(tuple(zip(compress(cols, acc), compress(acc, acc))))
        elif arow:
            t, x = arow[0]
            out.append(bnz[t] if x == 1 else tuple([(j, x * y) for j, y in bnz[t]]))
        else:
            out.append(())
    return Matrix._raw(a.rows, m, out, a.den * b.den)


def kron(a: Matrix, b: Matrix) -> Matrix:
    cb = b.cols
    bnz = b.nz
    out = []
    for arow in a.nz:
        if not arow:
            out += ((),) * b.rows
            continue
        shifted = [(ja * cb, x) for ja, x in arow]
        for brow in bnz:
            out.append(tuple([(o + jb, x * y) for o, x in shifted for jb, y in brow]) if brow else ())
    return Matrix._raw(a.rows * b.rows, a.cols * cb, out, a.den * b.den)


def swap_matrix(d1: int, d2: int) -> Matrix:
    """Permutation matrix of the tensor-factor swap, size d1*d2."""
    n = d1 * d2
    # row j * d1 + i has its one at column i * d2 + j
    return Matrix._new(n, n, tuple([((i * d2 + j, 1),) for j in range(d2) for i in range(d1)]))


def _dense(row, ncols: int) -> list[int]:
    """One row of ``nz`` as a dense integer row."""
    out = [0] * ncols
    for j, v in row:
        out[j] = v
    return out


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
    # zero rows do not change the rank
    return _reduce([_dense(row, a.cols) for row in a.nz if row], a.cols)[0]


def inverse(a: Matrix) -> Matrix:
    """Inverse by fraction-free Gauss-Jordan elimination of ``[N | I]``,
    where ``a = N / a.den``; raises ShapeError if singular."""
    if a.rows != a.cols:
        raise ShapeError(f"cannot invert non-square {a.rows}x{a.cols}")
    n = a.rows
    rows = []
    for i, row in enumerate(a.nz):
        dense = _dense(row, 2 * n)
        dense[n + i] = 1
        rows.append(dense)
    r, pivot = _reduce(rows, n)
    if r < n:
        raise ShapeError(f"matrix of rank < {n} has no inverse")
    # [N | I] is now [p * I | p * N^-1] with p the last pivot (+-det N),
    # and a^-1 = a.den * N^-1
    d = a.den
    nz = [[(j, d * x) for j, x in enumerate(row[n:]) if x] for row in rows]
    return Matrix._raw(n, n, nz, pivot)


def scalar_to_str(x: ScalarLike) -> str:
    return str(_as_fraction(x))


def scalar_from_str(s: Union[str, int]) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational scalar: {s!r}") from exc


def matrix_to_json(a: Matrix) -> list[list[str]]:
    return [[scalar_to_str(x) for x in row] for row in a.to_lists()]


def matrix_from_json(obj) -> Matrix:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ValueError("matrix JSON must be a list of rows")
    rows = len(obj)
    cols = len(obj[0]) if rows else 0
    flat = []
    for r in obj:
        if len(r) != cols:
            raise ValueError("matrix JSON has ragged rows")
        flat.extend(scalar_from_str(x) for x in r)
    return Matrix(rows, cols, flat)
