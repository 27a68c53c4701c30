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

* ``Matrix.from_entries(rows, cols, {(i, j): x})``, the one constructor
  that brings scalars to the canonical form, costs one step per given
  entry and per row, so a matrix built from its nonzeros never pays for
  its zeros.  ``Matrix(rows, cols, entries)``, its dense adapter behind
  ``from_rows``, ``column``, ``row`` and ``scalar``, reads all
  ``rows * cols`` entries.  ``identity``, ``zeros`` and ``swap_matrix``
  cost one step per row.
* ``padded_matmul(la, a, ra, lb, b, rb)``, the product
  ``(I_la (x) a (x) I_ra) . (I_lb (x) b (x) I_rb)``, is the one product
  kernel; ``matmul(a, b)`` is its case with no padding.  The padding is
  an index map per row, so no padded factor is built.  It costs the
  nonzero products plus one step per row of either padded factor.  A
  result row with one term (identity padding, swaps) copies, shifts or
  scales a row of ``b``.  A longer one accumulates in an integer row of
  the result's width, or in a dict when its terms times the longest row
  of ``b`` stay under one ``_SPARSE``-th of that width, so a wide,
  sparse row costs its terms and not its width.
* ``kron(a, b)`` costs ``nnz(a) * nnz(b)`` plus one step per result row.
* ``transpose``, ``reshape``, ``scale`` and ``differences`` cost ``nnz``
  plus one step per row.
* ``rank`` and ``inverse`` unpack the nonzero rows to dense integer rows
  for one fraction-free Gauss-Jordan elimination (``_reduce``); no other
  code builds a dense view of a matrix.
* ``matrix_to_json`` and ``repr`` write each row from its nonzeros: one
  ``Fraction`` and one text per nonzero, and the shared ``"0"`` elsewhere.

Scalars are ``int`` and ``fractions.Fraction``: the constructors and
``scale`` read them through ``numerator`` and ``denominator`` and raise
TypeError on anything else, text, ``bool`` and ``float`` included.
Index conventions are fixed once here and used by every higher layer:

* ``kron(a, b)`` sends row pair ``(i_a, i_b)`` to ``i_a * b.rows + i_b``
  and columns likewise.
* ``swap_matrix(d1, d2)`` is the permutation sending basis index
  ``i * d2 + j`` to ``j * d1 + i`` for ``i < d1``, ``j < d2``.

Scalars serialize as ``"p/q"`` with ``/q`` omitted when the denominator
is one; matrices serialize as JSON lists of rows of such strings.
``scalar_from_str`` is the one place where text becomes a scalar, and
it reads only that form: an optional sign, ASCII digits, and optionally
``/`` and ASCII digits.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from itertools import compress, product
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

# The kernels are pure Python; the name is kept for reports that record it.
BACKEND = "python"

# a product row whose terms can touch under one _SPARSE-th of the result's
# columns accumulates in a dict, any other in a dense integer row
_SPARSE = 8

Scalar = Fraction
ScalarLike = Union[Fraction, int]
_SCALAR_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # scalar text as scalar_to_str writes it

__all__ = [
    "BACKEND",
    "Matrix",
    "Scalar",
    "ShapeError",
    "array_from_json",
    "integer_from_json",
    "inverse",
    "kron",
    "matmul",
    "matrix_from_json",
    "matrix_to_json",
    "object_from_json",
    "padded_matmul",
    "rank",
    "scalar_from_str",
    "scalar_to_str",
    "swap_matrix",
]


class ShapeError(ValueError):
    """Raised when matrix shapes do not fit the requested operation."""


class Matrix:
    """An immutable rows-by-cols matrix of exact rationals.

    ``nz`` holds one tuple per row of that row's nonzeros as sorted
    ``(column, numerator)`` pairs, and ``den`` is the one positive common
    denominator, with ``gcd(den, *numerators) == 1``.
    """

    __slots__ = ("rows", "cols", "nz", "den")

    def __new__(cls, rows: int, cols: int, entries: Iterable[ScalarLike]) -> "Matrix":
        """The matrix of ``rows * cols`` entries given in row-major order:
        the dense adapter over ``from_entries``."""
        if not isinstance(entries, (list, tuple)):
            entries = list(entries)
        if len(entries) != rows * cols and rows >= 0 and cols >= 0:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        # exact zeros are left out here, so a mostly zero list costs memory
        # for its nonzeros only
        positions = product(range(rows), range(cols))
        return cls.from_entries(rows, cols, {
            ij: x for ij, x in zip(positions, entries) if x or type(x) not in (int, Fraction)
        })

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Mapping[tuple[int, int], ScalarLike]) -> "Matrix":
        """The rows-by-cols matrix with ``entries[i, j]`` at ``(i, j)`` and
        zero wherever no entry is given; given zeros are dropped.  The one
        constructor that brings scalars to the canonical form."""
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape {rows}x{cols}")
        nz = [[] for _ in range(rows)]
        dens = []  # the denominators other than one
        for (i, j), x in entries.items():
            if type(i) is not int or type(j) is not int:
                raise TypeError(f"not a matrix index: ({i!r}, {j!r})")
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeError(f"entry ({i},{j}) outside {rows}x{cols}")
            if type(x) is not int:
                if not isinstance(x, Fraction):
                    raise TypeError(f"not an exact scalar: {x!r}")
                if x.denominator == 1:
                    x = x.numerator
                else:
                    dens.append(x.denominator)
            if x:
                nz[i].append((j, x))
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the form is already canonical
        den = lcm(*dens)
        if den != 1:
            nz = [[(j, x.numerator * (den // x.denominator)) for j, x in row] for row in nz]
        return cls._new(rows, cols, tuple([tuple(sorted(row)) for row in nz]), den)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        # pickle and deepcopy rebuild from the canonical fields
        return Matrix._new, (self.rows, self.cols, self.nz, self.den)

    @classmethod
    def _new(cls, rows: int, cols: int, nz: tuple, den: int = 1) -> "Matrix":
        """The matrix with these fields, which must already be canonical."""
        m = object.__new__(cls)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_nz(m, nz)
        _set_den(m, den)
        return m

    @classmethod
    def _raw(cls, rows: int, cols: int, nz, den: int) -> "Matrix":
        """The matrix ``nz / den`` brought to lowest terms.  ``nz`` is one
        sequence per row of sorted, zero-free ``(column, numerator)``
        pairs; ``den`` is any nonzero integer.  A tuple of tuple rows is
        kept as it is unless the sign or a common factor changes it."""
        if den != 1:
            if den < 0:
                den = -den
                nz = [[(j, -v) for j, v in row] for row in nz]
            g = gcd(den, *[v for row in nz for _, v in row])
            if g != 1:
                den //= g
                nz = [[(j, v // g) for j, v in row] for row in nz]
        if type(nz) is not tuple:
            nz = tuple(map(tuple, nz))
        return cls._new(rows, cols, nz, den)

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

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i},{j}) outside {self.rows}x{self.cols}")
        row = self.nz[i]
        k = bisect_left(row, (j,))  # (j,) sorts before every (j, v)
        if k < len(row) and row[k][0] == j:
            return Fraction(row[k][1], self.den)
        return Fraction(0)

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
        if type(factor) is not int and not isinstance(factor, Fraction):
            raise TypeError(f"not an exact scalar: {factor!r}")
        p = factor.numerator
        if not p:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix._raw(
            self.rows,
            self.cols,
            [[(j, p * v) for j, v in row] for row in self.nz],
            self.den * factor.denominator,
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
        """Entries as ``p/q``; one whose numerator or denominator may be
        over the interpreter's digit limit shows its bit length instead,
        as ``<20001-bit>``, and is never converted to text."""
        body = "; ".join(map(" ".join, _entry_texts(self, _repr_scalar)))
        return f"Matrix({self.rows}x{self.cols}: [{body}])"


# the slots' own setters, which the blocked __setattr__ leaves usable
_set_rows, _set_cols, _set_nz, _set_den = (Matrix.__dict__[name].__set__ for name in Matrix.__slots__)


def padded_matmul(la: int, a: Matrix, ra: int, lb: int, b: Matrix, rb: int) -> Matrix:
    """The product ``(I_la (x) a (x) I_ra) . (I_lb (x) b (x) I_rb)``, with
    neither padded factor built; raises ShapeError naming both padded
    shapes on mismatch.

    Padding is an index map per row.  Row ``(x, i, y)`` of the padded
    ``a`` is row i of ``a`` with column t read as row ``(x, t, y)`` of the
    padded ``b``, and that row is row t of ``b`` with column j written at
    ``(x, j, y)``.  A result row with one term copies, shifts or scales
    that row of the padded ``b``.  A longer one adds its terms into an
    integer row of the result's width, or into a dict when its terms
    times the longest row of ``b`` touch under one ``_SPARSE``-th of that
    width, so a wide result row costs its terms and not its width.
    """
    # plan: the rows of the padded a, each a row of a read at stride ra with
    # the first row of the padded b it reads
    if la == ra == 1:
        rows, inner = a.rows, a.cols
        plan = zip(a.nz, bytes(rows))
    else:
        rows, inner = la * a.rows * ra, la * a.cols * ra
        arows = a.nz if ra == 1 else [[(t * ra, v) for t, v in row] for row in a.nz]
        plan = [(row, x * a.cols * ra + y) for x in range(la) for row in arows for y in range(ra)]
    # row T of the padded b: row bnz[T] of b, written at stride rb, plus boff[T]
    if lb == rb == 1:
        width = b.cols
        bnz, boff = b.nz, bytes(b.rows)
    else:
        width = lb * b.cols * rb
        if rb == 1:
            bnz = b.nz * lb
        else:
            scaled = [tuple([(j * rb, w) for j, w in row]) for row in b.nz]
            bnz = [row for row in scaled for _ in range(rb)] * lb
        boff = [x * b.cols * rb + y for x in range(lb) for _ in range(b.rows) for y in range(rb)]
    if inner != len(bnz):
        raise ShapeError(f"cannot multiply {rows}x{inner} by {len(bnz)}x{width}")
    longest = None  # the longest row of b, read when a row might be sparse
    out = []
    for arow, base in plan:
        if len(arow) == 1:
            t, v = arow[0]
            t += base
            row, off = bnz[t], boff[t]
            if off:
                row = tuple([(j + off, w) for j, w in row])
            out.append(row if v == 1 else tuple([(j, v * w) for j, w in row]))
            continue
        if not arow:
            out.append(())
            continue
        wide = width > _SPARSE * len(arow)
        if wide and longest is None:
            longest = max(map(len, b.nz))
        acc = defaultdict(int) if wide and _SPARSE * len(arow) * longest < width else [0] * width
        for t, v in arow:
            t += base
            off = boff[t]
            for j, w in bnz[t]:
                acc[j + off] += v * w
        if type(acc) is list:
            out.append(tuple(zip(compress(range(width), acc), compress(acc, acc))))
        else:
            out.append(tuple(sorted([(j, s) for j, s in acc.items() if s])))
    den = a.den * b.den
    if den == 1:
        return Matrix._new(rows, width, tuple(out))
    return Matrix._raw(rows, width, tuple(out), den)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product: ``padded_matmul`` with no padding."""
    return padded_matmul(1, a, 1, 1, b, 1)


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
    return Matrix._raw(a.rows * b.rows, a.cols * cb, tuple(out), a.den * b.den)


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
    """``x`` as ``"p/q"``; raises ValueError when p or q has more digits
    than the interpreter converts to text (``sys.get_int_max_str_digits()``)."""
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"exact value too long to print: over {limit} digits") from None


def _repr_scalar(x: Fraction) -> str:
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    limit = sys.get_int_max_str_digits()
    # an integer of b bits has at most floor(b log10 2) + 1 digits
    if limit and bits * 30103 // 100000 >= limit:
        return f"{'-' if x < 0 else ''}<{bits}-bit>"
    return str(x)


def integer_from_json(x) -> int:
    """``x``, a JSON integer or an integral float, as an int; booleans,
    strings and every other value are malformed."""
    if type(x) is int or (type(x) is float and x.is_integer()):
        return int(x)
    raise ValueError(f"not an integer: {x!r}")


def array_from_json(x, what: str) -> list:
    """``x``, which must be a JSON array (a string is not read as one);
    the TypeError otherwise names it as ``what``."""
    if type(x) is not list:
        raise TypeError(f"{what} must be a JSON array, got {type(x).__name__}")
    return x


def object_from_json(x, what: str) -> dict:
    """``x``, which must be a JSON object; the TypeError otherwise names it
    as ``what``."""
    if type(x) is not dict:
        raise TypeError(f"{what} must be a JSON object, got {type(x).__name__}")
    return x


def scalar_from_str(s: Union[str, int]) -> Fraction:
    """``s``, a JSON integer or text ``p`` or ``p/q`` as ``scalar_to_str`` writes it, as an exact
    rational; other text, a boolean and a float that is no integer are malformed."""
    try:
        if type(s) is not str:
            return Fraction(integer_from_json(s) if isinstance(s, (bool, float)) else s)
        if not _SCALAR_TEXT.fullmatch(s):
            raise ValueError(s)
        p, _, q = s.partition("/")  # each part read by int, in time bounded by its length
        return Fraction(int(p), int(q or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational scalar: {s!r}") from exc


def _entry_texts(a: Matrix, text) -> list[list[str]]:
    """The rows of ``a`` as entry texts, written from ``nz``: ``text`` of each
    nonzero and ``"0"`` wherever a row has no pair."""
    out = []
    for row in a.nz:
        texts = ["0"] * a.cols
        for j, v in row:
            texts[j] = text(Fraction(v, a.den))
        out.append(texts)
    return out


def matrix_to_json(a: Matrix) -> list[list[str]]:
    return _entry_texts(a, scalar_to_str)


def matrix_from_json(obj) -> Matrix:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ValueError("matrix JSON must be a list of rows")
    try:
        return Matrix.from_rows([[scalar_from_str(x) for x in r] for r in obj])
    except ShapeError:
        raise ValueError("matrix JSON has ragged rows") from None
