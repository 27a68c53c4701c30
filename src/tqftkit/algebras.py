"""Stock commutative (and one noncommutative) Frobenius algebras.

Group algebras carry the pairing <g, h> = 1 iff h is the inverse of g;
centers of sums of matrix blocks carry the trace pairing restricted to
the block identities; Milnor rings of one-variable potentials x^d carry
the residue pairing, normalized here as the coefficient of x^(d-2) in
the product divided by d.  The upper-triangular 2x2 algebra is the stock
example of an associative unital algebra admitting no Frobenius form; it
is returned as raw (dim, mu, eta) data.

Built-in names for the CLI: ``z2``, ``z3``, ``s3``, ``milnor:d``,
``center:[n1,n2,...]`` and ``triangular``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import Matrix
from .frobenius import BilinearPairing, FrobeniusAlgebra, from_economy

__all__ = [
    "FiniteGroupTable",
    "builtin_algebra",
    "cyclic_group",
    "direct_product",
    "group_algebra",
    "matrix_center_algebra",
    "milnor_ring",
    "symmetric_group",
    "trivial_algebra",
    "upper_triangular_algebra",
]


@dataclass(frozen=True)
class FiniteGroupTable:
    """Multiplication table of a finite group, validated at construction."""

    order: int
    mult: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    identity: int
    names: tuple[str, ...]

    def __post_init__(self):
        n = self.order
        if len(self.mult) != n or any(len(r) != n for r in self.mult):
            raise ValueError("multiplication table must be order x order")
        if len(self.inverse) != n or len(self.names) != n:
            raise ValueError("inverse list and names must have length order")
        for i in range(n):
            for j in range(n):
                if not 0 <= self.mult[i][j] < n:
                    raise ValueError("table entry out of range")
        if not all(0 <= g < n for g in self.inverse):
            raise ValueError("inverse entry out of range")
        e = self.identity
        if not 0 <= e < n:
            raise ValueError(f"identity {e} out of range")
        for i in range(n):
            if self.mult[e][i] != i or self.mult[i][e] != i:
                raise ValueError(f"element {e} is not an identity")
            if self.mult[i][self.inverse[i]] != e or self.mult[self.inverse[i]][i] != e:
                raise ValueError(f"inverse of element {i} is wrong")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.mult[self.mult[i][j]][k] != self.mult[i][self.mult[j][k]]:
                        raise ValueError(f"table is not associative at ({i},{j},{k})")

    @property
    def abelian(self) -> bool:
        return all(
            self.mult[i][j] == self.mult[j][i]
            for i in range(self.order)
            for j in range(self.order)
        )


def cyclic_group(n: int) -> FiniteGroupTable:
    if n < 1:
        raise ValueError("order must be positive")
    mult = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inverse = tuple((-i) % n for i in range(n))
    names = tuple("e" if i == 0 else ("g" if i == 1 else f"g{i}") for i in range(n))
    return FiniteGroupTable(n, mult, inverse, 0, names)


def direct_product(a: FiniteGroupTable, b: FiniteGroupTable) -> FiniteGroupTable:
    pairs = list(itertools.product(range(a.order), range(b.order)))
    index = {p: i for i, p in enumerate(pairs)}
    mult = tuple(
        tuple(index[(a.mult[x1][x2], b.mult[y1][y2])] for (x2, y2) in pairs)
        for (x1, y1) in pairs
    )
    inverse = tuple(index[(a.inverse[x], b.inverse[y])] for (x, y) in pairs)
    names = tuple(f"({a.names[x]},{b.names[y]})" for (x, y) in pairs)
    return FiniteGroupTable(len(pairs), mult, inverse, index[(a.identity, b.identity)], names)


def symmetric_group(n: int) -> FiniteGroupTable:
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(n))

    mult = tuple(tuple(index[compose(p, q)] for q in perms) for p in perms)
    inverse = []
    for p in perms:
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        inverse.append(index[tuple(inv)])
    names = tuple("".join(str(v) for v in p) for p in perms)
    return FiniteGroupTable(len(perms), mult, tuple(inverse), index[tuple(range(n))], names)


def group_algebra(table: FiniteGroupTable) -> FrobeniusAlgebra:
    """The group algebra with pairing <g, h> = [h == g^-1]."""
    n = table.order
    products = {(m, i * n + j): 1 for i, row in enumerate(table.mult) for j, m in enumerate(row)}
    mu = Matrix.from_entries(n, n * n, products)
    eta = Matrix.from_entries(n, 1, {(table.identity, 0): 1})
    gram = Matrix.from_entries(n, n, {(i, g): 1 for i, g in enumerate(table.inverse)})
    return from_economy(n, mu, eta, BilinearPairing(n, gram), table.names)


def trivial_algebra() -> FrobeniusAlgebra:
    return group_algebra(cyclic_group(1))


def matrix_center_algebra(block_sizes: list[int]) -> FrobeniusAlgebra:
    """Center of a direct sum of square matrix blocks, trace pairing.

    The center is spanned by the block identities e_i, which are
    orthogonal idempotents; the trace pairing restricts to the diagonal
    matrix of block sizes.
    """
    if not block_sizes:
        raise ValueError("need at least one block")
    if any(n < 1 for n in block_sizes):
        raise ValueError("block sizes must be positive")
    k = len(block_sizes)
    mu = Matrix.from_entries(k, k * k, {(i, i * k + i): 1 for i in range(k)})
    eta = Matrix.from_entries(k, 1, {(i, 0): 1 for i in range(k)})
    gram = Matrix.from_entries(k, k, {(i, i): size for i, size in enumerate(block_sizes)})
    names = tuple(f"e{i}" for i in range(k))
    return from_economy(k, mu, eta, BilinearPairing(k, gram), names)


def milnor_ring(d: int) -> FrobeniusAlgebra:
    """Milnor ring k[x]/(x^(d-1)) of the potential x^d with the
    one-variable residue pairing.

    Basis 1, x, ..., x^(d-2); multiplication truncates at x^(d-1); the
    pairing of x^a and x^b is 1/d when a + b = d - 2 and zero otherwise.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    n = d - 1
    mu = Matrix.from_entries(n, n * n, {(a + b, a * n + b): 1 for a in range(n) for b in range(n - a)})
    eta = Matrix.from_entries(n, 1, {(0, 0): 1})
    gram = Matrix.from_entries(n, n, {(a, n - 1 - a): Fraction(1, d) for a in range(n)})
    names = tuple("1" if a == 0 else ("x" if a == 1 else f"x{a}") for a in range(n))
    return from_economy(n, mu, eta, BilinearPairing(n, gram), names)


def upper_triangular_algebra() -> tuple[int, Matrix, Matrix]:
    """Upper triangular 2x2 matrices on the basis E11, E12, E22.

    Associative and unital, but no choice of pairing makes it Frobenius;
    returned raw since there is no coalgebra half to construct.
    """
    # products of matrix units: E_{ab} E_{cd} = [b == c] E_{ad}
    basis = [(0, 0), (0, 1), (1, 1)]
    index = {u: i for i, u in enumerate(basis)}
    mu = Matrix.from_entries(3, 9, {
        (index[(a, d)], 3 * i + j): 1
        for i, (a, b) in enumerate(basis) for j, (c, d) in enumerate(basis) if b == c
    })
    eta = Matrix.from_entries(3, 1, {(0, 0): 1, (2, 0): 1})  # E11 + E22
    return 3, mu, eta


# --- CLI registry ----------------------------------------------------------


_SPEC_INTEGER = re.compile(r"[+-]?[0-9]+")  # as scalar_from_str reads an integer


def _spec_integer(text: str, what: str) -> int:
    """One integer item of a built-in spec, in ASCII digits with an optional
    sign; an empty item, a space, "_" or another script's digits are malformed."""
    if not _SPEC_INTEGER.fullmatch(text):
        raise ValueError(f"{what} must be an integer, got {text!r}")
    return int(text)


def builtin_algebra(name: str) -> FrobeniusAlgebra:
    """Resolve a built-in algebra name; raises KeyError for unknown names
    and ValueError for names (like ``triangular``) with no Frobenius form."""
    if name == "z2":
        return group_algebra(cyclic_group(2))
    if name == "z3":
        return group_algebra(cyclic_group(3))
    if name == "s3":
        return group_algebra(symmetric_group(3))
    if name.startswith("milnor:"):
        return milnor_ring(_spec_integer(name.split(":", 1)[1], "degree"))
    if name.startswith("center:"):
        spec = name.split(":", 1)[1]
        if not (spec.startswith("[") and spec.endswith("]")):
            raise ValueError(f"center spec must look like center:[1,2], got {name!r}")
        return matrix_center_algebra([_spec_integer(s, "block size") for s in spec[1:-1].split(",")])
    if name == "triangular":
        raise ValueError(
            "the upper-triangular algebra admits no Frobenius form; "
            "it is only available as raw algebra data"
        )
    raise KeyError(name)

