"""Closed forms that the benchmark checks results against.

Each value here is derived by hand from the algebra's definition, not by
calling the program.  The closed genus-g surface of a commutative
Frobenius algebra evaluates to eps(w^g), with w = mu(delta(1)) the handle
element:

* group algebra of an abelian group of order n (and the pointed fusion
  ring vec_z(n)): w = n.1, so Z_g = n^g;
* Milnor ring of x^d, d >= 3, with the residue pairing scaled by 1/d:
  w = d(d-1) x^(d-2), so Z_0 = 0, Z_1 = d-1 and Z_g = 0 for g >= 2;
* centre of matrix blocks of sizes n_i with the trace pairing:
  w = sum e_i / n_i, so Z_g = sum n_i^(1-g);
* fusion rings: Z_g = sum over characters chi of (sum_i |chi(i)|^2)^(g-1),
  which is 2 * 4^(g-1) + 2^(g-1) for Ising and x^(g-1) + y^(g-1) with
  x + y = 5, xy = 5 for Fibonacci.
"""

from __future__ import annotations

from fractions import Fraction


def group_invariant(order: int):
    return lambda g: Fraction(order) ** g


def milnor_invariant(degree: int):
    if degree < 3:
        raise ValueError("closed form holds for degree >= 3")
    return lambda g: Fraction(degree - 1) if g == 1 else Fraction(0)


def center_invariant(sizes):
    return lambda g: sum((Fraction(n) ** (1 - g) for n in sizes), Fraction(0))


def trivial_invariant(g: int) -> Fraction:
    return Fraction(1)


def ising_invariant(g: int) -> Fraction:
    return 2 * Fraction(4) ** (g - 1) + Fraction(2) ** (g - 1)


def fibonacci_invariant(g: int) -> Fraction:
    # power sums s_k = x^k + y^k of the roots of t^2 - 5t + 5, with
    # s_-1 = (x + y) / xy = 1, s_0 = 2 and s_k = 5 s_(k-1) - 5 s_(k-2)
    prev, cur = Fraction(1), Fraction(2)
    for _ in range(g - 1):
        prev, cur = cur, 5 * cur - 5 * prev
    return prev if g == 0 else cur


def fibonacci_hom_dimension(k: int) -> int:
    """Multiplicity of the unit in tau^k: 1, 0, 1, 1, 2, 3, 5, ..."""
    if k == 0:
        return 1
    a, b = 0, 1  # multiplicities of (1, tau) in tau^1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


def mat_mul(a, b):
    """Product of two matrices given as lists of rows of Fractions."""
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def identity_rows(n: int):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
