"""Fusion rings and their Grothendieck Frobenius algebras.

A fusion ring is a based ring: labels with a distinguished unit (index
0), a dual involution, and nonnegative-integer structure constants
``N[i][j][k]`` counting how often label k occurs in the product of i
and j.  Validation checks unit laws, associativity, the duality law
(the unit occurs in i.j exactly when j is the dual of i, with
multiplicity one), and that the involution squares to the identity.

For a commutative ring, extending scalars and pairing <i, j> = [j ==
dual(i)] yields a commutative Frobenius algebra; the dimension of the
invariant space of a word of labels is the multiplicity of the unit in
its iterated product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactlin import Matrix
from .frobenius import BilinearPairing, FrobeniusAlgebra, from_economy

__all__ = [
    "FusionRing",
    "FusionRingReport",
    "NotCommutativeRing",
    "fibonacci",
    "fusion_ring_from_json",
    "fusion_ring_to_json",
    "grothendieck_frobenius",
    "hom_dimension",
    "ising",
    "validate_fusion_ring",
    "vec_z",
]


class NotCommutativeRing(ValueError):
    def __init__(self, witness: tuple[int, int, int]):
        self.witness = witness
        i, j, k = witness
        super().__init__(f"fusion product is not commutative: N[{i}][{j}][{k}] != N[{j}][{i}][{k}]")


@dataclass(frozen=True)
class FusionRing:
    labels: tuple[str, ...]
    dual: tuple[int, ...]
    n: tuple[tuple[tuple[int, ...], ...], ...]  # n[i][j][k]

    def __post_init__(self):
        r = len(self.labels)
        if r == 0:
            raise ValueError("need at least the unit label")
        if len(self.dual) != r:
            raise ValueError("dual involution must cover every label")
        if len(self.n) != r or any(
            len(plane) != r or any(len(row) != r for row in plane) for plane in self.n
        ):
            raise ValueError("structure constants must be rank x rank x rank")

    @property
    def rank(self) -> int:
        return len(self.labels)

    def label_index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise KeyError(f"unknown label {name!r}") from None


@dataclass(frozen=True)
class FusionRingReport:
    failures: tuple[tuple[str, tuple], ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if self.ok:
            return "valid fusion ring"
        return "\n".join(f"{rule}: witness {witness}" for rule, witness in self.failures)


def validate_fusion_ring(ring: FusionRing) -> FusionRingReport:
    failures = []
    r = ring.rank
    n = ring.n
    for i in range(r):
        for j in range(r):
            for k in range(r):
                v = n[i][j][k]
                if not isinstance(v, int) or v < 0:
                    failures.append(("nonnegative-integer", (i, j, k)))
    for j in range(r):
        for k in range(r):
            if n[0][j][k] != (1 if j == k else 0):
                failures.append(("left-unit", (j, k)))
        if any(n[j][0][k] != (1 if j == k else 0) for k in range(r)):
            failures.append(("right-unit", (j,)))
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    lhs = sum(n[i][j][m] * n[m][k][l] for m in range(r))
                    rhs = sum(n[j][k][m] * n[i][m][l] for m in range(r))
                    if lhs != rhs:
                        failures.append(("associativity", (i, j, k, l)))
    if ring.dual[0] != 0:
        failures.append(("unit-self-dual", (0,)))
    for i in range(r):
        if not 0 <= ring.dual[i] < r:
            failures.append(("dual-range", (i,)))
            continue
        if ring.dual[ring.dual[i]] != i:
            failures.append(("dual-involution", (i,)))
        for j in range(r):
            expected = 1 if j == ring.dual[i] else 0
            if n[i][j][0] != expected:
                failures.append(("duality", (i, j)))
    return FusionRingReport(tuple(failures))


def hom_dimension(ring: FusionRing, word: Sequence[int]) -> int:
    """Multiplicity of the unit in the iterated product of a label word.

    Left-to-right contraction of the structure constants; the empty word
    is the unit itself, so its multiplicity is one.
    """
    r = ring.rank
    for idx in word:
        if not 0 <= idx < r:
            raise IndexError(f"label index {idx} out of range 0..{r - 1}")
    if not word:
        return 1
    vec = [0] * r
    vec[word[0]] = 1
    for idx in word[1:]:
        nxt = [0] * r
        for i in range(r):
            v = vec[i]
            if v == 0:
                continue
            row = ring.n[i][idx]
            for k in range(r):
                if row[k]:
                    nxt[k] += v * row[k]
        vec = nxt
    return vec[0]


def grothendieck_frobenius(ring: FusionRing) -> FrobeniusAlgebra:
    """Frobenius algebra on the labels with pairing [j == dual(i)].

    Requires a valid, commutative ring; the structure constants become
    the product, the unit label the unit, and coproduct and counit come
    out of the economy conversion.
    """
    report = validate_fusion_ring(ring)
    if not report.ok:
        raise ValueError(f"invalid fusion ring:\n{report.describe()}")
    r = ring.rank
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if ring.n[i][j][k] != ring.n[j][i][k]:
                    raise NotCommutativeRing((i, j, k))
    mu_rows = [[0] * (r * r) for _ in range(r)]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                mu_rows[k][i * r + j] = ring.n[i][j][k]
    mu = Matrix.from_rows(mu_rows)
    eta = Matrix(r, 1, [1] + [0] * (r - 1))
    gram = Matrix.from_rows(
        [[1 if j == ring.dual[i] else 0 for j in range(r)] for i in range(r)]
    )
    return from_economy(r, mu, eta, BilinearPairing(r, gram), ring.labels)


# --- stock rings -----------------------------------------------------------


def vec_z(n: int) -> FusionRing:
    """Pointed fusion ring of the cyclic group of order n."""
    if n < 1:
        raise ValueError("order must be positive")
    labels = tuple("1" if i == 0 else f"g{i}" for i in range(n))
    dual = tuple((-i) % n for i in range(n))
    table = tuple(
        tuple(
            tuple(1 if k == (i + j) % n else 0 for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return FusionRing(labels, dual, table)


def fibonacci() -> FusionRing:
    """Two labels 1, tau with tau.tau = 1 + tau."""
    n = (
        ((1, 0), (0, 1)),
        ((0, 1), (1, 1)),
    )
    return FusionRing(("1", "tau"), (0, 1), n)


def ising() -> FusionRing:
    """Three labels 1, sigma, psi with sigma.sigma = 1 + psi."""
    n = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (1, 0, 1), (0, 1, 0)),
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    )
    return FusionRing(("1", "sigma", "psi"), (0, 1, 2), n)


# --- JSON ------------------------------------------------------------------


def fusion_ring_to_json(ring: FusionRing) -> dict:
    return {
        "labels": list(ring.labels),
        "dual": list(ring.dual),
        "N": [[list(row) for row in plane] for plane in ring.n],
    }


def fusion_ring_from_json(obj: dict) -> FusionRing:
    try:
        labels = tuple(obj["labels"])
        dual = tuple(int(x) for x in obj["dual"])
        table = tuple(
            tuple(tuple(int(x) for x in row) for row in plane) for plane in obj["N"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed fusion ring JSON: {exc}") from exc
    return FusionRing(labels, dual, table)
