"""Fusion rings and their Grothendieck Frobenius algebras.

A fusion ring is a based ring: labels with a distinguished unit (index
0), a dual involution, and nonnegative-integer structure constants
``N[i][j][k]`` counting how often label k occurs in the product of i
and j.  The structure matrix mu (N[i][j][k] at row k, column i*r + j)
and the unit label interpret pants and cap, and the unit laws,
associativity and commutativity are the circle relations R2a, R2b, R1a
and R4a on them.  The duality law (the unit occurs in i.j exactly when
j is the dual of i, with multiplicity one) and that the involution
squares to the identity are checked directly.

For a commutative ring, extending scalars and pairing <i, j> = [j ==
dual(i)] yields a commutative Frobenius algebra; the dimension of the
invariant space of a word of labels is the multiplicity of the unit in
its iterated product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .evaluate import Interpretation, check_relations
from .exactlin import Matrix, array_from_json, integer_from_json, object_from_json
from .frobenius import BilinearPairing, FrobeniusAlgebra, _algebra_signature, _complete

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


_RING_LAWS = ("R1a_assoc", "R2a_unit_left", "R2b_unit_right", "R4a_commutative")


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
        if not all(isinstance(label, str) for label in self.labels) or len(set(self.labels)) != r:
            raise ValueError(f"labels must be distinct strings, got {list(self.labels)!r}")
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
    """Every failing rule, with its witness.  When a constant is not an
    ``int`` no law is evaluated: the report lists the nonnegative-integer
    failures and the dual checks only."""
    return _validate(ring)[0]


def _validate(ring: FusionRing) -> tuple[FusionRingReport, Interpretation | None, dict]:
    """The report, the ring's interpretation and, per law, the (row, column)
    of each entry where its sides differ; None and {} if no law is evaluated."""
    r, n = ring.rank, ring.n
    cells = {(i, j, k): n[i][j][k] for i, j, k in itertools.product(range(r), repeat=3)}
    failures = [("nonnegative-integer", at) for at, v in cells.items() if not isinstance(v, int) or v < 0]
    interp, differs = None, {}
    if all(isinstance(v, int) for v in cells.values()):
        mu = Matrix.from_entries(r, r * r, {(k, i * r + j): v for (i, j, k), v in cells.items() if v})
        eta = Matrix.from_entries(r, 1, {(0, 0): 1})
        interp = Interpretation(_algebra_signature(_RING_LAWS), {"S1": r}, {"pants": mu, "cap": eta})
        for c in check_relations(interp).checks:
            differs[c.relation.name] = [divmod(x, c.lhs.cols) for x in c.lhs.differences(c.rhs)]
        units = [("left-unit", (j, k)) for k, j in differs["R2a_unit_left"]]
        units += [("right-unit", (j,)) for j in {j for _, j in differs["R2b_unit_right"]}]
        # by label; the stable sort keeps a label's left-unit witnesses first
        failures += sorted(units, key=lambda failure: failure[1][0])
        assoc = [(ijk // (r * r), ijk // r % r, ijk % r, l) for l, ijk in differs["R1a_assoc"]]
        failures += [("associativity", witness) for witness in sorted(assoc)]
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
    return FusionRingReport(tuple(failures)), interp, differs


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
    vec = [int(k == word[0]) for k in range(r)]
    for idx in word[1:]:
        vec = [sum(v * ring.n[i][idx][k] for i, v in enumerate(vec) if v) for k in range(r)]
    return vec[0]


def grothendieck_frobenius(ring: FusionRing) -> FrobeniusAlgebra:
    """Frobenius algebra on the labels with pairing [j == dual(i)].

    Requires a valid ring, commutative by relation R4a; its structure
    matrix becomes the product, the unit label the unit, and coproduct
    and counit come out of the economy conversion past its law check.
    """
    report, interp, differs = _validate(ring)
    if not report.ok:
        raise ValueError(f"invalid fusion ring:\n{report.describe()}")
    r = ring.rank
    if differs["R4a_commutative"]:
        raise NotCommutativeRing(min((ij // r, ij % r, k) for k, ij in differs["R4a_commutative"]))
    gram = Matrix.from_entries(r, r, {(i, d): 1 for i, d in enumerate(ring.dual)})
    mu, eta = interp.gen_matrix["pants"], interp.gen_matrix["cap"]
    return _complete(r, mu, eta, BilinearPairing(r, gram), ring.labels)


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
        obj = object_from_json(obj, "top level")
        labels = tuple(array_from_json(obj["labels"], "labels"))
        dual = tuple(integer_from_json(x) for x in array_from_json(obj["dual"], "dual"))
        table = tuple(
            tuple(
                tuple(integer_from_json(x) for x in array_from_json(row, "N"))
                for row in array_from_json(plane, "N")
            )
            for plane in array_from_json(obj["N"], "N")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed fusion ring JSON: {exc}") from exc
    return FusionRing(labels, dual, table)
