"""Frobenius algebras over the rationals.

The full presentation carries a product, unit, coproduct and counit on a
basis-equipped space; the economy presentation carries only the algebra
and a nondegenerate invariant bilinear pairing.  The structure maps are
the values of the generators pants, cap, copants and cup of the circle
signature ``bord2_signature``, so their shapes are the ones those
generators' types give; they are checked once, by building the
interpretation of that signature.  ``from_economy`` and
``to_economy`` convert between the two: the counit is pairing against
the unit, the coproduct tensors against the copairing (the inverse Gram
matrix), and in the other direction the pairing is the counit of a
product.  The round trip is exact.

The axioms are not written out here.  They are the relations R1a..R4b
of the circle signature ``bord2_signature``, run through the evaluator
by ``check_relations``; ``check_axioms`` reads its report off the
relation names.  The algebra axioms alone (associativity and a two-sided
unit) are the same relations on the signature restricted to pants and
cap.

Morphisms are maps that are simultaneously algebra and coalgebra maps;
they are automatically invertible, and ``morphism_inverse`` computes the
inverse by the duality sandwich (copairing of the source, counit-product
pairing of the target) rather than by Gaussian elimination.

``admits_frobenius_form`` decides whether an associative unital algebra
carries any nondegenerate invariant pairing.  Every invariant pairing is
of the form (a, b) -> lam(a.b) for a linear functional lam, so the
question reduces to whether the Gram determinant, a polynomial of degree
at most dim in each of lam's dim coefficients, vanishes identically;
evaluating it on the grid {0..dim}^dim decides that deterministically.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import cache
from typing import Optional, Sequence

from .evaluate import Interpretation, RelationReport, check_relations
from .exactlin import (
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
)
from .terms import DualityData, Relation, Signature, Term, parse_term

__all__ = [
    "AxiomReport",
    "BilinearPairing",
    "FrobeniusAlgebra",
    "NotAFrobeniusMorphism",
    "NotAssociative",
    "NotUnital",
    "PairingDegenerate",
    "PairingNotInvariant",
    "admits_frobenius_form",
    "algebra_from_json",
    "algebra_to_json",
    "bord2_signature",
    "check_axioms",
    "check_morphism",
    "circle_interpretation",
    "from_economy",
    "morphism_inverse",
    "to_economy",
]


class NotAssociative(ValueError):
    pass


class NotUnital(ValueError):
    pass


class PairingDegenerate(ValueError):
    def __init__(self, found_rank: int, dim: int):
        self.rank = found_rank
        super().__init__(f"pairing has rank {found_rank} < {dim}")


class PairingNotInvariant(ValueError):
    def __init__(self, witness: tuple[int, int, int]):
        self.witness = witness
        i, j, k = witness
        super().__init__(
            f"pairing is not invariant: <b{i}.b{j}, b{k}> != <b{i}, b{j}.b{k}>"
        )


class NotAFrobeniusMorphism(ValueError):
    EQUATIONS = (
        "algebra map (mu' . (psi (x) psi) = psi . mu)",
        "unit (eta' = psi . eta)",
        "coalgebra map ((psi (x) psi) . delta = delta' . psi)",
        "counit (eps = eps' . psi)",
    )

    def __init__(self, equation_index: int):
        self.equation_index = equation_index
        super().__init__(
            f"equation {equation_index} fails: {self.EQUATIONS[equation_index - 1]}"
        )


@cache
def bord2_signature() -> Signature:
    """Circle signature with the eleven relation pairs R1a..R4b."""
    g0 = ["S1"]
    g1 = {
        "pants": (("S1", "S1"), ("S1",)),
        "copants": (("S1",), ("S1", "S1")),
        "cap": ((), ("S1",)),
        "cup": (("S1",), ()),
    }
    sig = Signature(g0, g1)

    def t(text: str) -> Term:
        return parse_term(text, sig)

    frob_left = t("(id[S1] * copants) ; (pants * id[S1])")
    frob_mid = t("pants ; copants")
    frob_right = t("(copants * id[S1]) ; (id[S1] * pants)")
    relations = [
        Relation("R1a_assoc", t("(pants * id[S1]) ; pants"), t("(id[S1] * pants) ; pants")),
        Relation("R1b_coassoc", t("copants ; (copants * id[S1])"), t("copants ; (id[S1] * copants)")),
        Relation("R2a_unit_left", t("(cap * id[S1]) ; pants"), t("id[S1]")),
        Relation("R2b_unit_right", t("(id[S1] * cap) ; pants"), t("id[S1]")),
        Relation("R2c_counit_left", t("copants ; (cup * id[S1])"), t("id[S1]")),
        Relation("R2d_counit_right", t("copants ; (id[S1] * cup)"), t("id[S1]")),
        Relation("R3a_frobenius", frob_left, frob_mid),
        Relation("R3b_frobenius", frob_mid, frob_right),
        Relation("R3c_frobenius", frob_left, frob_right),
        Relation("R4a_commutative", t("swap[S1,S1] ; pants"), t("pants")),
        Relation("R4b_cocommutative", t("copants ; swap[S1,S1]"), t("copants")),
    ]
    duality = {
        "S1": DualityData(coev=t("cap ; copants"), pairing=t("pants ; cup"))
    }
    return Signature(g0, g1, relations, duality)


_ALGEBRA_LAWS = ("R1a_assoc", "R2a_unit_left", "R2b_unit_right")


@cache
def _algebra_signature(laws: tuple[str, ...] = _ALGEBRA_LAWS) -> Signature:
    """The circle signature restricted to pants and cap, with the named
    relations only (by default associativity and the unit laws)."""
    bord2 = bord2_signature()
    return Signature(
        bord2.g0,
        {name: bord2.g1[name] for name in ("pants", "cap")},
        [rel for rel in bord2.g2 if rel.name in laws],
    )


# AxiomReport field -> the circle relations that state that axiom
_AXIOM_RELATIONS = {
    "assoc": ("R1a_assoc",),
    "unit": ("R2a_unit_left", "R2b_unit_right"),
    "coassoc": ("R1b_coassoc",),
    "counit": ("R2c_counit_left", "R2d_counit_right"),
    "frobenius": ("R3a_frobenius", "R3b_frobenius"),
    "commutative": ("R4a_commutative",),
}


@dataclass(frozen=True)
class FrobeniusAlgebra:
    """Structure maps of a Frobenius algebra on a chosen basis.

    mu, eta, delta and eps interpret pants, cap, copants and cup of the
    circle signature, whose generator types fix their shapes (mu is
    dim x dim^2, eta dim x 1, delta dim^2 x dim, eps 1 x dim).  The
    constructor checks them by building ``circle_interpretation``, which
    raises ShapeError naming the generator.  Only shapes are enforced
    here; the axioms are a separate, reportable check.
    """

    dim: int
    mu: Matrix
    eta: Matrix
    delta: Matrix
    eps: Matrix
    basis_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError("dimension must be positive")
        circle_interpretation(self)
        if self.basis_names is not None and len(self.basis_names) != self.dim:
            raise ShapeError("basis_names length must equal dim")


@dataclass(frozen=True)
class BilinearPairing:
    dim: int
    gram: Matrix

    def __post_init__(self):
        if self.gram.shape != (self.dim, self.dim):
            raise ShapeError(
                f"gram must be {self.dim}x{self.dim}, got {self.gram.rows}x{self.gram.cols}"
            )


@dataclass(frozen=True)
class AxiomReport:
    assoc: bool
    unit: bool
    coassoc: bool
    counit: bool
    frobenius: bool
    commutative: bool

    @classmethod
    def from_relations(cls, report: RelationReport) -> "AxiomReport":
        """Read the axioms off a report on the circle relations."""
        failing = set(report.failing())
        return cls(**{
            axiom: failing.isdisjoint(names) for axiom, names in _AXIOM_RELATIONS.items()
        })

    @property
    def is_frobenius(self) -> bool:
        """The five structural axioms; commutativity is reported separately."""
        return self.assoc and self.unit and self.coassoc and self.counit and self.frobenius

    def to_json(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        return "\n".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in self.to_json().items())


def circle_interpretation(alg: FrobeniusAlgebra) -> Interpretation:
    """Interpretation sending pants, copants, cap, cup to mu, delta, eta,
    eps, with no axiom checked."""
    return Interpretation(
        bord2_signature(),
        {"S1": alg.dim},
        {"pants": alg.mu, "copants": alg.delta, "cap": alg.eta, "cup": alg.eps},
    )


def check_axioms(alg: FrobeniusAlgebra) -> AxiomReport:
    return AxiomReport.from_relations(check_relations(circle_interpretation(alg)))


def _check_algebra(dim: int, mu: Matrix, eta: Matrix) -> None:
    if dim < 1:
        raise ShapeError("dimension must be positive")
    interp = Interpretation(_algebra_signature(), {"S1": dim}, {"pants": mu, "cap": eta})
    failing = check_relations(interp).failing()
    if "R1a_assoc" in failing:
        raise NotAssociative("product is not associative")
    if failing:
        raise NotUnital("eta is not a two-sided unit")


def from_economy(
    dim: int,
    mu: Matrix,
    eta: Matrix,
    pairing: BilinearPairing,
    basis_names: Optional[Sequence[str]] = None,
) -> FrobeniusAlgebra:
    """Build the full structure from an algebra and an invariant
    nondegenerate pairing.

    Invariance is verified on all basis triples (sufficient by
    bilinearity), nondegeneracy by the rank of the Gram matrix.  The
    counit pairs against the unit; the coproduct multiplies into the
    copairing, which is the flattened inverse Gram matrix.
    """
    _check_algebra(dim, mu, eta)
    gram = pairing.gram
    if pairing.dim != dim:
        raise ShapeError(f"pairing is for dimension {pairing.dim}, algebra has {dim}")
    found = rank(gram)
    if found < dim:
        raise PairingDegenerate(found, dim)
    # <b_i.b_j, b_k> and <b_i, b_j.b_k> at row i*dim + j, column k
    lhs = matmul(mu.transpose(), gram)
    rhs = matmul(gram, mu).reshape(dim * dim, dim)
    differs = lhs.first_difference(rhs)
    if differs is not None:
        row, col = divmod(differs, dim)
        raise PairingNotInvariant((*divmod(row, dim), col))
    # eps(a) = <a, unit>
    eps = matmul(gram, eta).transpose()
    # delta(a) = (mu (x) id)(a (x) c) with c the flattened inverse Gram matrix
    eye = Matrix.identity(dim)
    c = inverse(gram).reshape(dim * dim, 1)
    delta = matmul(kron(mu, eye), kron(eye, c))
    return FrobeniusAlgebra(
        dim, mu, eta, delta, eps,
        tuple(basis_names) if basis_names is not None else None,
    )


def to_economy(alg: FrobeniusAlgebra) -> BilinearPairing:
    """Pairing <a, b> = eps(a.b); nondegenerate whenever the axioms hold."""
    return BilinearPairing(alg.dim, matmul(alg.eps, alg.mu).reshape(alg.dim, alg.dim))


def check_morphism(source: FrobeniusAlgebra, target: FrobeniusAlgebra, psi: Matrix) -> Optional[int]:
    """Index (1..4) of the first failing morphism equation, or None."""
    if psi.shape != (target.dim, source.dim):
        raise ShapeError(
            f"morphism must be {target.dim}x{source.dim}, got {psi.rows}x{psi.cols}"
        )
    if matmul(target.mu, kron(psi, psi)) != matmul(psi, source.mu):
        return 1
    if target.eta != matmul(psi, source.eta):
        return 2
    if matmul(kron(psi, psi), source.delta) != matmul(target.delta, psi):
        return 3
    if source.eps != matmul(target.eps, psi):
        return 4
    return None


def morphism_inverse(source: FrobeniusAlgebra, target: FrobeniusAlgebra, psi: Matrix) -> Matrix:
    """Two-sided inverse of a Frobenius morphism by the duality sandwich.

    The copairing of the source is threaded through psi on its middle
    leg and contracted with the counit-product pairing of the target:
    as matrices, copairing . psi^T . pairing.  Raises AssertionError
    naming the composite if the result is not a two-sided inverse.
    """
    failing = check_morphism(source, target, psi)
    if failing is not None:
        raise NotAFrobeniusMorphism(failing)
    copairing = matmul(source.delta, source.eta).reshape(source.dim, source.dim)
    inv = matmul(copairing, matmul(psi.transpose(), to_economy(target).gram))
    for name, composite in (("inv . psi", matmul(inv, psi)), ("psi . inv", matmul(psi, inv))):
        if not composite.is_identity():
            raise AssertionError(f"morphism_inverse: {name} is not the identity")
    return inv


def admits_frobenius_form(dim: int, mu: Matrix, eta: Matrix) -> bool:
    """Whether any nondegenerate invariant pairing exists.

    Deterministic polynomial identity test: the Gram determinant of the
    pairing induced by a functional has per-variable degree at most dim,
    so if it vanishes on the whole grid {0..dim}^dim it is identically
    zero and no functional works.
    """
    _check_algebra(dim, mu, eta)
    for lam in itertools.product(range(dim + 1), repeat=dim):
        if rank(matmul(Matrix.row(lam), mu).reshape(dim, dim)) == dim:
            return True
    return False


# --- JSON ------------------------------------------------------------------


def algebra_to_json(alg: FrobeniusAlgebra) -> dict:
    obj = {"dim": alg.dim}
    if alg.basis_names is not None:
        obj["basis"] = list(alg.basis_names)
    obj["mu"] = matrix_to_json(alg.mu)
    obj["eta"] = [scalar_to_str(alg.eta.entry(i, 0)) for i in range(alg.dim)]
    obj["delta"] = matrix_to_json(alg.delta)
    obj["eps"] = [scalar_to_str(alg.eps.entry(0, j)) for j in range(alg.dim)]
    return obj


def algebra_from_json(obj: dict) -> FrobeniusAlgebra:
    """Load an algebra from JSON, full or economy form.

    The economy form carries ``pairing`` instead of ``delta``/``eps``
    and is converted on load.
    """
    try:
        dim = int(obj["dim"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed algebra JSON: {exc}") from exc
    try:
        basis = tuple(obj["basis"]) if "basis" in obj else None
        mu = matrix_from_json(obj["mu"])
        eta = Matrix(dim, 1, [scalar_from_str(x) for x in obj["eta"]])
        gram = matrix_from_json(obj["pairing"]) if "pairing" in obj else None
        if gram is None:
            if "delta" not in obj or "eps" not in obj:
                raise ValueError("algebra JSON needs either 'pairing' or 'delta'+'eps'")
            delta = matrix_from_json(obj["delta"])
            eps = Matrix(1, dim, [scalar_from_str(x) for x in obj["eps"]])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed algebra JSON: {exc}") from exc
    if gram is not None:
        return from_economy(dim, mu, eta, BilinearPairing(dim, gram), basis)
    return FrobeniusAlgebra(dim, mu, eta, delta, eps, basis)
