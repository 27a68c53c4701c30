"""tqftkit: exact evaluation of freely generated symmetric monoidal
term languages, from dual pairs to fusion rings."""

from .exactlin import BACKEND, Matrix, Scalar, kron, matmul, rank, swap_matrix
from .terms import Signature, Term, parse_term, render_term, typecheck
from .evaluate import Interpretation, bend_state, check_relations, eval_term, reconstruct_map
from .dualpairs import DualPair, bord1_signature
from .frobenius import (
    BilinearPairing,
    FrobeniusAlgebra,
    admits_frobenius_form,
    check_axioms,
    from_economy,
    morphism_inverse,
    to_economy,
)
from .algebras import group_algebra, matrix_center_algebra, milnor_ring, upper_triangular_algebra
from .surfaces import (
    bord2_signature,
    frobenius_interpretation,
    reduce_along_circle,
    surface_invariant,
)
from .fusion import FusionRing, grothendieck_frobenius, hom_dimension, validate_fusion_ring

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BilinearPairing",
    "DualPair",
    "FrobeniusAlgebra",
    "FusionRing",
    "Interpretation",
    "Matrix",
    "Scalar",
    "Signature",
    "Term",
    "admits_frobenius_form",
    "bend_state",
    "bord1_signature",
    "bord2_signature",
    "check_axioms",
    "check_relations",
    "eval_term",
    "from_economy",
    "frobenius_interpretation",
    "group_algebra",
    "grothendieck_frobenius",
    "hom_dimension",
    "kron",
    "matmul",
    "matrix_center_algebra",
    "milnor_ring",
    "morphism_inverse",
    "parse_term",
    "rank",
    "reconstruct_map",
    "reduce_along_circle",
    "render_term",
    "surface_invariant",
    "swap_matrix",
    "to_economy",
    "typecheck",
    "upper_triangular_algebra",
    "validate_fusion_ring",
]
