"""Dual pairs and the one-dimensional bordism signature.

A dual pair is a pair of vector-space dimensions together with a
copairing ``b: k -> U (x) V`` and a pairing ``d: V (x) U -> k`` that
satisfy the two Zorro (snake) identities.  Those identities force
``dim U = dim V``, so the constructor rejects anything rectangular.

The signature has two object generators ``pp`` and ``pm`` (positively
and negatively oriented points), two morphism generators ``coev`` and
``ev``, and the two snake relations; the other two bent lines are
derivable with swaps, and the canonical closed loop is
``coev ; swap[pp,pm] ; ev``, whose value under any dual pair is the
common dimension.

The Zorro moves are not written out here: the constructor checks them
as the two snake relations of that signature, run through the evaluator
by ``check_relations``.  Nor are the shapes of ``b`` and ``d``: they are
the types of ``coev`` and ``ev``, checked when the constructor builds
the interpretation that the pair keeps for every later check.  Nor are
the morphism equations: a morphism (f, g) is a pair of components on
``pp`` and ``pm`` natural at ``coev`` and ``ev``, checked by
``naturality_failures`` on the two interpretations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .evaluate import Interpretation, check_relations, eval_term, naturality_failures, sandwich_inverse
from .exactlin import (
    Matrix,
    array_from_json,
    integer_from_json,
    matrix_from_json,
    matrix_to_json,
    object_from_json,
    scalar_from_str,
)
from .terms import Relation, Signature, parse_term

__all__ = [
    "DualPair",
    "ZorroViolation",
    "bord1_signature",
    "dp_morphism_check",
    "dp_morphism_inverse",
    "dual_pair_from_json",
    "dual_pair_to_json",
    "loop_term",
    "standard_pair",
]


class ZorroViolation(ValueError):
    """One of the two snake identities fails; ``side`` names the failing
    relation of ``bord1_signature``."""

    def __init__(self, side: str):
        self.side = side
        super().__init__(f"Zorro move fails on the {side} side: does not give the identity")


@dataclass(frozen=True)
class DualPair:
    """A copairing b and a pairing d that satisfy the snake relations.

    ``interpretation`` sends coev, ev of ``bord1_signature`` to b, d.  The
    constructor checks shapes and snakes on it and keeps it, shared by
    every later check; it takes no part in equality, hashing or ``repr``.
    """

    dim_u: int
    dim_v: int
    b: Matrix  # (dim_u * dim_v) x 1
    d: Matrix  # 1 x (dim_v * dim_u)
    interpretation: Interpretation = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        dims = {"pp": self.dim_u, "pm": self.dim_v}
        interp = Interpretation(bord1_signature(), dims, {"coev": self.b, "ev": self.d})
        object.__setattr__(self, "interpretation", interp)
        failing = check_relations(interp).failing()
        if failing:
            raise ZorroViolation(failing[0])


def standard_pair(n: int) -> DualPair:
    """The coordinate pair on k^n: b = sum e_i (x) e_i*, d the evaluation."""
    flat = Matrix.identity(n)
    return DualPair(n, n, flat.reshape(n * n, 1), flat.reshape(1, n * n))


@cache
def bord1_signature() -> Signature:
    g0 = ["pp", "pm"]
    g1 = {"coev": ((), ("pp", "pm")), "ev": (("pm", "pp"), ())}
    sig = Signature(g0, g1)
    snakes = {"pp": "coev * id[pp] ; id[pp] * ev", "pm": "id[pm] * coev ; ev * id[pm]"}
    relations = [
        Relation(f"snake_{x}", parse_term(snake, sig), parse_term(f"id[{x}]", sig))
        for x, snake in snakes.items()
    ]
    return Signature(g0, g1, relations)


@cache
def loop_term():
    return parse_term("coev ; swap[pp,pm] ; ev", bord1_signature())


def loop_value(pair: DualPair):
    """Scalar assigned to the circle; equals the dimension of the pair."""
    return eval_term(loop_term(), pair.interpretation).entry(0, 0)


def dp_morphism_check(p: DualPair, q: DualPair, f: Matrix, g: Matrix) -> bool:
    """Whether (f, g) on (pp, pm) is natural at coev and ev, that is
    (f(x)g).b_p = b_q and d_p = d_q.(g(x)f)."""
    return not naturality_failures(p.interpretation, q.interpretation, {"pp": f, "pm": g})


def dp_morphism_inverse(p: DualPair, q: DualPair, f: Matrix, g: Matrix) -> tuple[Matrix, Matrix]:
    """Two-sided inverse of a dual-pair morphism by the duality sandwich.

    The inverse of f threads b_p through g and contracts with d_q, and
    dually for g; no Gaussian elimination is involved.  With B_p and D_q
    the copairing and pairing read as u_p x v_p and v_q x u_q matrices,
    f^-1 = B_p . g^T . D_q and g^-1 = (D_q . f . B_p)^T = B_p^T . f^T . D_q^T:
    the one sandwich of ``morphism_inverse``, taken twice.  Morphisms of dual
    pairs are automatically invertible, so each sandwich is a two-sided
    inverse once the morphism conditions hold; that is verified, and
    AssertionError names a composite that is not the identity.
    """
    if not dp_morphism_check(p, q, f, g):
        raise ValueError("(f, g) is not a morphism of dual pairs")
    b_p = p.b.reshape(p.dim_u, p.dim_v)
    d_q = q.d.reshape(q.dim_v, q.dim_u)
    where = "dp_morphism_inverse"
    f_inv = sandwich_inverse(b_p, g, d_q, f, where, ("f_inv", "f"))
    g_inv = sandwich_inverse(b_p.transpose(), f, d_q.transpose(), g, where, ("g_inv", "g"))
    return f_inv, g_inv


def dual_pair_to_json(pair: DualPair) -> dict:
    return {
        "dimU": pair.dim_u,
        "dimV": pair.dim_v,
        "b": matrix_to_json(pair.b),
        "d": matrix_to_json(pair.d),
    }


def _vector_from_json(obj: dict, key: str, rows: int, cols: int) -> Matrix:
    """The rows x cols vector ``obj[key]``, a flat array of scalars or an array of rows."""
    value = array_from_json(obj[key], key)
    if value and isinstance(value[0], list):
        return matrix_from_json(value)
    return Matrix(rows, cols, [scalar_from_str(x) for x in value])


def dual_pair_from_json(obj: dict) -> DualPair:
    try:
        obj = object_from_json(obj, "top level")
        dim_u = integer_from_json(obj["dimU"])
        dim_v = integer_from_json(obj["dimV"])
        b = _vector_from_json(obj, "b", dim_u * dim_v, 1)
        d = _vector_from_json(obj, "d", 1, dim_v * dim_u)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed dual pair JSON: {exc}") from exc
    return DualPair(dim_u, dim_v, b, d)
