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
the interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .evaluate import Interpretation, check_relations, eval_term
from .exactlin import (
    Matrix,
    ShapeError,
    kron,
    matmul,
    matrix_from_json,
    matrix_to_json,
    scalar_from_str,
)
from .terms import Compose, Gen, Id, Relation, Signature, Tensor, parse_term

__all__ = [
    "DualPair",
    "ZorroViolation",
    "bord1_signature",
    "dp_morphism_check",
    "dp_morphism_inverse",
    "dual_pair_interpretation",
    "dual_pair_from_json",
    "dual_pair_to_json",
    "loop_term",
    "standard_pair",
]


class ZorroViolation(ValueError):
    """One of the two snake identities fails; ``side`` names the failing
    relation of ``bord1_signature``."""

    def __init__(self, side: str, detail: str = ""):
        self.side = side
        msg = f"Zorro move fails on the {side} side"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class DualPair:
    dim_u: int
    dim_v: int
    b: Matrix  # (dim_u * dim_v) x 1
    d: Matrix  # 1 x (dim_v * dim_u)

    def __post_init__(self):
        if self.dim_u < 1 or self.dim_v < 1:
            raise ShapeError("dual pair dimensions must be positive")
        failing = check_relations(dual_pair_interpretation(self)).failing()
        if failing:
            raise ZorroViolation(failing[0], "does not give the identity")


def standard_pair(n: int) -> DualPair:
    """The coordinate pair on k^n: b = sum e_i (x) e_i*, d the evaluation."""
    flat = Matrix.identity(n)
    return DualPair(n, n, flat.reshape(n * n, 1), flat.reshape(1, n * n))


@cache
def bord1_signature() -> Signature:
    g0 = ["pp", "pm"]
    g1 = {
        "coev": ((), ("pp", "pm")),
        "ev": (("pm", "pp"), ()),
    }
    sig = Signature(g0, g1)
    snake_pp = Relation(
        "snake_pp",
        Compose(Tensor(Gen("coev"), Id(("pp",))), Tensor(Id(("pp",)), Gen("ev"))),
        Id(("pp",)),
    )
    snake_pm = Relation(
        "snake_pm",
        Compose(Tensor(Id(("pm",)), Gen("coev")), Tensor(Gen("ev"), Id(("pm",)))),
        Id(("pm",)),
    )
    return Signature(g0, g1, [snake_pp, snake_pm])


def loop_term():
    return parse_term("coev ; swap[pp,pm] ; ev", bord1_signature())


def dual_pair_interpretation(pair: DualPair) -> Interpretation:
    """Interpretation sending coev, ev to b, d; the constructor of
    ``DualPair`` has already checked the snake relations."""
    return Interpretation(
        bord1_signature(),
        {"pp": pair.dim_u, "pm": pair.dim_v},
        {"coev": pair.b, "ev": pair.d},
    )


def loop_value(pair: DualPair):
    """Scalar assigned to the circle; equals the dimension of the pair."""
    return eval_term(loop_term(), dual_pair_interpretation(pair)).entry(0, 0)


def dp_morphism_check(p: DualPair, q: DualPair, f: Matrix, g: Matrix) -> bool:
    """Whether (f, g) intertwines the pairings: d_p = d_q.(g(x)f) and
    (f(x)g).b_p = b_q."""
    if f.shape != (q.dim_u, p.dim_u):
        raise ShapeError(f"f must be {q.dim_u}x{p.dim_u}, got {f.rows}x{f.cols}")
    if g.shape != (q.dim_v, p.dim_v):
        raise ShapeError(f"g must be {q.dim_v}x{p.dim_v}, got {g.rows}x{g.cols}")
    pairing_ok = matmul(q.d, kron(g, f)) == p.d
    copairing_ok = matmul(kron(f, g), p.b) == q.b
    return pairing_ok and copairing_ok


def dp_morphism_inverse(p: DualPair, q: DualPair, f: Matrix, g: Matrix) -> tuple[Matrix, Matrix]:
    """Two-sided inverse of a dual-pair morphism by the duality sandwich.

    The inverse of f threads b_p through g and contracts with d_q, and
    dually for g; no Gaussian elimination is involved.  With B_p and D_q
    the copairing and pairing read as u_p x v_p and v_q x u_q matrices,
    f^-1 = B_p . g^T . D_q and g^-1 = (D_q . f . B_p)^T.  Morphisms of
    dual pairs are automatically invertible, so once the morphism
    conditions hold the sandwich is guaranteed to be a two-sided inverse;
    that is verified before returning, and AssertionError names the
    composite that is not the identity.
    """
    if not dp_morphism_check(p, q, f, g):
        raise ValueError("(f, g) is not a morphism of dual pairs")
    b_p = p.b.reshape(p.dim_u, p.dim_v)
    d_q = q.d.reshape(q.dim_v, q.dim_u)
    f_inv = matmul(b_p, matmul(g.transpose(), d_q))
    g_inv = matmul(d_q, matmul(f, b_p)).transpose()
    for name, composite in (
        ("f_inv . f", matmul(f_inv, f)),
        ("f . f_inv", matmul(f, f_inv)),
        ("g_inv . g", matmul(g_inv, g)),
        ("g . g_inv", matmul(g, g_inv)),
    ):
        if not composite.is_identity():
            raise AssertionError(f"dp_morphism_inverse: {name} is not the identity")
    return f_inv, g_inv


def dual_pair_to_json(pair: DualPair) -> dict:
    return {
        "dimU": pair.dim_u,
        "dimV": pair.dim_v,
        "b": matrix_to_json(pair.b),
        "d": matrix_to_json(pair.d),
    }


def _vector_from_json(obj, rows: int, cols: int) -> Matrix:
    """A rows x cols vector from a flat list of scalars, or a list of rows."""
    if obj and isinstance(obj[0], list):
        return matrix_from_json(obj)
    return Matrix(rows, cols, [scalar_from_str(x) for x in obj])


def dual_pair_from_json(obj: dict) -> DualPair:
    try:
        dim_u = int(obj["dimU"])
        dim_v = int(obj["dimV"])
        b = _vector_from_json(obj["b"], dim_u * dim_v, 1)
        d = _vector_from_json(obj["d"], 1, dim_v * dim_u)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed dual pair JSON: {exc}") from exc
    return DualPair(dim_u, dim_v, b, d)
