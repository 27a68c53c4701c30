"""Evaluation of terms as exact matrices under an interpretation.

An interpretation assigns a positive dimension to every object generator
and a matrix of shape dim(target) x dim(source) to every morphism
generator.  Evaluation is structural: identities become identity
matrices, tensoring becomes the Kronecker product, diagrammatic
composition ``s ; t`` becomes the matrix product eval(t) . eval(s), and
a swap becomes the block-transposition permutation of the two word
dimensions.

``relation_values`` yields each relation with the values of its two
sides, each distinct side evaluated once; ``check_relations`` reports the
first entry where they differ.  The Frobenius axioms, the Zorro moves and
the fusion-ring laws are all relations evaluated here.

The module also implements the closed-state calculus: ``bend_state``
turns a map E -> F into a state () -> F . E* by precomposing with the
designated coevaluation of E, and ``reconstruct_map`` contracts such a
state back into a map using the designated pairing.  Both contract by
reshaped products (the map times the coevaluation read as a square
matrix, the state read as a matrix times the pairing read as one), never
by Kronecker products with identities.  Designated duality terms live in
the signature, one pair per (self-dual) object label; for compound words
they are assembled by nesting, innermost factors last, which keeps the
snake identities exact without any permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .exactlin import Matrix, ShapeError, kron, matmul, swap_matrix
from .terms import (
    Compose,
    Gen,
    Id,
    ObjectWord,
    Relation,
    Signature,
    Swap,
    Tensor,
    Term,
    render_term,
    render_word,
    typecheck,
)

__all__ = [
    "Interpretation",
    "MissingDuality",
    "RelationCheck",
    "RelationReport",
    "bend_state",
    "check_relations",
    "eval_term",
    "reconstruct_map",
    "relation_values",
]


class MissingDuality(ValueError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"no designated coevaluation/pairing for object {label!r}")


class Interpretation:
    """A symmetric monoidal functor restricted to generators."""

    def __init__(
        self,
        sig: Signature,
        obj_dim: Mapping[str, int],
        gen_matrix: Mapping[str, Matrix],
    ):
        self.sig = sig
        self.obj_dim = dict(obj_dim)
        self.gen_matrix = dict(gen_matrix)
        for label in sig.g0:
            d = self.obj_dim.get(label)
            if not isinstance(d, int) or d < 1:
                raise ValueError(f"object {label!r} needs a positive dimension, got {d!r}")
        for name, (src, tgt) in sig.g1.items():
            m = self.gen_matrix.get(name)
            if m is None:
                raise ValueError(f"no matrix assigned to generator {name!r}")
            want = (self.dim(tgt), self.dim(src))
            if m.shape != want:
                raise ShapeError(
                    f"generator {name!r}: expected {want[0]}x{want[1]} "
                    f"for ({render_word(src)})->({render_word(tgt)}), got {m.rows}x{m.cols}"
                )

    def dim(self, word: ObjectWord) -> int:
        d = 1
        for label in word:
            d *= self.obj_dim[label]
        return d


def eval_term(t: Term, interp: Interpretation) -> Matrix:
    """Evaluate a term to its matrix.  Type errors propagate unchanged."""
    typecheck(t, interp.sig)
    return _eval(t, interp)


# stack marker: the two factors of the term below it are done
_COMBINE = object()


def _eval(t: Term, interp: Interpretation) -> Matrix:
    """Evaluate a well-typed term from an explicit stack, depth first, so
    that deep terms need no recursion."""
    values = []  # matrices of finished subterms, in post-order
    stack: list = [t]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Gen:
            values.append(interp.gen_matrix[node.name])
        elif kind is Compose:
            stack += (node, _COMBINE, node.then, node.first)
        elif kind is Tensor:
            stack += (node, _COMBINE, node.right, node.left)
        elif node is _COMBINE:
            node = stack.pop()
            second = values.pop()
            first = values.pop()
            if type(node) is Compose:
                values.append(matmul(second, first))
            else:
                values.append(kron(first, second))
        elif kind is Id:
            values.append(Matrix.identity(interp.dim(node.word)))
        elif kind is Swap:
            values.append(swap_matrix(interp.dim(node.left), interp.dim(node.right)))
        else:
            raise TypeError(f"not a term: {node!r}")
    return values[0]


@dataclass(frozen=True)
class RelationCheck:
    relation: Relation
    ok: bool
    mismatch: Optional[tuple[int, int, str, str]]  # (row, col, lhs, rhs)

    def describe(self) -> str:
        if self.ok:
            return f"{self.relation.name}: ok"
        i, j, lhs, rhs = self.mismatch
        return (
            f"{self.relation.name}: FAIL at entry ({i},{j}): "
            f"lhs={lhs} rhs={rhs} "
            f"[{render_term(self.relation.lhs)} vs {render_term(self.relation.rhs)}]"
        )


@dataclass(frozen=True)
class RelationReport:
    checks: tuple[RelationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failing(self) -> list[str]:
        return [c.relation.name for c in self.checks if not c.ok]

    def describe(self) -> str:
        return "\n".join(c.describe() for c in self.checks)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "relations": [
                {
                    "name": c.relation.name,
                    "ok": c.ok,
                    "mismatch": None if c.ok else dict(zip(("row", "col", "lhs", "rhs"), c.mismatch)),
                }
                for c in self.checks
            ],
        }


def relation_values(interp: Interpretation) -> Iterator[tuple[Relation, Matrix, Matrix]]:
    """Each relation with the values of its two sides, each distinct side
    evaluated once and none typechecked (the signature typechecked them)."""
    values: dict[Term, Matrix] = {}
    for rel in interp.sig.g2:
        for side in (rel.lhs, rel.rhs):
            if side not in values:
                values[side] = _eval(side, interp)
        yield rel, values[rel.lhs], values[rel.rhs]


def check_relations(interp: Interpretation) -> RelationReport:
    """Compare both sides of every relation pair; failures are data."""
    checks = []
    for rel, lhs, rhs in relation_values(interp):
        mismatch = None
        differs = lhs.first_difference(rhs)
        if differs is not None:
            i, j = divmod(differs, lhs.cols)
            mismatch = (i, j, str(lhs.entry(i, j)), str(rhs.entry(i, j)))
        checks.append(RelationCheck(rel, mismatch is None, mismatch))
    return RelationReport(tuple(checks))


def coev_term(word: ObjectWord, sig: Signature) -> Term:
    """Coevaluation () -> word . reverse(word), nested from the outside in."""
    if not word:
        return Id(())
    head, rest = word[0], word[1:]
    if head not in sig.duality:
        raise MissingDuality(head)
    base = sig.duality[head].coev
    if not rest:
        return base
    inner = coev_term(rest, sig)
    return Compose(base, Tensor(Id((head,)), Tensor(inner, Id((head,)))))


def pairing_term(word: ObjectWord, sig: Signature) -> Term:
    """Pairing reverse(word) . word -> (), the mate of ``coev_term``."""
    if not word:
        return Id(())
    head, rest = word[0], word[1:]
    if head not in sig.duality:
        raise MissingDuality(head)
    base = sig.duality[head].pairing
    if not rest:
        return base
    inner = pairing_term(rest, sig)
    rest_rev = tuple(reversed(rest))
    return Compose(Tensor(Id(rest_rev), Tensor(base, Id(rest))), inner)


def bend_state(t: Term, interp: Interpretation) -> Matrix:
    """State () -> target . reverse(source) obtained by bending the source.

    For ``t: E -> F`` this is ``coev_E ; (t * id)``, a column of length
    dim(F) * dim(E), computed as the reshaped product
    ``eval(t) . coev_E`` with coev_E read as a dim(E) x dim(E) matrix.  A
    term with empty source is already a state and is returned as its own
    evaluation.
    """
    src, _ = typecheck(t, interp.sig)
    if not src:
        return _eval(t, interp)
    coev = eval_term(coev_term(src, interp.sig), interp)
    m = _eval(t, interp)
    d_src = m.cols
    return matmul(m, coev.reshape(d_src, d_src)).reshape(m.rows * d_src, 1)


def reconstruct_map(
    state: Matrix,
    source: ObjectWord,
    target: ObjectWord,
    interp: Interpretation,
) -> Matrix:
    """Recover the map dim(target) x dim(source) from its bent state.

    The dangling reverse(source) . source legs are contracted away with
    the designated pairing, as the reshaped product of the state read as
    a dim(target) x dim(source) matrix and the pairing read as a
    dim(source) x dim(source) one; composing with ``bend_state`` is the
    identity on well-typed terms whenever the designated duality terms
    satisfy the snake identities.
    """
    d_src = interp.dim(source)
    d_tgt = interp.dim(target)
    if state.shape != (d_tgt * d_src, 1):
        raise ShapeError(
            f"state must be {d_tgt * d_src}x1 for ({render_word(source)})->"
            f"({render_word(target)}), got {state.rows}x{state.cols}"
        )
    if not source:
        return state
    pairing = eval_term(pairing_term(source, interp.sig), interp)
    return matmul(state.reshape(d_tgt, d_src), pairing.reshape(d_src, d_src))
