"""Evaluation of terms as exact matrices under an interpretation.

An interpretation assigns a positive dimension to every object generator
and a matrix of shape dim(target) x dim(source) to every morphism
generator.  Evaluation is the one ``terms.fold``, with no recursion.  Its
values are legs ``(l, a, r)`` standing for I_l (x) a (x) I_r: identity
legs are index maps, not matrices.  A generator is ``(1, matrix, 1)``, an
identity ``(dim, [1], 1)`` and a swap ``(1, p, 1)`` with p the
block-transposition permutation of its two word dimensions.  A tensor
with an identity factor widens the other factor's legs.  ``s ; t``
applies eval(t) to eval(s) with ``exactlin.padded_matmul`` and keeps the
identity legs the two share (I_g (x) x (x) I_h with g and h the gcds of
their legs) as legs of the result.  Only a tensor of two non-identity
factors builds a Kronecker product, and a value with identity legs is
built as a matrix only at the root, by the same kernel.

``check_relations`` evaluates each distinct side once, and each check
keeps its relation's two side values; text is made only when a check is
printed.  The Frobenius axioms, the Zorro moves and the fusion-ring laws
are all relations checked here, and every law reader reads that report.

A morphism of interpretations is a monoidal natural transformation: one
component per object label, natural at every generator.  The Frobenius
and dual-pair morphism checks are both one call of ``naturality_failures``,
which applies a word's components one leg at a time; their inverses are
the one duality sandwich ``b . g^T . d`` of ``sandwich_inverse``.

The closed-state calculus: ``bend_state`` turns a map E -> F into a
state () -> F . E* with the designated coevaluation of E, and
``reconstruct_map`` contracts the state back with the designated
pairing, both by reshaped products.  An interpretation evaluates each
label's designated duality once, when it is built
(``Interpretation.duality``); a word's copairing C and pairing P nest the
labels' ones, the first outermost: for E = (x, rest),
C_E = (C_x (x) C_rest) . swap(rest, x) and P_E = swap(x, rest) .
(P_x (x) P_rest), built with no term on the word's first use and kept
by the interpretation (``Interpretation.word_duality``), so bending or
reconstructing again along the same word costs one product and one
reshape.  ``typecheck`` keeps each term's type per signature, so
``eval_term`` and ``bend_state`` walk a term they have typechecked
before (``parse_term`` typechecks what it parses) only to evaluate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from types import MappingProxyType
from typing import Mapping, Optional

from .exactlin import Matrix, ShapeError, kron, matmul, padded_matmul, scalar_to_str, swap_matrix
from .terms import (
    Compose,
    Gen,
    Id,
    ObjectWord,
    Relation,
    Signature,
    Term,
    fold,
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
    "bend_value",
    "check_relations",
    "eval_term",
    "naturality_failures",
    "reconstruct_map",
]


class MissingDuality(ValueError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"no designated coevaluation/pairing for object {label!r}")


class Interpretation:
    """A symmetric monoidal functor restricted to generators.  ``duality``
    maps each label with a designated duality to the values of its two
    terms (copairing, pairing), each read as a dim x dim matrix, evaluated
    when the interpretation is built.  A word's copairing and pairing are
    built on first use and kept for the interpretation's lifetime
    (``word_duality``).  No attribute can be set after construction, and
    ``obj_dim``, ``gen_matrix`` and ``duality`` are read-only views."""

    def __init__(
        self,
        sig: Signature,
        obj_dim: Mapping[str, int],
        gen_matrix: Mapping[str, Matrix],
    ):
        fields = vars(self)  # written here, as __setattr__ is blocked
        fields["sig"] = sig
        fields["obj_dim"] = MappingProxyType(dict(obj_dim))
        fields["gen_matrix"] = MappingProxyType(dict(gen_matrix))
        for label in sig.g0:
            d = self.obj_dim.get(label)
            if not isinstance(d, int) or d < 1:
                raise ShapeError(f"object {label!r}: dimension must be positive, got {d!r}")
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
        duality = {}
        for label, data in sig.duality.items():
            d = self.obj_dim[label]
            duality[label] = tuple(_eval(t, self).reshape(d, d) for t in (data.coev, data.pairing))
        fields["duality"] = MappingProxyType(duality)
        fields["_word_dualities"] = {}

    def __setattr__(self, name, value):
        raise AttributeError("Interpretation is immutable")

    def __reduce__(self):
        # pickle and deepcopy rebuild from the signature and generator values
        return Interpretation, (self.sig, dict(self.obj_dim), dict(self.gen_matrix))

    def dim(self, word: ObjectWord) -> int:
        d = 1
        for label in word:
            d *= self.obj_dim[label]
        return d

    def word_duality(self, word: ObjectWord, pairing: bool) -> Matrix:
        """C_word, or P_word with ``pairing``, read as a dim x dim matrix,
        built on the word's first use and kept; MissingDuality names the
        word's first label without a duality."""
        value = self._word_dualities.get((word, pairing))
        if value is not None:
            return value
        for label in word:
            if label not in self.duality:
                raise MissingDuality(label)
        value = self.duality[word[-1]][pairing] if word else _ONE
        for label in reversed(word[:-1]):
            m = self.duality[label][pairing]
            if pairing:
                value = matmul(swap_matrix(m.rows, value.rows), kron(m, value))
            else:
                value = matmul(kron(m, value), swap_matrix(value.rows, m.rows))
        self._word_dualities[word, pairing] = value
        return value


def eval_term(t: Term, interp: Interpretation) -> Matrix:
    """Evaluate a term to its matrix.  Type errors propagate unchanged."""
    typecheck(t, interp.sig)
    return _eval(t, interp)


_ONE = Matrix.scalar(1)


def _eval(t: Term, interp: Interpretation) -> Matrix:
    """Evaluate a well-typed term by one ``fold`` and build its value."""
    la, a, ra = fold(t, _value_leaf, _value_combine, interp)
    if la == ra == 1:
        return a
    # the padded a, as the identity on its rows times the legs
    return padded_matmul(la * a.rows * ra, _ONE, 1, la, a, ra)


def _value_leaf(t: Term, interp: Interpretation) -> tuple[int, Matrix, int]:
    kind = type(t)
    if kind is Gen:
        return 1, interp.gen_matrix[t.name], 1
    if kind is Id:
        return interp.dim(t.word), _ONE, 1
    return 1, swap_matrix(interp.dim(t.left), interp.dim(t.right)), 1


def _value_combine(t: Term, first, second, interp: Interpretation) -> tuple[int, Matrix, int]:
    (l1, a, r1), (l2, b, r2) = first, second
    if type(t) is Compose:
        # eval(then) . eval(first); identity legs common to both stay legs
        if b is _ONE:
            return first
        if a is _ONE:
            return second
        lg, rg = gcd(l1, l2), gcd(r1, r2)
        return lg, padded_matmul(l2 // lg, b, r2 // rg, l1 // lg, a, r1 // rg), rg
    if b is _ONE:
        return l1, a, r1 * l2 * r2
    if a is _ONE:
        return l1 * r1 * l2, b, r2
    # two non-identity factors: I_l1 (x) (a (x) I_k (x) b) (x) I_r2
    k = r1 * l2
    if k != 1:
        a = padded_matmul(a.rows * k, _ONE, 1, 1, a, k)
    return l1, kron(a, b), r2


@dataclass(frozen=True)
class RelationCheck:
    """A relation, the values of its two sides and whether they are equal."""

    relation: Relation
    ok: bool
    lhs: Matrix
    rhs: Matrix

    @property
    def mismatch(self) -> Optional[tuple[int, int, str, str]]:
        """(row, col, lhs, rhs) at the first differing entry, found and printed when read."""
        if self.ok:
            return None
        i, j = divmod(self.lhs.first_difference(self.rhs), self.lhs.cols)
        return i, j, scalar_to_str(self.lhs.entry(i, j)), scalar_to_str(self.rhs.entry(i, j))

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


def check_relations(interp: Interpretation) -> RelationReport:
    """Compare both sides of every relation pair; failures are data.  Each
    distinct side is evaluated once, untypechecked (the signature did that)."""
    values = [_eval(side, interp) for side in interp.sig.sides]
    return RelationReport(tuple(
        RelationCheck(rel, values[lhs] == values[rhs], values[lhs], values[rhs])
        for rel, (lhs, rhs) in zip(interp.sig.g2, interp.sig.side_pairs)
    ))


def naturality_failures(
    source: Interpretation, target: Interpretation, components: Mapping[str, Matrix]
) -> list[str]:
    """Generators ``g: w -> v`` of the signature the two interpretations
    share, in its order, where ``psi_v . source(g) != target(g) . psi_w``.

    ``psi`` of a word is the tensor product of its labels' components,
    applied one leg at a time and never built; the empty word is the
    identity.  A mis-shaped component raises ShapeError naming its label.
    """
    for label in source.sig.g0:
        m, want = components[label], (target.obj_dim[label], source.obj_dim[label])
        if m.shape != want:
            raise ShapeError(f"component {label!r}: expected {want[0]}x{want[1]}, got {m.rows}x{m.cols}")
    failures = []
    for name, (src, tgt) in source.sig.g1.items():
        left = source.gen_matrix[name]
        right = target.gen_matrix[name]
        # psi_v . m turns m's row legs from source to target dims, one
        # label at a time; m . psi_w turns its column legs back
        done, rest = 1, source.dim(tgt)
        for label in tgt:
            rest //= source.obj_dim[label]
            left = padded_matmul(done, components[label], rest, 1, left, 1)
            done *= target.obj_dim[label]
        done, rest = 1, target.dim(src)
        for label in src:
            rest //= target.obj_dim[label]
            right = padded_matmul(1, right, 1, done, components[label], rest)
            done *= source.obj_dim[label]
        if left != right:
            failures.append(name)
    return failures


def sandwich_inverse(b: Matrix, g: Matrix, d: Matrix, f: Matrix, caller: str, names: tuple) -> Matrix:
    """The duality sandwich ``b . g^T . d``, checked to be a two-sided inverse of
    ``f``; AssertionError names the composite of ``names`` that is not the identity."""
    inv = matmul(b, matmul(g.transpose(), d))
    for left, right in ((inv, f), (f, inv)):
        if not matmul(left, right).is_identity():
            name = " . ".join(names if left is inv else names[::-1])
            raise AssertionError(f"{caller}: {name} is not the identity")
    return inv


def bend_state(t: Term, interp: Interpretation) -> Matrix:
    """State () -> target . reverse(source) obtained by bending the source.

    For ``t: E -> F`` this is ``coev_E ; (t * id)``: ``bend_value`` of
    ``t``'s evaluation.  A term with empty source is already a state and
    is returned as its own evaluation.
    """
    src, _ = typecheck(t, interp.sig)
    return bend_value(_eval(t, interp), src, interp)


def bend_value(m: Matrix, source: ObjectWord, interp: Interpretation) -> Matrix:
    """``bend_state`` of a map ``m`` out of ``source`` that is already
    evaluated: a column of length m.rows * m.cols, computed as the
    reshaped product ``m . C_source``."""
    if not source:
        return m
    return matmul(m, interp.word_duality(source, False)).reshape(m.rows * m.cols, 1)


def reconstruct_map(
    state: Matrix,
    source: ObjectWord,
    target: ObjectWord,
    interp: Interpretation,
) -> Matrix:
    """Recover the map dim(target) x dim(source) from its bent state.

    The dangling reverse(source) . source legs are contracted away with
    the designated pairing, as the reshaped product of the state read as
    a dim(target) x dim(source) matrix and P_source, with no term
    evaluated; composing with ``bend_state`` is the identity on
    well-typed terms whenever the designated duality terms satisfy the
    snake identities.
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
    return matmul(state.reshape(d_tgt, d_src), interp.word_duality(source, True))
