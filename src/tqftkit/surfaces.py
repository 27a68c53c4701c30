"""Two-dimensional theories: circle signature, surfaces, reductions.

The circle signature ``bord2_signature`` lives in ``frobenius``, whose
axiom checks run its relations, and is re-exported here.  It has one
object generator ``S1`` and four morphism
generators: ``pants`` (two circles merge), ``copants`` (one splits),
``cap`` (a disk grows a circle) and ``cup`` (a disk closes one).  Its
eleven relation pairs make interpretations exactly the commutative
Frobenius algebras: associativity and coassociativity (R1), the four
unit/counit equations (R2), the three pairwise equalities of the
three-term compatibility chain linking product and coproduct (R3), and
commutativity plus cocommutativity (R4).

A closed genus-g surface is the canonical decomposition
``cap ; (copants ; pants)^g ; cup``, a composition spine as deep as the
genus; its value is the counit of the g-th power of the handle operator
mu . delta applied to the unit, and at genus one it equals the algebra's
dimension.  No term is walked by recursion here: terms are evaluated by
the one ``terms.fold``, and the connected-sum identity strips ``cap``
and ``cup`` off the spine in a loop.  The relation check in
``frobenius_interpretation`` is the one gate on commutative Frobenius
algebras, which reduce along the circle to a dual pair.
"""

from __future__ import annotations

from fractions import Fraction

from .dualpairs import DualPair
from .evaluate import Interpretation, eval_term
from .exactlin import Matrix, matmul
from .frobenius import FrobeniusAlgebra, bord2_signature, check_axioms
from .terms import Compose, Gen, Term, render_term

__all__ = [
    "NotCommutative",
    "bord2_signature",
    "connected_sum_identity",
    "frobenius_interpretation",
    "genus_term",
    "handle_operator",
    "reduce_along_circle",
    "surface_invariant",
]


class NotCommutative(ValueError):
    pass


def frobenius_interpretation(alg: FrobeniusAlgebra) -> Interpretation:
    """The interpretation the algebra keeps (pants, copants, cap, cup to
    mu, delta, eta, eps), once it passes the gate.

    Requires all axioms including commutativity; a commutative Frobenius
    algebra passes every relation of the signature, a noncommutative one
    fails exactly the two R4 pairs.  The gate reads the axioms off
    ``check_axioms``.
    """
    report = check_axioms(alg)
    if not report.is_frobenius:
        bad = [k for k, v in report.to_json().items() if not v and k != "commutative"]
        raise ValueError(f"not a Frobenius algebra, failing axioms: {', '.join(bad)}")
    if not report.commutative:
        raise NotCommutative(
            "algebra is not commutative; the R4 relations would fail"
        )
    return alg.interpretation


def genus_term(genus: int) -> Term:
    """Canonical closed surface term cap ; (copants ; pants)^g ; cup."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    t: Term = Gen("cap")
    for _ in range(genus):
        t = Compose(t, Compose(Gen("copants"), Gen("pants")))
    return Compose(t, Gen("cup"))


def handle_operator(alg: FrobeniusAlgebra) -> Matrix:
    return matmul(alg.mu, alg.delta)


def surface_invariant(alg: FrobeniusAlgebra, genus: int) -> Fraction:
    """Exact value of the closed genus-g surface: eps . H^g . eta, with H^g
    applied to eta by repeated squaring."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    state, power = alg.eta, handle_operator(alg)  # power is H^(2^k) at bit k of the genus
    while genus:
        if genus & 1:
            state = matmul(power, state)
        genus >>= 1
        if genus:
            power = matmul(power, power)
    return matmul(alg.eps, state).entry(0, 0)


def _strip(t: Term, name: str, at_start: bool) -> Term:
    """Remove generator ``name`` from the start (or the end) of the composition spine."""
    passed = []  # the other factor of each composition on the way down
    while isinstance(t, Compose):
        inner, other = (t.first, t.then) if at_start else (t.then, t.first)
        if inner == Gen(name):
            for factor in reversed(passed):
                other = Compose(other, factor) if at_start else Compose(factor, other)
            return other
        passed.append(other)
        t = inner
    raise ValueError(f"term does not {'start' if at_start else 'end'} with {name!r}: {render_term(t)}")


def connected_sum_identity(alg: FrobeniusAlgebra, term_m: Term, term_n: Term) -> bool:
    """Gluing law for connected sums when the circle space is a line.

    ``term_m`` must start with ``cap`` and ``term_n`` must end with
    ``cup``; stripping those and composing realizes the connected sum,
    and the identity checked is

        eval(sum) * Z(sphere)  ==  eval(term_m) . eval(term_n)
    """
    if alg.dim != 1:
        raise ValueError("connected-sum identity needs a one-dimensional circle space")
    interp = frobenius_interpretation(alg)
    # nonzero: in dimension one the unit and counit laws rule out eta = 0 and eps = 0
    sphere = matmul(alg.eps, alg.eta).entry(0, 0)
    m_rest = _strip(term_m, "cap", at_start=True)  # (S1) -> E
    n_rest = _strip(term_n, "cup", at_start=False)  # F -> (S1)
    summed = eval_term(Compose(n_rest, m_rest), interp)
    direct = matmul(eval_term(term_m, interp), eval_term(term_n, interp))
    return summed.scale(sphere) == direct


def reduce_along_circle(alg: FrobeniusAlgebra) -> DualPair:
    """Dimensional reduction to a dual pair.

    The copairing and pairing are the values of the circle's designated
    duality terms ``cap ; copants`` and ``pants ; cup``, read off the
    ``duality["S1"]`` of ``frobenius_interpretation`` (which raises unless
    the algebra is a commutative Frobenius algebra) as a d^2 x 1 column
    and a 1 x d^2 row.  The snake identities then hold, so the dual-pair
    constructor accepts the result, and its loop value reproduces the
    torus invariant.
    """
    copairing, pairing = frobenius_interpretation(alg).duality["S1"]
    n = alg.dim * alg.dim
    return DualPair(alg.dim, alg.dim, copairing.reshape(n, 1), pairing.reshape(1, n))
