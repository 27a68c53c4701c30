"""The law checks and structure maps against hand-written references.

The references are the explicit formulas and ``entry()`` loops that
``check_axioms``, ``from_economy``, ``to_economy`` and the
``admits_frobenius_form`` search used before they were written as
relation checks and matrix products (the search walked the full grid
{0..dim}^dim before it walked the lattice sum(lam) = dim), the
hand-written morphism equations that ``check_morphism`` and
``dp_morphism_check`` used before both became naturality on the
generators, and the padded Kronecker products that ``bend_state`` and
``reconstruct_map`` used before they were written as reshaped products,
with the nested duality terms ``coev_term`` and ``pairing_term`` they
evaluated before a word's duality was assembled from the per-label
matrices.  Gaussian elimination is the oracle for the
duality-sandwich inverses.  Dense lists of ``Fraction`` rows are the
oracle for the sparse matrix kernels and for the evaluator; dense
Kronecker products of identities are the oracle for ``padded_matmul``,
and the evaluator that built every identity and tensor as a matrix at
its node is the oracle for leg-wise evaluation.  The index
loops that ``validate_fusion_ring`` and ``grothendieck_frobenius`` ran
before the ring laws were read off the circle relations are the oracle
for the fusion-ring reports and commutativity witnesses.  The lexer of
``(kind, value, offset)`` tuples and its parser, which built every leaf
afresh, are the oracle for the parser of string tokens and shared leaves.
"""

import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import dense, eleven_algebras, enumerate_terms, parser_signature, random_term, term_with_source
from test_exactlin import reference_inverse, reference_kron, reference_reduce
from test_frobenius import invalid_morphisms, valid_morphisms
from tqftkit import dualpairs, evaluate, exactlin, frobenius, terms
from tqftkit.algebras import (
    cyclic_group,
    direct_product,
    group_algebra,
    milnor_ring,
    symmetric_group,
    upper_triangular_algebra,
)
from tqftkit.dualpairs import DualPair, dp_morphism_inverse, standard_pair
from tqftkit.evaluate import (
    Interpretation,
    bend_state,
    MissingDuality,
    bend_value,
    check_relations,
    eval_term,
    naturality_failures,
    reconstruct_map,
)
from tqftkit.exactlin import (
    Matrix,
    ShapeError,
    inverse,
    kron,
    matmul,
    matrix_to_json,
    padded_matmul,
    rank,
    swap_matrix,
)
from tqftkit.frobenius import (
    BilinearPairing,
    FrobeniusAlgebra,
    NotAFrobeniusMorphism,
    NotAssociative,
    NotUnital,
    PairingDegenerate,
    PairingNotInvariant,
    admits_frobenius_form,
    check_axioms,
    check_morphism,
    from_economy,
    morphism_inverse,
    to_economy,
)
from tqftkit.fusion import (
    FusionRing,
    NotCommutativeRing,
    fibonacci,
    grothendieck_frobenius,
    ising,
    validate_fusion_ring,
    vec_z,
)
from tqftkit.surfaces import bord2_signature, frobenius_interpretation
from tqftkit.terms import (
    Compose,
    Gen,
    Id,
    LexicalError,
    ParseError,
    Signature,
    Swap,
    Tensor,
    parse_term,
    render_term,
    typecheck,
)


# --- references ------------------------------------------------------------


def reference_axioms(alg):
    n = alg.dim
    eye = Matrix.identity(n)
    mu, eta, delta, eps = alg.mu, alg.eta, alg.delta, alg.eps
    middle = matmul(delta, mu)
    return {
        "assoc": matmul(mu, kron(mu, eye)) == matmul(mu, kron(eye, mu)),
        "unit": matmul(mu, kron(eta, eye)) == eye and matmul(mu, kron(eye, eta)) == eye,
        "coassoc": matmul(kron(delta, eye), delta) == matmul(kron(eye, delta), delta),
        "counit": matmul(kron(eps, eye), delta) == eye and matmul(kron(eye, eps), delta) == eye,
        "frobenius": matmul(kron(mu, eye), kron(eye, delta)) == middle
        and matmul(kron(eye, mu), kron(delta, eye)) == middle,
        "commutative": matmul(mu, swap_matrix(n, n)) == mu,
    }


def reference_check_algebra(dim, mu, eta):
    eye = Matrix.identity(dim)
    if matmul(mu, kron(mu, eye)) != matmul(mu, kron(eye, mu)):
        raise NotAssociative("product is not associative")
    if matmul(mu, kron(eta, eye)) != eye or matmul(mu, kron(eye, eta)) != eye:
        raise NotUnital("eta is not a two-sided unit")


def reference_from_economy(dim, mu, eta, pairing):
    reference_check_algebra(dim, mu, eta)
    gram = pairing.gram
    found = rank(gram)
    if found < dim:
        raise PairingDegenerate(found, dim)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = sum(mu.entry(m, i * dim + j) * gram.entry(m, k) for m in range(dim))
                rhs = sum(mu.entry(m, j * dim + k) * gram.entry(i, m) for m in range(dim))
                if lhs != rhs:
                    raise PairingNotInvariant((i, j, k))
    eps = Matrix(
        1, dim, [sum(gram.entry(k, j) * eta.entry(j, 0) for j in range(dim)) for k in range(dim)]
    )
    c = inverse(gram)
    delta = Matrix.from_rows(
        [
            [sum(c.entry(i, j) * mu.entry(m, k * dim + i) for i in range(dim)) for k in range(dim)]
            for m in range(dim)
            for j in range(dim)
        ]
    )
    return FrobeniusAlgebra(dim, mu, eta, delta, eps)


def reference_to_economy(alg):
    n = alg.dim
    return Matrix.from_rows(
        [
            [sum(alg.eps.entry(0, m) * alg.mu.entry(m, i * n + j) for m in range(n)) for j in range(n)]
            for i in range(n)
        ]
    )


def reference_grid_gram(dim, mu, lam):
    return Matrix.from_rows(
        [
            [sum(lam[m] * mu.entry(m, i * dim + j) for m in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
    )


def reference_admits(dim, mu, eta):
    reference_check_algebra(dim, mu, eta)
    return any(
        rank(reference_grid_gram(dim, mu, lam)) == dim
        for lam in itertools.product(range(dim + 1), repeat=dim)
    )


def coev_term(word, sig):
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


def pairing_term(word, sig):
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


def reference_bend_state(t, interp):
    """Evaluate the bent term ``coev_src ; (t * id)`` itself."""
    src, _ = typecheck(t, interp.sig)
    if not src:
        return eval_term(t, interp)
    bent = Compose(coev_term(src, interp.sig), Tensor(t, Id(tuple(reversed(src)))))
    return eval_term(bent, interp)


def reference_reconstruct_map(state, source, target, interp):
    """Pad the state and the pairing with identities:
    ``kron(I_tgt, d) . kron(state, I_src)``."""
    if not source:
        return state
    d = eval_term(pairing_term(source, interp.sig), interp)
    contract = kron(Matrix.identity(interp.dim(target)), d)
    return matmul(contract, kron(state, Matrix.identity(interp.dim(source))))


def reference_check_morphism(source, target, psi):
    """Index (1..4) of the first failing hand-written morphism equation."""
    if psi.shape != (target.dim, source.dim):
        raise ShapeError(f"morphism must be {target.dim}x{source.dim}, got {psi.rows}x{psi.cols}")
    if matmul(target.mu, kron(psi, psi)) != matmul(psi, source.mu):
        return 1
    if target.eta != matmul(psi, source.eta):
        return 2
    if matmul(kron(psi, psi), source.delta) != matmul(target.delta, psi):
        return 3
    if source.eps != matmul(target.eps, psi):
        return 4
    return None


def reference_dp_morphism_check(p, q, f, g):
    """Whether (f, g) intertwines the pairings: d_p = d_q.(g(x)f) and
    (f(x)g).b_p = b_q."""
    if f.shape != (q.dim_u, p.dim_u):
        raise ShapeError(f"f must be {q.dim_u}x{p.dim_u}, got {f.rows}x{f.cols}")
    if g.shape != (q.dim_v, p.dim_v):
        raise ShapeError(f"g must be {q.dim_v}x{p.dim_v}, got {g.rows}x{g.cols}")
    return matmul(q.d, kron(g, f)) == p.d and matmul(kron(f, g), p.b) == q.b


def outcome(build):
    """The built algebra's delta and eps, or the rejection it raised."""
    try:
        alg = build()
    except (PairingDegenerate, PairingNotInvariant, NotAssociative, NotUnital) as exc:
        return type(exc).__name__, getattr(exc, "witness", None), str(exc)
    return alg.delta, alg.eps


def bumped(m, k):
    """``m`` with its k-th row-major entry increased by one."""
    flat = [x for row in dense(m) for x in row]
    flat[k] += 1
    return Matrix(m.rows, m.cols, flat)


def one_entry_variants(alg):
    for field in ("mu", "eta", "delta", "eps"):
        m = getattr(alg, field)
        for k in range(m.rows * m.cols):
            parts = {f: getattr(alg, f) for f in ("mu", "eta", "delta", "eps")}
            parts[field] = bumped(m, k)
            yield f"{field}[{k}]", FrobeniusAlgebra(alg.dim, **parts)


# --- axioms ----------------------------------------------------------------


def test_axiom_report_matches_formulas_on_zoo_and_s3():
    cases = eleven_algebras() + [("s3", group_algebra(symmetric_group(3)))]
    for name, alg in cases:
        assert check_axioms(alg).to_json() == reference_axioms(alg), name


@pytest.mark.parametrize("name,alg", [
    ("z3", group_algebra(cyclic_group(3))),
    ("milnor:4", milnor_ring(4)),
])
def test_axiom_report_matches_formulas_on_one_entry_perturbations(name, alg):
    failing_somewhere = set()
    for where, variant in one_entry_variants(alg):
        expected = reference_axioms(variant)
        assert check_axioms(variant).to_json() == expected, (name, where)
        failing_somewhere.update(k for k, ok in expected.items() if not ok)
    # the perturbations exercise every axiom except commutativity, which
    # a single bumped entry of mu can only break in a noncommutative way
    assert {"assoc", "unit", "coassoc", "counit", "frobenius"} <= failing_somewhere


def test_check_relations_evaluates_each_distinct_side_once(monkeypatch):
    interp = frobenius_interpretation(group_algebra(cyclic_group(2)))
    seen = []
    real = evaluate._eval

    def counting(t, i):
        seen.append(t)
        return real(t, i)

    monkeypatch.setattr(evaluate, "_eval", counting)
    report = check_relations(interp)
    assert report.ok and len(report.checks) == 11
    assert len(seen) == 16 and len(set(seen)) == 16


def test_check_relations_hashes_no_term(monkeypatch):
    # the signature indexed its distinct sides when it was built
    interp = frobenius_interpretation(group_algebra(cyclic_group(2)))
    evaluated, hashed = [], []
    real = evaluate._eval

    def counting(t, i):
        evaluated.append(t)
        return real(t, i)

    monkeypatch.setattr(evaluate, "_eval", counting)
    for cls in (Gen, Id, Swap, Compose, Tensor):
        def logged(self, real_hash=cls.__hash__):
            hashed.append(self)
            return real_hash(self)

        monkeypatch.setattr(cls, "__hash__", logged)
    assert check_relations(interp).ok
    assert hashed == [] and len(evaluated) == 16
    monkeypatch.undo()
    assert len(set(evaluated)) == 16


def test_check_relations_never_typechecks(monkeypatch):
    # the signature typechecked every side when it was built
    interps = [
        frobenius_interpretation(milnor_ring(4)),
        standard_pair(3).interpretation,
    ]
    calls = []

    def counting(t, sig):
        calls.append(t)
        return typecheck(t, sig)

    monkeypatch.setattr(evaluate, "typecheck", counting)
    monkeypatch.setattr(terms, "typecheck", counting)
    for interp in interps:
        assert check_relations(interp).ok
    assert calls == []


# --- economy conversions and the grid --------------------------------------


def test_economy_conversions_match_loops_on_zoo():
    for name, alg in eleven_algebras():
        gram = to_economy(alg).gram
        assert gram == reference_to_economy(alg), name
        pairing = BilinearPairing(alg.dim, gram)
        assert outcome(lambda: from_economy(alg.dim, alg.mu, alg.eta, pairing)) == outcome(
            lambda: reference_from_economy(alg.dim, alg.mu, alg.eta, pairing)
        ), name


def test_from_economy_matches_loops_on_random_pairings():
    rng = random.Random(2024)
    tried = {"invariant": 0, "not invariant": 0}
    for name, alg in eleven_algebras():
        n = alg.dim
        for _ in range(6):
            lam = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            invariant = reference_grid_gram(n, alg.mu, lam)
            generic = Matrix(n, n, [rng.randint(-2, 2) for _ in range(n * n)])
            for kind, gram in (("invariant", invariant), ("not invariant", generic)):
                pairing = BilinearPairing(n, gram)
                got = outcome(lambda: from_economy(n, alg.mu, alg.eta, pairing))
                want = outcome(lambda: reference_from_economy(n, alg.mu, alg.eta, pairing))
                assert got == want, (name, kind, lam)
                if kind == "invariant" or got[0] == "PairingNotInvariant":
                    tried[kind] += 1
    assert tried["invariant"] > 20 and tried["not invariant"] > 20


def test_grid_search_matches_loops():
    cases = [upper_triangular_algebra()] + [(a.dim, a.mu, a.eta) for _, a in eleven_algebras()]
    for dim, mu, eta in cases:
        assert admits_frobenius_form(dim, mu, eta) == reference_admits(dim, mu, eta)


def direct_sum(first, second):
    """Raw (dim, mu, eta) of the product of two raw algebras."""
    (da, mua, etaa), (db, mub, etab) = first, second
    n = da + db
    rows = [[0] * (n * n) for _ in range(n)]
    for off, d, mu in ((0, da, mua), (da, db, mub)):
        for k, i, j in itertools.product(range(d), repeat=3):
            rows[off + k][(off + i) * n + off + j] = mu.entry(k, i * d + j)
    eta = [etaa.entry(i, 0) for i in range(da)] + [etab.entry(i, 0) for i in range(db)]
    return n, Matrix.from_rows(rows), Matrix(n, 1, eta)


def test_lattice_search_matches_grid_on_dimension_four_direct_sums(monkeypatch):
    triangular = upper_triangular_algebra()
    field = (1, Matrix.from_rows([[1]]), Matrix.from_rows([[1]]))
    ranks = []

    def counting(m):
        ranks.append(m)
        return rank(m)

    monkeypatch.setattr(frobenius, "rank", counting)
    for dim, mu, eta in (direct_sum(triangular, field), direct_sum(field, triangular)):
        assert dim == 4
        ranks.clear()
        assert admits_frobenius_form(dim, mu, eta) is reference_admits(dim, mu, eta) is False
        # no form: every lattice point is visited, C(7, 4) of them instead of 5^4
        assert len(ranks) == 35


# --- morphisms and inverses ------------------------------------------------


def signed_permutations(n):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield Matrix(n, n, [signs[j] * (perm[j] == i) for i in range(n) for j in range(n)])


def one_entry_changes(m):
    flat = [x for row in dense(m) for x in row]
    for k, step in itertools.product(range(len(flat)), (1, -1)):
        changed = list(flat)
        changed[k] += step
        yield Matrix(m.rows, m.cols, changed)


def test_check_morphism_matches_equations_on_valid_and_invalid_morphisms():
    for name, src, tgt, psi in valid_morphisms():
        assert check_morphism(src, tgt, psi) is reference_check_morphism(src, tgt, psi) is None, name
    for name, src, tgt, psi, equation in invalid_morphisms():
        assert check_morphism(src, tgt, psi) == reference_check_morphism(src, tgt, psi) == equation, name


def test_check_morphism_matches_equations_on_one_entry_changes():
    """Every +-1 one-entry change of the identity and of one nontrivial
    automorphism of each zoo algebra, and the identity into every +1
    one-entry change of the algebra's structure maps."""
    seen, nontrivial = set(), 0
    for name, alg in eleven_algebras():
        eye = Matrix.identity(alg.dim)
        autos = [m for m in signed_permutations(alg.dim)
                 if m != eye and reference_check_morphism(alg, alg, m) is None]
        nontrivial += bool(autos)
        cases = [(alg, psi) for psi in [eye] + autos[:1]]
        cases += [(alg, changed) for psi in [eye] + autos[:1] for changed in one_entry_changes(psi)]
        cases += [(variant, eye) for _, variant in one_entry_variants(alg)]
        for target, psi in cases:
            want = reference_check_morphism(alg, target, psi)
            assert check_morphism(alg, target, psi) == want, (name, psi)
            if want is not None:
                with pytest.raises(NotAFrobeniusMorphism) as err:
                    morphism_inverse(alg, target, psi)
                assert err.value.equation_index == want
            seen.add(want)
    # z2, z3, z2xz2, milnor:4, gr(ising) and gr(vec_z3) have signed-permutation automorphisms
    assert nontrivial == 6
    assert seen == {None, 1, 2, 3, 4}


def dual_pair_cases():
    """Six random (p, q, f, g) morphisms per pair of pairs, each also as
    (f, f), with one entry of f changed, and with g replaced by a random
    matrix."""
    rng = random.Random(77)
    m = Matrix.from_rows([[2, 1], [1, 1]])
    pairs = [
        (standard_pair(2), standard_pair(2)),
        (standard_pair(3), standard_pair(3)),
        (standard_pair(2), DualPair(2, 2, m.reshape(4, 1), inverse(m).reshape(1, 4))),
    ]
    cases = []
    for p, q in pairs:
        n = p.dim_u
        b_q = q.b.reshape(n, n)
        made = 0
        while made < 6:
            f = Matrix(n, n, [rng.randint(-3, 3) for _ in range(n * n)])
            if rank(f) < n:
                continue
            made += 1
            # with b_p = id, (f (x) g) b_p = b_q reads f . g^T = B_q
            g = matmul(inverse(f), b_q).transpose()
            noise = Matrix(n, n, [rng.randint(-2, 2) for _ in range(n * n)])
            cases += [(p, q, f, g), (p, q, f, f), (p, q, next(one_entry_changes(f)), g), (p, q, f, noise)]
    return cases


def test_dp_morphism_check_matches_equations():
    verdicts = []
    for p, q, f, g in dual_pair_cases():
        want = reference_dp_morphism_check(p, q, f, g)
        assert dualpairs.dp_morphism_check(p, q, f, g) is want
        if not want:
            with pytest.raises(ValueError, match="not a morphism of dual pairs"):
                dp_morphism_inverse(p, q, f, g)
        verdicts.append(want)
    assert verdicts.count(True) >= 18 and verdicts.count(False) >= 36


def two_label_signature():
    return Signature(
        ["a", "b"],
        {
            "f": (("a",), ("b",)),
            "m": (("a", "b"), ("b",)),
            "u": ((), ("a", "a")),
            "c": (("b",), ()),
            "s": (("b", "a"), ("a", "b")),
        },
    )


def test_naturality_on_a_generic_two_label_signature():
    rng = random.Random(5)
    sig = two_label_signature()
    dims = {"a": 2, "b": 3}

    def word_dim(word):
        return 1 if not word else dims[word[0]] * word_dim(word[1:])

    source = {}
    for name, (src, tgt) in sig.g1.items():
        r, c = word_dim(tgt), word_dim(src)
        source[name] = Matrix(r, c, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(r * c)])
    source = Interpretation(sig, dims, source)
    eye = {label: Matrix.identity(d) for label, d in dims.items()}
    assert naturality_failures(source, source, eye) == []

    # conjugating every generator by invertible components is natural by construction
    psi = {"a": Matrix.from_rows([[1, 2], [0, 1]]), "b": Matrix.from_rows([[1, 0, 1], [0, 2, 0], [1, 0, 0]])}

    def on(word):
        out = Matrix.identity(1)
        for label in word:
            out = kron(out, psi[label])
        return out

    conjugated = {
        name: matmul(on(tgt), matmul(source.gen_matrix[name], inverse(on(src))))
        for name, (src, tgt) in sig.g1.items()
    }
    assert naturality_failures(source, Interpretation(sig, dims, conjugated), psi) == []
    for name in sig.g1:
        perturbed = dict(conjugated, **{name: next(one_entry_changes(conjugated[name]))})
        assert naturality_failures(source, Interpretation(sig, dims, perturbed), psi) == [name]
    # the identity components are natural only where conjugation changed nothing
    failing = naturality_failures(source, Interpretation(sig, dims, conjugated), eye)
    assert failing == [name for name in sig.g1 if conjugated[name] != source.gen_matrix[name]]


def test_misshaped_component_names_its_label():
    sig = two_label_signature()
    dims = {"a": 1, "b": 1}
    interp = Interpretation(sig, dims, {name: Matrix.identity(1) for name in sig.g1})
    with pytest.raises(ShapeError, match="component 'b': expected 1x1, got 2x1"):
        naturality_failures(interp, interp, {"a": Matrix.identity(1), "b": Matrix.zeros(2, 1)})
    z2 = group_algebra(cyclic_group(2))
    with pytest.raises(ShapeError, match="component 'S1'"):
        check_morphism(z2, z2, Matrix.identity(3))
    with pytest.raises(ShapeError, match="component 'pm'"):
        dualpairs.dp_morphism_check(standard_pair(2), standard_pair(2), Matrix.identity(2), Matrix.identity(3))


# --- inverses --------------------------------------------------------------


def test_morphism_inverse_matches_gaussian_elimination():
    for name, alg in eleven_algebras():
        n = alg.dim
        eye = Matrix.identity(n)
        assert morphism_inverse(alg, alg, eye) == inverse(eye), name
    z5 = group_algebra(cyclic_group(5))
    for k in (2, 3, 4):
        # x -> x^k permutes the group basis and is a Frobenius automorphism
        psi = Matrix.from_rows([[int((k * j) % 5 == i) for j in range(5)] for i in range(5)])
        assert morphism_inverse(z5, z5, psi) == inverse(psi), k


def test_dp_morphism_inverse_matches_gaussian_elimination_across_pairs():
    rng = random.Random(99)
    p = standard_pair(2)
    m = Matrix.from_rows([[2, 1], [1, 1]])
    q = DualPair(2, 2, m.reshape(4, 1), inverse(m).reshape(1, 4))
    produced = 0
    while produced < 8:
        f = Matrix(2, 2, [rng.randint(-3, 3) for _ in range(4)])
        if rank(f) < 2:
            continue
        # with b_p = id and b_q = m, (f (x) g) b_p = b_q reads f . g^T = m
        g = matmul(inverse(f), m).transpose()
        assert dualpairs.dp_morphism_check(p, q, f, g)
        f_inv, g_inv = dp_morphism_inverse(p, q, f, g)
        assert f_inv == inverse(f) and g_inv == inverse(g)
        produced += 1


# --- bending and reconstruction --------------------------------------------


def bending_interpretations():
    """Frobenius interpretations, and one of random rational generator
    matrices, whose designated duality terms are not symmetric."""
    rng = random.Random(23)
    sig = bord2_signature()
    noise = {}
    for name, (src, tgt) in sig.g1.items():
        r, c = 2 ** len(tgt), 2 ** len(src)
        noise[name] = Matrix(r, c, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(r * c)])
    algebras = [group_algebra(cyclic_group(2)), milnor_ring(3), group_algebra(cyclic_group(3))]
    return [frobenius_interpretation(alg) for alg in algebras] + [Interpretation(sig, {"S1": 2}, noise)]


def test_bend_and_reconstruct_match_padded_kronecker_formulas():
    rng = random.Random(29)
    sig = bord2_signature()
    atoms = [Gen("pants"), Gen("copants"), Gen("cap"), Gen("cup"), Swap(("S1",), ("S1",)), Id(("S1",))]
    terms = enumerate_terms(sig, atoms, 3, 3, {3: 60})
    terms += [random_term(rng, sig, rng.randint(1, 4)) for _ in range(40)]
    for interp in bending_interpretations():
        for t in terms:
            src, tgt = typecheck(t, sig)
            if interp.dim(src) * interp.dim(tgt) > 64:
                continue
            state = bend_state(t, interp)
            assert state == reference_bend_state(t, interp)
            assert reconstruct_map(state, src, tgt, interp) == reference_reconstruct_map(state, src, tgt, interp)
            # a state that is no bent term
            other = Matrix(state.rows, 1, [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(state.rows)])
            assert reconstruct_map(other, src, tgt, interp) == reference_reconstruct_map(other, src, tgt, interp)


def dualised_signature(undualised=()):
    """Labels a, b and c, each with a unit and a counit generator and a
    designated duality unless it is named in ``undualised``, and one
    generator mixing a and b."""
    g1 = {"m": (("a", "b"), ("b",))}
    duality = {}
    for x in "abc":
        g1[f"u{x}"], g1[f"e{x}"] = ((), (x, x)), ((x, x), ())
        if x not in undualised:
            duality[x] = terms.DualityData(Gen(f"u{x}"), Gen(f"e{x}"))
    return Signature("abc", g1, duality=duality)


def dualised_interpretation(rng, sig):
    dims = {"a": 2, "b": 3, "c": 1}
    mats = {}
    for name, (src, tgt) in sig.g1.items():
        r, c = math.prod(dims[x] for x in tgt), math.prod(dims[x] for x in src)
        mats[name] = Matrix(r, c, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(r * c)])
    return Interpretation(sig, dims, mats)


def test_bend_and_reconstruct_match_nested_duality_terms_on_mixed_words():
    rng = random.Random(31)
    sig = dualised_signature()
    interp = dualised_interpretation(rng, sig)
    words = [w for k in range(4) for w in itertools.product("ab", repeat=k)]
    assert len(words) == 15
    for word in words:
        ts = [Id(word)]
        if word:
            ts.append(Swap(word[:1], word[1:]))
        if word[:2] == ("a", "b"):
            ts.append(Tensor(Gen("m"), Id(word[2:])))
        for t in ts:
            src, tgt = typecheck(t, sig)
            assert bend_state(t, interp) == reference_bend_state(t, interp), word
            for target in (tgt, (), ("b", "a")):
                rows = interp.dim(target) * interp.dim(src)
                state = Matrix(rows, 1, [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(rows)])
                assert reconstruct_map(state, src, target, interp) == reference_reconstruct_map(
                    state, src, target, interp
                ), (word, target)


def test_missing_duality_names_the_first_undualised_label():
    rng = random.Random(37)
    for undualised, word, label in (
        ("c", ("a", "b", "c"), "c"),
        ("bc", ("a", "c", "b"), "c"),
        ("bc", ("b", "a", "c"), "b"),
        ("a", ("b", "b", "a"), "a"),
    ):
        sig = dualised_signature(undualised)
        interp = dualised_interpretation(rng, sig)
        for bend in (
            lambda: bend_state(Id(word), interp),
            lambda: reconstruct_map(Matrix.zeros(interp.dim(word), 1), word, (), interp),
            lambda: reference_bend_state(Id(word), interp),
            lambda: reference_reconstruct_map(Matrix.zeros(interp.dim(word), 1), word, (), interp),
        ):
            with pytest.raises(MissingDuality) as err:
                bend()
            assert err.value.label == label, (undualised, word)
        assert sorted(interp.duality) == sorted(set("abc") - set(undualised))


@settings(max_examples=80, deadline=None)
@given(
    which=st.integers(min_value=0, max_value=10),
    width=st.integers(min_value=0, max_value=3),
    rng=st.randoms(use_true_random=False),
)
def test_kept_word_dualities_match_a_fresh_interpretation(algebra_zoo, which, width, rng):
    # the zoo algebra keeps its interpretation, so its word dualities are
    # kept from earlier examples and tests; the fresh one builds them here
    warm = algebra_zoo[which][1].interpretation
    sig = warm.sig
    t = term_with_source(rng, sig, ("S1",) * width, 3)
    src, tgt = typecheck(t, sig)
    assume(warm.dim(src) * warm.dim(tgt) <= 1024)
    direct = eval_term(t, warm)
    reconstruct_map(bend_state(t, warm), src, tgt, warm)
    fresh = Interpretation(sig, warm.obj_dim, warm.gen_matrix)
    state = bend_state(t, warm)
    assert state == bend_state(t, fresh) == bend_value(direct, src, fresh) == bend_value(direct, src, warm)
    assert reconstruct_map(state, src, tgt, warm) == reconstruct_map(state, src, tgt, fresh) == direct
    fresh = Interpretation(sig, warm.obj_dim, warm.gen_matrix)
    other = Matrix(state.rows, 1, [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(state.rows)])
    assert reconstruct_map(other, src, tgt, warm) == reconstruct_map(other, src, tgt, fresh)


# --- post-conditions -------------------------------------------------------


def test_morphism_inverse_postcondition_raises(monkeypatch):
    z2 = group_algebra(cyclic_group(2))
    monkeypatch.setattr(frobenius, "check_morphism", lambda *args: None)
    with pytest.raises(AssertionError, match=r"inv \. psi is not the identity"):
        morphism_inverse(z2, z2, Matrix.identity(2).scale(2))


def test_dp_morphism_inverse_postcondition_raises(monkeypatch):
    p = standard_pair(2)
    monkeypatch.setattr(dualpairs, "dp_morphism_check", lambda *args: True)
    twice = Matrix.identity(2).scale(2)
    with pytest.raises(AssertionError, match=r"f_inv \. f is not the identity"):
        dp_morphism_inverse(p, p, twice, twice)


# --- sparse kernels against dense Fraction rows ----------------------------


def dense_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def dense_swap(d1, d2):
    n = d1 * d2
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(d1):
        for j in range(d2):
            out[j * d1 + i][i * d2 + j] = Fraction(1)
    return out


def dense_mul(a, b, cols):
    return [[sum((x * b[t][j] for t, x in enumerate(row)), Fraction(0)) for j in range(cols)] for row in a]


def dense_transpose(a, cols):
    return [[row[j] for row in a] for j in range(cols)]


def dense_reshape(a, rows, cols):
    flat = [x for row in a for x in row]
    return [flat[i * cols : (i + 1) * cols] for i in range(rows)]


def dense_differences(a, b):
    flat_a = [x for row in a for x in row]
    flat_b = [x for row in b for x in row]
    return [k for k, (x, y) in enumerate(zip(flat_a, flat_b)) if x != y]


def mixed_density(rng, rows, cols):
    """Dense Fraction rows with a random share of nonzeros, from none to
    all; small numerators make products cancel."""
    density = rng.choice((0.0, 0.1, 0.3, 0.6, 1.0))
    return [
        [
            Fraction(rng.choice((-2, -1, 1, 1, 3)), rng.choice((1, 1, 2, 3, 6)))
            if rng.random() < density
            else Fraction(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def sparse(rows_list, cols):
    return Matrix(len(rows_list), cols, [x for row in rows_list for x in row])


def assert_matches(m, rows, shape):
    """``m`` is canonical and holds exactly the dense rows."""
    assert m.shape == shape
    assert len(m.nz) == m.rows and m.den > 0
    for row in m.nz:
        columns = [j for j, _ in row]
        assert columns == sorted(set(columns)) and all(0 <= j < m.cols for j in columns)
        assert all(v for _, v in row)
    assert gcd(m.den, *[v for row in m.nz for _, v in row]) == 1
    assert dense(m) == rows


EDGE_SHAPES = [(0, 3), (3, 0), (0, 0), (1, 1)]


def random_shapes(rng, count):
    return EDGE_SHAPES + [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(count)]


def test_constructor_keeps_only_the_nonzeros():
    rng = random.Random(41)
    for rows, cols in random_shapes(rng, 60):
        dense = mixed_density(rng, rows, cols)
        m = sparse(dense, cols)
        assert_matches(m, dense, (rows, cols))
        assert sum(map(len, m.nz)) == sum(1 for row in dense for x in row if x)
        assert matrix_to_json(m) == [[str(x) for x in row] for row in dense]


def test_identity_and_swap_match_dense():
    for n in range(7):
        assert_matches(Matrix.identity(n), dense_identity(n), (n, n))
        assert_matches(Matrix.zeros(n, 3), [[Fraction(0)] * 3 for _ in range(n)], (n, 3))
    for d1 in range(5):
        for d2 in range(5):
            assert_matches(swap_matrix(d1, d2), dense_swap(d1, d2), (d1 * d2, d1 * d2))


def test_products_match_dense():
    rng = random.Random(43)
    shapes = [(0, 2, 3), (2, 0, 3), (2, 3, 0), (0, 0, 0)]
    shapes += [tuple(rng.randint(1, 6) for _ in range(3)) for _ in range(150)]
    for n, k, m in shapes:
        a, b = mixed_density(rng, n, k), mixed_density(rng, k, m)
        assert_matches(matmul(sparse(a, k), sparse(b, m)), dense_mul(a, b, m), (n, m))
    # a row whose products cancel keeps no entry
    assert matmul(Matrix.row([1, 1]), Matrix.column([1, -1])).nz == ((),)


def test_wide_sparse_products_match_dense():
    # few nonzeros against a wide b: these rows accumulate in a dict
    rng = random.Random(71)
    for _ in range(60):
        n, k, m = rng.randint(1, 4), rng.randint(2, 5), rng.randint(100, 400)
        a = mixed_density(rng, n, k)
        b = [[Fraction(0)] * m for _ in range(k)]
        for row in b:
            for _ in range(rng.randint(0, 3)):
                row[rng.randrange(m)] = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 3)))
        assert_matches(matmul(sparse(a, k), sparse(b, m)), dense_mul(a, b, m), (n, m))


def padded_dense(a, la, ra, cols):
    """I_la (x) a (x) I_ra as dense rows."""
    left = reference_kron(dense_identity(la), a, la, cols)
    return reference_kron(left, dense_identity(ra), la * cols, ra)


def test_padded_products_match_dense_kronecker_products():
    rng = random.Random(73)
    cases = 0
    while cases < 200:
        la, ra, lb, rb = (rng.choice((1, 1, 2, 3)) for _ in range(4))
        n, k = rng.randint(0, 4), rng.randint(1, 4)
        inner = la * k * ra
        if inner % (lb * rb):
            continue
        kb, m = inner // (lb * rb), rng.randint(0, 4)
        a, b = mixed_density(rng, n, k), mixed_density(rng, kb, m)
        want = dense_mul(padded_dense(a, la, ra, k), padded_dense(b, lb, rb, m), lb * m * rb)
        got = padded_matmul(la, sparse(a, k), ra, lb, sparse(b, m), rb)
        assert_matches(got, want, (la * n * ra, lb * m * rb))
        cases += 1
    with pytest.raises(ShapeError, match="cannot multiply 4x6 by 4x2"):
        padded_matmul(2, Matrix.zeros(2, 3), 1, 2, Matrix.zeros(2, 1), 1)


def test_wide_product_allocates_its_nonzeros_not_its_width():
    # 2 x 10^7 with five nonzeros: a dense row of the product's width
    # would take 80 MB
    u = Matrix.row([0] * 9999 + [5])
    v = Matrix.row([1] + [0] * 998 + [-2])
    b = kron(Matrix.column([1, 3]), kron(u, v))
    a = Matrix.from_rows([[1, 1], [2, -1], [3, -1]])
    tracemalloc.start()
    try:
        c = matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert c.shape == (3, 10 ** 7)
    assert c.nz == (((9_999_000, 20), (9_999_999, -40)), ((9_999_000, -5), (9_999_999, 10)), ())


def test_kron_matches_dense():
    rng = random.Random(47)
    shapes = [(0, 3, 2, 2), (3, 0, 2, 2), (2, 2, 0, 3), (2, 2, 3, 0), (0, 0, 0, 0)]
    shapes += [tuple(rng.randint(1, 4) for _ in range(4)) for _ in range(100)]
    for ra, ca, rb, cb in shapes:
        a, b = mixed_density(rng, ra, ca), mixed_density(rng, rb, cb)
        want = reference_kron(a, b, ca, cb)
        assert_matches(kron(sparse(a, ca), sparse(b, cb)), want, (ra * rb, ca * cb))


def test_transpose_reshape_scale_match_dense():
    rng = random.Random(53)
    for rows, cols in random_shapes(rng, 80):
        dense = mixed_density(rng, rows, cols)
        m = sparse(dense, cols)
        assert_matches(m.transpose(), dense_transpose(dense, cols), (cols, rows))
        size = rows * cols
        shapes = [(r, size // r) for r in range(1, size + 1) if size % r == 0] or [(0, 5), (5, 0)]
        for r, c in shapes:
            assert_matches(m.reshape(r, c), dense_reshape(dense, r, c), (r, c))
        factor = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert_matches(m.scale(factor), [[x * factor for x in row] for row in dense], (rows, cols))


def test_first_difference_matches_dense():
    rng = random.Random(59)
    for rows, cols in random_shapes(rng, 120):
        a = mixed_density(rng, rows, cols)
        b = [list(row) for row in a]
        for _ in range(rng.randint(0, 2)):
            if rows and cols:
                i, j = rng.randrange(rows), rng.randrange(cols)
                b[i][j] = rng.choice((Fraction(0), Fraction(1, 7), b[i][j] * 2))
        for other in (b, mixed_density(rng, rows, cols)):
            want = dense_differences(a, other)
            m, n = sparse(a, cols), sparse(other, cols)
            assert list(m.differences(n)) == want
            assert m.first_difference(n) == (want[0] if want else None)


def test_rank_and_inverse_match_dense():
    rng = random.Random(61)
    inverted = 0
    for rows, cols in random_shapes(rng, 120):
        dense = mixed_density(rng, rows, cols)
        m = sparse(dense, cols)
        assert rank(m) == reference_reduce(dense, cols)[0]
        square = mixed_density(rng, rows, rows)
        want = reference_inverse(square)
        if want is None:
            with pytest.raises(ShapeError):
                inverse(sparse(square, rows))
        else:
            assert_matches(inverse(sparse(square, rows)), want, (rows, rows))
            inverted += 1
    assert inverted > 20


# --- the evaluator against a dense evaluator -------------------------------


def dense_eval(t, interp):
    """Evaluate a term over dense Fraction rows: explicit identities,
    swaps, products and Kronecker products."""
    if isinstance(t, Gen):
        return dense(interp.gen_matrix[t.name])
    if isinstance(t, Id):
        return dense_identity(interp.dim(t.word))
    if isinstance(t, Swap):
        return dense_swap(interp.dim(t.left), interp.dim(t.right))
    if isinstance(t, Compose):
        src, _ = typecheck(t.first, interp.sig)
        return dense_mul(dense_eval(t.then, interp), dense_eval(t.first, interp), interp.dim(src))
    left_src, _ = typecheck(t.left, interp.sig)
    right_src, _ = typecheck(t.right, interp.sig)
    return reference_kron(
        dense_eval(t.left, interp), dense_eval(t.right, interp), interp.dim(left_src), interp.dim(right_src)
    )


def sparse_noise_interpretation(dim=2, seed=67):
    """Random rational generator matrices at dimension ``dim``, about half
    of their entries zero, so the designated duality terms are not
    symmetric and rows of every density occur."""
    rng = random.Random(seed)
    sig = bord2_signature()
    noise = {}
    for name, (src, tgt) in sig.g1.items():
        r, c = dim ** len(tgt), dim ** len(src)
        noise[name] = Matrix(r, c, [x for row in mixed_density(rng, r, c) for x in row])
    return Interpretation(sig, {"S1": dim}, noise)


EVAL_INTERPRETATIONS = {
    "z2": frobenius_interpretation(group_algebra(cyclic_group(2))),
    "milnor:3": frobenius_interpretation(milnor_ring(3)),
    "noise": sparse_noise_interpretation(),
}


@pytest.mark.parametrize("name", sorted(EVAL_INTERPRETATIONS))
@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False), depth=st.integers(min_value=1, max_value=5))
def test_eval_term_matches_dense_evaluator(name, rng, depth):
    interp = EVAL_INTERPRETATIONS[name]
    t = random_term(rng, interp.sig, depth)
    src, tgt = typecheck(t, interp.sig)
    assume(interp.dim(src) * interp.dim(tgt) <= 6561)
    assert dense(eval_term(t, interp)) == dense_eval(t, interp)


# --- leg-wise evaluation against the per-node evaluator ---------------------


def _reference_leaf(t, interp):
    if isinstance(t, Gen):
        return interp.gen_matrix[t.name]
    if isinstance(t, Id):
        return Matrix.identity(interp.dim(t.word))
    return swap_matrix(interp.dim(t.left), interp.dim(t.right))


def _reference_combine(t, first, second, interp):
    return matmul(second, first) if isinstance(t, Compose) else kron(first, second)


def reference_eval(t, interp):
    """The evaluator before identity legs became index maps: every node's
    value built as a matrix, identities by ``Matrix.identity`` and tensors
    by ``kron``."""
    return terms.fold(t, _reference_leaf, _reference_combine, interp)


LEG_INTERPRETATIONS = {
    "z3": frobenius_interpretation(group_algebra(cyclic_group(3))),
    "milnor:4": frobenius_interpretation(milnor_ring(4)),
    "noise3": sparse_noise_interpretation(3, 79),
}


def padded_shapes(sig):
    """``id[u] * g * id[w]`` for every generator and the swap, u and w of
    length 0 to 2, with the empty identities kept as factors."""
    words = [(), ("S1",), ("S1", "S1")]
    cores = [Gen(name) for name in sig.g1] + [Swap(("S1",), ("S1",))]
    return [Tensor(Tensor(Id(u), g), Id(w)) for g in cores for u in words for w in words]


def padded_cases(sig):
    """Each padded shape alone, composed on both sides with each generator
    it types with, and composed with each padded shape it types with,
    up to four circles between the two."""
    shapes = [(t, *typecheck(t, sig)) for t in padded_shapes(sig)]
    gens = [(Gen(name), src, tgt) for name, (src, tgt) in sig.g1.items()]
    cases = [t for t, _, _ in shapes]
    for t, src, tgt in shapes:
        cases += [Compose(t, g) for g, gsrc, _ in gens if gsrc == tgt]
        cases += [Compose(g, t) for g, _, gtgt in gens if gtgt == src]
        cases += [Compose(t, u) for u, usrc, _ in shapes if usrc == tgt and len(tgt) <= 4]
    return cases


@pytest.mark.parametrize("name", sorted(LEG_INTERPRETATIONS))
def test_legwise_eval_matches_per_node_eval_on_padded_shapes(name):
    interp = LEG_INTERPRETATIONS[name]
    cases = padded_cases(interp.sig)
    assert len(cases) == 444
    for t in cases:
        assert evaluate._eval(t, interp) == reference_eval(t, interp), render_term(t)


def test_legwise_eval_matches_per_node_eval_on_relation_sides():
    for interp in [*LEG_INTERPRETATIONS.values(), EVAL_INTERPRETATIONS["noise"]]:
        for side in interp.sig.sides:
            assert evaluate._eval(side, interp) == reference_eval(side, interp), render_term(side)


def test_relation_sides_build_no_padded_identity(monkeypatch):
    # every tensor in bord2's relation sides has an identity factor, so
    # no side needs a Kronecker product or an identity matrix
    calls = []
    real_kron, real_identity = exactlin.kron, Matrix.__dict__["identity"]

    def counted_kron(a, b):
        calls.append("kron")
        return real_kron(a, b)

    def counted_identity(cls, n):
        calls.append("identity")
        return real_identity.__func__(cls, n)

    interps = [*LEG_INTERPRETATIONS.values(), EVAL_INTERPRETATIONS["milnor:3"]]
    for module in (exactlin, evaluate):
        monkeypatch.setattr(module, "kron", counted_kron)
    monkeypatch.setattr(Matrix, "identity", classmethod(counted_identity))
    reports = [check_relations(interp) for interp in interps]
    assert calls == []
    assert all(report.ok for report in reports[:2])
    # the counters do count: a bare tensor of two generators and a bare
    # identity are built at the root
    evaluate._eval(parse_term("pants * pants", bord2_signature()), interps[0])
    Matrix.identity(2)
    assert calls == ["kron", "identity"]


# --- fusion-ring laws against the index loops ------------------------------


def reference_validate_fusion_ring(ring):
    """The failure tuple of the r^4 index loops, in their order."""
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
    return tuple(failures)


def reference_commutativity_witness(ring):
    r = ring.rank
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if ring.n[i][j][k] != ring.n[j][i][k]:
                    return (i, j, k)
    return None


def reference_grothendieck_mu(ring):
    r = ring.rank
    mu_rows = [[0] * (r * r) for _ in range(r)]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                mu_rows[k][i * r + j] = ring.n[i][j][k]
    return Matrix.from_rows(mu_rows)


def pointed_ring(group):
    """The fusion ring of graded lines over a finite group."""
    n = group.order
    table = tuple(
        tuple(tuple(int(k == group.mult[i][j]) for k in range(n)) for j in range(n))
        for i in range(n)
    )
    return FusionRing(group.names, group.inverse, table)


def with_constant(ring, i, j, k, value):
    table = [[list(row) for row in plane] for plane in ring.n]
    table[i][j][k] = value
    return FusionRing(ring.labels, ring.dual, tuple(
        tuple(tuple(row) for row in plane) for plane in table
    ))


def relabeled(ring, perm):
    """The same ring with label i renamed perm[i], so that the unit label
    no longer sits at index 0 when perm moves it."""
    r = ring.rank
    inv = [perm.index(i) for i in range(r)]
    table = tuple(
        tuple(tuple(ring.n[inv[i]][inv[j]][inv[k]] for k in range(r)) for j in range(r))
        for i in range(r)
    )
    dual = tuple(perm[ring.dual[inv[i]]] for i in range(r))
    return FusionRing(tuple(ring.labels[inv[i]] for i in range(r)), dual, table)


def fusion_rings_under_test():
    """The stock rings, the pointed S3 and S3 x Z2 rings, every one-entry
    change by +1 or -1 of the fibonacci, ising and vec_z3 constants,
    broken dual tuples, and relabelings that move the unit off index 0
    (many unit failures across labels at once)."""
    cases = [(f"vec_z{n}", vec_z(n)) for n in range(1, 7)]
    cases += [("fibonacci", fibonacci()), ("ising", ising())]
    cases += [("s3", pointed_ring(symmetric_group(3)))]
    cases += [("s3xz2", pointed_ring(direct_product(symmetric_group(3), cyclic_group(2))))]
    for name, ring in (("fibonacci", fibonacci()), ("ising", ising()), ("vec_z3", vec_z(3))):
        for i, j, k in itertools.product(range(ring.rank), repeat=3):
            for step in (1, -1):
                value = ring.n[i][j][k] + step
                cases.append((f"{name}[{i}][{j}][{k}]={value}", with_constant(ring, i, j, k, value)))
    broken_duals = [
        (vec_z(3), (0, 1, 2)),
        (vec_z(3), (1, 2, 0)),
        (vec_z(3), (0, 0, 0)),
        (vec_z(3), (0, 5, 1)),
        (vec_z(3), (0, -1, 1)),
        (ising(), (0, 2, 1)),
        (fibonacci(), (1, 0)),
        (vec_z(4), (0, 3, 2, 2)),
    ]
    for ring, dual in broken_duals:
        cases.append((f"{ring.labels}:dual={dual}", FusionRing(ring.labels, dual, ring.n)))
    for ring, perm in (
        (fibonacci(), (1, 0)),
        (ising(), (1, 0, 2)),
        (ising(), (2, 1, 0)),
        (vec_z(3), (1, 2, 0)),
        (vec_z(4), (0, 2, 1, 3)),
    ):
        cases.append((f"{ring.labels}:relabeled={perm}", relabeled(ring, perm)))
    return cases


FUSION_CASES = fusion_rings_under_test()


def test_fusion_reports_match_the_index_loops():
    for name, ring in FUSION_CASES:
        assert validate_fusion_ring(ring).failures == reference_validate_fusion_ring(ring), name


def test_grothendieck_matches_the_index_loops():
    outcomes = set()
    for name, ring in FUSION_CASES:
        if reference_validate_fusion_ring(ring):
            with pytest.raises(ValueError, match="invalid fusion ring"):
                grothendieck_frobenius(ring)
            outcomes.add("invalid")
            continue
        witness = reference_commutativity_witness(ring)
        if witness is not None:
            with pytest.raises(NotCommutativeRing) as err:
                grothendieck_frobenius(ring)
            assert err.value.witness == witness, name
            outcomes.add("noncommutative")
            continue
        want = outcome(lambda: from_economy(
            ring.rank,
            reference_grothendieck_mu(ring),
            Matrix.column([1] + [0] * (ring.rank - 1)),
            BilinearPairing(ring.rank, Matrix.from_rows(
                [[int(j == ring.dual[i]) for j in range(ring.rank)] for i in range(ring.rank)]
            )),
        ))
        assert outcome(lambda: grothendieck_frobenius(ring)) == want, name
        if isinstance(want[0], Matrix):
            assert grothendieck_frobenius(ring).mu == reference_grothendieck_mu(ring), name
            outcomes.add("built")
    assert outcomes == {"invalid", "noncommutative", "built"}


def test_the_ring_cases_reach_every_rule():
    rules = {rule for _, ring in FUSION_CASES for rule, _ in reference_validate_fusion_ring(ring)}
    assert rules == {
        "nonnegative-integer", "left-unit", "right-unit", "associativity",
        "unit-self-dual", "dual-range", "dual-involution", "duality",
    }


# --- the parser ------------------------------------------------------------


def reference_lex(text):
    """The ``(kind, value, offset)`` tokens of ``text``; kinds: NAME, ONE,
    punctuation, END."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in ";*()[],":
            tokens.append((ch, ch, i))
            i += 1
        elif ch == "1":
            tokens.append(("ONE", "1", i))
            i += 1
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        else:
            raise LexicalError(i, f"unexpected character {ch!r}")
    tokens.append(("END", "", n))
    return tokens


def reference_parse(text):
    """The parser of tuple tokens, which builds a new object for every leaf."""
    tokens = reference_lex(text)
    pos = 0

    def describe(tok):
        return "end of input" if tok[0] == "END" else repr(tok[1])

    def take(*kinds):
        nonlocal pos
        tok = tokens[pos]
        if tok[0] not in kinds:
            raise ParseError(tok[2], kinds, describe(tok))
        pos += 1
        return tok

    def objword():
        nonlocal pos
        if tokens[pos][0] == "ONE":
            pos += 1
            return ()
        labels = [take("NAME")[1]]
        while tokens[pos][0] == ",":
            pos += 1
            labels.append(take("NAME")[1])
        return tuple(labels)

    def swapword():
        nonlocal pos
        kind = tokens[pos][0]
        if kind == "ONE":
            pos += 1
            return ()
        if kind == "(":
            pos += 1
            word = objword()
            take(")")
            return word
        return (take("NAME")[1],)

    def bracket(composed, tensored):
        return functools.reduce(Compose, composed + [functools.reduce(Tensor, tensored)])

    levels = [([], [])]
    while True:
        while tokens[pos][0] == "(":
            pos += 1
            levels.append(([], []))
        name = take("NAME", "'id['", "'swap['", "'('")[1]
        if name == "id":
            take("[")
            atom = Id(objword())
            take("]")
        elif name == "swap":
            take("[")
            left = swapword()
            take(",")
            atom = Swap(left, swapword())
            take("]")
        else:
            atom = Gen(name)
        levels[-1][1].append(atom)
        while tokens[pos][0] == ")" and len(levels) > 1:
            pos += 1
            inner = bracket(*levels.pop())
            levels[-1][1].append(inner)
        tok = tokens[pos]
        pos += 1
        if tok[0] == ";":
            composed, tensored = levels[-1]
            composed.append(functools.reduce(Tensor, tensored))
            tensored.clear()
        elif tok[0] != "*":
            break
    if len(levels) > 1:
        raise ParseError(tok[2], [")"], describe(tok))
    if tok[0] != "END":
        raise ParseError(tok[2], ["';'", "'*'", "end of input"], describe(tok))
    return bracket(*levels[0])


def parse_outcome(parse, text):
    """The term ``parse`` reads from ``text``, or its error's class, offset and message."""
    try:
        return parse(text)
    except (LexicalError, ParseError) as exc:
        return type(exc), exc.offset, str(exc)


# the DSL's tokens and a few names, and characters the lexer must tell apart:
# a letter, digits of other scripts, numerals that are no letters (\w but no
# name start), two Unicode spaces, a symbol and a number
PARSER_PIECES = [
    "cap", "cup", "pants", "copants", "S1", "x", "id", "swap", "id[", "swap[",
    "(", ")", "[", "]", ",", ";", "*", "1", " ",
    "é", "_1", "²", "١", "Ⅳ", "\u00a0", "\u2003", "$", "12",
]


@st.composite
def spliced_terms(draw):
    """The text of a random term of the parser signature, which repeats
    leaves, with up to two pieces spliced in anywhere."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    text = render_term(random_term(rng, parser_signature(), draw(st.integers(1, 5))))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(PARSER_PIECES)) + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(PARSER_PIECES), max_size=24).map("".join),
    st.text(st.sampled_from("".join(PARSER_PIECES)), max_size=30),
    spliced_terms(),
))
def test_parser_matches_the_reference_parser(text):
    got = parse_outcome(terms._parse, text)
    assert got == parse_outcome(reference_parse, text)
    if isinstance(got, tuple):
        return
    leaves = []
    terms.fold(got, lambda leaf, out: out.append(leaf), lambda *_: None, leaves)
    # equal leaves of one text are one object
    assert len({id(leaf) for leaf in leaves}) == len(set(leaves))
