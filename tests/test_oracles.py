"""The law checks and structure maps against hand-written references.

The references are the explicit formulas and ``entry()`` loops that
``check_axioms``, ``from_economy``, ``to_economy`` and the
``admits_frobenius_form`` grid used before they were written as relation
checks and matrix products, and the padded Kronecker products that
``bend_state`` and ``reconstruct_map`` used before they were written as
reshaped products.  Gaussian elimination is the oracle for the
duality-sandwich inverses.  Dense lists of ``Fraction`` rows are the
oracle for the sparse matrix kernels and for the evaluator.  The index
loops that ``validate_fusion_ring`` and ``grothendieck_frobenius`` ran
before the ring laws were read off the circle relations are the oracle
for the fusion-ring reports and commutativity witnesses.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import eleven_algebras, enumerate_terms, random_term
from test_exactlin import reference_inverse, reference_kron, reference_reduce
from tqftkit import dualpairs, evaluate, frobenius, terms
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
    check_relations,
    coev_term,
    eval_term,
    pairing_term,
    reconstruct_map,
)
from tqftkit.exactlin import (
    Matrix,
    ShapeError,
    inverse,
    kron,
    matmul,
    matrix_to_json,
    rank,
    swap_matrix,
)
from tqftkit.frobenius import (
    BilinearPairing,
    FrobeniusAlgebra,
    NotAssociative,
    NotUnital,
    PairingDegenerate,
    PairingNotInvariant,
    admits_frobenius_form,
    check_axioms,
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
from tqftkit.terms import Compose, Gen, Id, Swap, Tensor, typecheck


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


def outcome(build):
    """The built algebra's delta and eps, or the rejection it raised."""
    try:
        alg = build()
    except (PairingDegenerate, PairingNotInvariant, NotAssociative, NotUnital) as exc:
        return type(exc).__name__, getattr(exc, "witness", None), str(exc)
    return alg.delta, alg.eps


def bumped(m, k):
    """``m`` with its k-th row-major entry increased by one."""
    flat = [x for row in m.to_lists() for x in row]
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


def test_check_relations_never_typechecks(monkeypatch):
    # the signature typechecked every side when it was built
    interps = [
        frobenius_interpretation(milnor_ring(4)),
        dualpairs.dual_pair_interpretation(standard_pair(3)),
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


def assert_matches(m, dense, shape):
    """``m`` is canonical and holds exactly the dense rows."""
    assert m.shape == shape
    assert len(m.nz) == m.rows and m.den > 0
    for row in m.nz:
        columns = [j for j, _ in row]
        assert columns == sorted(set(columns)) and all(0 <= j < m.cols for j in columns)
        assert all(v for _, v in row)
    assert gcd(m.den, *[v for row in m.nz for _, v in row]) == 1
    assert m.to_lists() == dense
    assert [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)] == dense


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
        assert m.nums == tuple(int(x * m.den) for row in dense for x in row)
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
        return interp.gen_matrix[t.name].to_lists()
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


def sparse_noise_interpretation():
    """Random rational generator matrices at dimension 2, about half of
    their entries zero, so the designated duality terms are not
    symmetric and rows of every density occur."""
    rng = random.Random(67)
    sig = bord2_signature()
    noise = {}
    for name, (src, tgt) in sig.g1.items():
        r, c = 2 ** len(tgt), 2 ** len(src)
        noise[name] = Matrix(r, c, [x for row in mixed_density(rng, r, c) for x in row])
    return Interpretation(sig, {"S1": 2}, noise)


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
    assert eval_term(t, interp).to_lists() == dense_eval(t, interp)


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
