"""Frobenius axioms, economy conversion, morphisms, and the obstruction test."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from conftest import eleven_algebras
from tqftkit.algebras import (
    cyclic_group,
    direct_product,
    group_algebra,
    milnor_ring,
    symmetric_group,
    trivial_algebra,
    upper_triangular_algebra,
)
from tqftkit.exactlin import Matrix, ShapeError, inverse, kron, matmul, rank
from tqftkit.frobenius import (
    BilinearPairing,
    FrobeniusAlgebra,
    NotAFrobeniusMorphism,
    NotAssociative,
    NotUnital,
    PairingDegenerate,
    PairingNotInvariant,
    admits_frobenius_form,
    algebra_from_json,
    algebra_to_json,
    check_axioms,
    check_morphism,
    from_economy,
    morphism_inverse,
    to_economy,
)
from tqftkit.fusion import grothendieck_frobenius, vec_z


@pytest.fixture(scope="module")
def z2():
    return group_algebra(cyclic_group(2))


class TestCheckAxioms:
    def test_z2_all_true(self, z2):
        report = check_axioms(z2)
        assert report.is_frobenius and report.commutative

    def test_s3_noncommutative(self):
        report = check_axioms(group_algebra(symmetric_group(3)))
        assert report.is_frobenius
        assert not report.commutative

    def test_milnor_x3(self):
        report = check_axioms(milnor_ring(3))
        assert report.is_frobenius and report.commutative

    def test_broken_counit_detected(self, z2):
        broken = FrobeniusAlgebra(
            z2.dim, z2.mu, z2.eta, z2.delta, Matrix.zeros(1, 2), z2.basis_names
        )
        report = check_axioms(broken)
        assert not report.counit
        assert report.assoc and report.unit and report.coassoc


class TestShapes:
    """Structure maps must have the shapes of the circle generators' types;
    the error names the generator."""

    @pytest.mark.parametrize("field,generator,wrong", [
        ("mu", "pants", Matrix.zeros(2, 2)),
        ("eta", "cap", Matrix.zeros(1, 2)),
        ("delta", "copants", Matrix.zeros(2, 4)),
        ("eps", "cup", Matrix.zeros(2, 1)),
    ])
    def test_wrong_structure_map_names_generator(self, z2, field, generator, wrong):
        maps = {"mu": z2.mu, "eta": z2.eta, "delta": z2.delta, "eps": z2.eps}
        maps[field] = wrong
        with pytest.raises(ShapeError, match=f"generator '{generator}'"):
            FrobeniusAlgebra(2, **maps)

    def test_wrong_product_in_economy_and_form_search(self, z2):
        mu = Matrix.zeros(2, 3)
        with pytest.raises(ShapeError, match="generator 'pants': expected 2x4"):
            from_economy(2, mu, z2.eta, BilinearPairing(2, Matrix.identity(2)))
        with pytest.raises(ShapeError, match="generator 'pants': expected 2x4"):
            admits_frobenius_form(2, mu, z2.eta)


class TestKeptInterpretation:
    def test_equal_algebras_compare_and_hash_equal(self):
        first, second = group_algebra(cyclic_group(3)), group_algebra(cyclic_group(3))
        assert first.interpretation is not second.interpretation
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(second) and "interpretation" not in repr(first)

    def test_replace_rebuilds_the_interpretation(self, z2):
        named = dataclasses.replace(z2, basis_names=("e", "g"))
        assert named.interpretation is not z2.interpretation
        assert named.interpretation.gen_matrix == z2.interpretation.gen_matrix
        doubled = dataclasses.replace(z2, eps=z2.eps.scale(2))
        assert doubled.interpretation.gen_matrix["cup"] == z2.eps.scale(2)
        with pytest.raises(ShapeError, match="generator 'cup'"):
            dataclasses.replace(z2, eps=Matrix.zeros(1, 3))

    def test_interpretation_is_read_only(self, z2):
        # a write would leave the kept dualities stale: to_economy would
        # return the old pairing of an algebra that no longer passes
        interp = z2.interpretation
        with pytest.raises(TypeError):
            interp.gen_matrix["cup"] = z2.eps.scale(2)
        with pytest.raises(TypeError):
            interp.obj_dim["S1"] = 3
        with pytest.raises(TypeError):
            interp.duality["S1"] = interp.duality["S1"][::-1]
        assert interp.gen_matrix["cup"] == z2.eps and interp.obj_dim == {"S1": 2}
        assert check_axioms(z2).is_frobenius

    def test_interpretation_attributes_cannot_be_rebound(self, z2):
        # a rebound gen_matrix left the kept word dualities on the old matrices
        interp = z2.interpretation
        kept = interp.word_duality(("S1", "S1"), True)
        for name in ("gen_matrix", "obj_dim", "duality", "sig", "_word_dualities", "new"):
            with pytest.raises(AttributeError, match="^Interpretation is immutable$"):
                setattr(interp, name, {})
        assert interp.gen_matrix["cup"] == z2.eps and interp.word_duality(("S1", "S1"), True) is kept
        assert not hasattr(interp, "new") and check_axioms(z2).is_frobenius

    def test_interpretation_holds_the_circle_duality(self, z2):
        copairing, pairing = z2.interpretation.duality["S1"]
        assert copairing == matmul(z2.delta, z2.eta).reshape(2, 2)
        assert pairing == matmul(z2.eps, z2.mu).reshape(2, 2)


class TestFromEconomy:
    def test_z2_delta_and_eps(self, z2):
        # gram [[1,0],[0,1]] since each element is its own inverse
        assert to_economy(z2).gram == Matrix.identity(2)
        assert z2.delta == Matrix.from_rows([[1, 0], [0, 1], [0, 1], [1, 0]])
        assert z2.eps == Matrix.row([1, 0])

    def test_milnor_x3_structure(self):
        alg = milnor_ring(3)
        assert alg.eps == Matrix.row([0, Fraction(1, 3)])
        assert matmul(alg.delta, alg.eta) == Matrix(4, 1, [0, 3, 3, 0])

    def test_degenerate_pairing_rejected(self, z2):
        with pytest.raises(PairingDegenerate) as err:
            from_economy(2, z2.mu, z2.eta, BilinearPairing(2, Matrix.from_rows([[1, 1], [1, 1]])))
        assert err.value.rank == 1

    def test_noninvariant_pairing_rejected(self, z2):
        skew = BilinearPairing(2, Matrix.from_rows([[1, 0], [0, -1]]))
        with pytest.raises(PairingNotInvariant) as err:
            from_economy(2, z2.mu, z2.eta, skew)
        assert len(err.value.witness) == 3

    def test_triangular_has_no_valid_pairing(self):
        dim, mu, eta = upper_triangular_algebra()
        for diag in itertools.product([0, 1, 2], repeat=3):
            gram = Matrix.from_rows(
                [[diag[i] if i == j else 0 for j in range(3)] for i in range(3)]
            )
            with pytest.raises((PairingDegenerate, PairingNotInvariant)):
                from_economy(dim, mu, eta, BilinearPairing(3, gram))

    def test_nonassociative_rejected(self):
        mu = Matrix.from_rows([[1, 1, 1, 1], [0, 1, 0, 0]])
        eta = Matrix(2, 1, [1, 0])
        with pytest.raises((NotAssociative, NotUnital)):
            from_economy(2, mu, eta, BilinearPairing(2, Matrix.identity(2)))

    def test_zero_dimension_rejected(self):
        empty = Matrix(0, 0, [])
        with pytest.raises(ShapeError, match="dimension must be positive"):
            from_economy(0, empty, Matrix(0, 1, []), BilinearPairing(0, empty))
        with pytest.raises(ShapeError, match="dimension must be positive"):
            admits_frobenius_form(0, empty, Matrix(0, 1, []))

    def test_pairing_of_another_dimension_rejected(self, z2):
        with pytest.raises(ShapeError, match="^pairing is for dimension 1, algebra has 2$"):
            from_economy(2, z2.mu, z2.eta, BilinearPairing(1, Matrix.identity(1)))

    def test_noncommutative_economy_works(self):
        # the conversion does not need commutativity
        s3 = group_algebra(symmetric_group(3))
        assert check_axioms(s3).is_frobenius


class TestRoundTrip:
    def test_all_eleven(self):
        for name, alg in eleven_algebras():
            pairing = to_economy(alg)
            assert rank(pairing.gram) == alg.dim, name
            back = from_economy(alg.dim, alg.mu, alg.eta, pairing, alg.basis_names)
            assert back.delta == alg.delta, name
            assert back.eps == alg.eps, name

    def test_copairing_inverts_gram(self):
        for name, alg in eleven_algebras():
            gram = to_economy(alg).gram
            c = matmul(alg.delta, alg.eta)
            c_matrix = Matrix.from_rows(
                [
                    [c.entry(i * alg.dim + j, 0) for j in range(alg.dim)]
                    for i in range(alg.dim)
                ]
            )
            assert c_matrix == inverse(gram), name


def valid_morphisms():
    z2 = group_algebra(cyclic_group(2))
    sign_flip = Matrix.from_rows([[1, 0], [0, -1]])
    gz3 = grothendieck_frobenius(vec_z(3))
    inversion = Matrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    z2xz2 = group_algebra(direct_product(cyclic_group(2), cyclic_group(2)))
    # swap the two Z2 factors: basis ordering (e,e),(e,g),(g,e),(g,g)
    factor_swap = Matrix.from_rows(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    )
    m3 = milnor_ring(3)
    return [
        ("z2 identity", z2, z2, Matrix.identity(2)),
        ("z2 sign flip", z2, z2, sign_flip),
        ("gr(vec_z3) inversion", gz3, gz3, inversion),
        ("z2xz2 factor swap", z2xz2, z2xz2, factor_swap),
        ("milnor identity", m3, m3, Matrix.identity(2)),
    ]


def invalid_morphisms():
    z2 = group_algebra(cyclic_group(2))
    triv = trivial_algebra()
    gz3 = grothendieck_frobenius(vec_z(3))
    m3 = milnor_ring(3)
    fold = Matrix.from_rows([[1, 1]])  # z2 -> k, both elements to 1
    stretch = Matrix.from_rows([[1, 0], [0, 2]])
    # cyclic basis shift = multiplication by a non-unit element
    shift = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    scale_x = Matrix.from_rows([[1, 0], [0, 2]])
    zero = Matrix.zeros(2, 2)
    return [
        ("z2 fold to scalars", z2, triv, fold, 3),
        ("z2 stretch", z2, z2, stretch, 1),
        ("gr(vec_z3) basis shift", gz3, gz3, shift, 1),
        ("milnor x -> 2x", m3, m3, scale_x, 3),
        ("zero map", z2, z2, zero, 2),
    ]


class TestMorphisms:
    @pytest.mark.parametrize("name,src,tgt,psi", valid_morphisms())
    def test_valid_have_exact_two_sided_inverses(self, name, src, tgt, psi):
        assert check_morphism(src, tgt, psi) is None
        inv = morphism_inverse(src, tgt, psi)
        assert matmul(inv, psi) == Matrix.identity(src.dim)
        assert matmul(psi, inv) == Matrix.identity(tgt.dim)
        # categorical sandwich agrees with Gaussian elimination
        assert inv == inverse(psi)

    @pytest.mark.parametrize("name,src,tgt,psi,equation", invalid_morphisms())
    def test_invalid_rejected_with_equation_index(self, name, src, tgt, psi, equation):
        assert check_morphism(src, tgt, psi) == equation
        with pytest.raises(NotAFrobeniusMorphism) as err:
            morphism_inverse(src, tgt, psi)
        assert err.value.equation_index == equation

    def test_sign_flip_is_self_inverse(self):
        z2 = group_algebra(cyclic_group(2))
        psi = Matrix.from_rows([[1, 0], [0, -1]])
        assert morphism_inverse(z2, z2, psi) == psi

    def test_fold_fails_coalgebra_on_unit(self):
        # (psi (x) psi) delta(e) sums to 2, but delta'(psi(e)) is 1
        z2 = group_algebra(cyclic_group(2))
        triv = trivial_algebra()
        fold = Matrix.from_rows([[1, 1]])
        lhs = matmul(kron(fold, fold), z2.delta)
        rhs = matmul(triv.delta, fold)
        assert lhs.entry(0, 0) == 2 and rhs.entry(0, 0) == 1


class TestAdmitsFrobeniusForm:
    def test_z2_true(self, z2):
        assert admits_frobenius_form(2, z2.mu, z2.eta)

    def test_triangular_false(self):
        dim, mu, eta = upper_triangular_algebra()
        assert not admits_frobenius_form(dim, mu, eta)

    def test_milnor_x4_true_despite_nilpotents(self):
        alg = milnor_ring(4)
        assert admits_frobenius_form(alg.dim, alg.mu, alg.eta)

    def test_requires_associative_unital(self):
        mu = Matrix.from_rows([[0, 1, 1, 1], [1, 0, 0, 1]])
        eta = Matrix(2, 1, [1, 0])
        with pytest.raises((NotAssociative, NotUnital)):
            admits_frobenius_form(2, mu, eta)

    def test_agrees_with_explicit_functional_search(self):
        # oracle: same grid, but each functional is materialized as a
        # pairing and pushed through the economy conversion
        cases = [
            upper_triangular_algebra(),
        ] + [(alg.dim, alg.mu, alg.eta) for _, alg in eleven_algebras() if alg.dim <= 3]
        for dim, mu, eta in cases:
            expected = False
            for lam in itertools.product(range(dim + 1), repeat=dim):
                gram = Matrix.from_rows(
                    [
                        [
                            sum(
                                lam[m] * mu.entry(m, i * dim + j)
                                for m in range(dim)
                            )
                            for j in range(dim)
                        ]
                        for i in range(dim)
                    ]
                )
                try:
                    from_economy(dim, mu, eta, BilinearPairing(dim, gram))
                except (PairingDegenerate, PairingNotInvariant):
                    continue
                expected = True
                break
            assert admits_frobenius_form(dim, mu, eta) == expected


class TestJson:
    def test_full_round_trip(self, z2):
        assert algebra_from_json(algebra_to_json(z2)) == z2

    def test_economy_form_detected(self):
        obj = {
            "dim": 2,
            "basis": ["e", "g"],
            "mu": [["1", "0", "0", "1"], ["0", "1", "1", "0"]],
            "eta": ["1", "0"],
            "pairing": [["1", "0"], ["0", "1"]],
        }
        alg = algebra_from_json(obj)
        assert alg == group_algebra(cyclic_group(2))

    def test_missing_halves_rejected(self):
        with pytest.raises(ValueError):
            algebra_from_json({"dim": 1, "mu": [["1"]], "eta": ["1"]})
