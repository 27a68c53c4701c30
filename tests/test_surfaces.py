"""Circle signature, surface invariants, connected sums, reduction."""

from fractions import Fraction

import pytest

from conftest import eleven_algebras
from tqftkit.algebras import (
    cyclic_group,
    group_algebra,
    matrix_center_algebra,
    milnor_ring,
    symmetric_group,
    trivial_algebra,
)
from tqftkit.dualpairs import loop_value
from tqftkit.evaluate import Interpretation, check_relations, eval_term
from tqftkit.exactlin import Matrix, matmul
from tqftkit.frobenius import BilinearPairing, FrobeniusAlgebra, from_economy
from tqftkit.surfaces import (
    NotCommutative,
    bord2_signature,
    connected_sum_identity,
    frobenius_interpretation,
    genus_term,
    handle_operator,
    reduce_along_circle,
    surface_invariant,
)
from tqftkit.terms import Gen, parse_term, typecheck


def forced_interpretation(alg):
    return Interpretation(
        bord2_signature(),
        {"S1": alg.dim},
        {"pants": alg.mu, "copants": alg.delta, "cap": alg.eta, "cup": alg.eps},
    )


def scaled_line_algebra(sphere_value):
    """dim-1 algebra with eps(1) = sphere_value."""
    return from_economy(
        1,
        Matrix.scalar(1),
        Matrix.scalar(1),
        BilinearPairing(1, Matrix.scalar(sphere_value)),
    )


class TestSignature:
    def test_relation_count_is_eleven(self):
        sig = bord2_signature()
        assert len(sig.g2) == 11

    def test_one_signature_shared_with_frobenius(self):
        from tqftkit import frobenius

        assert bord2_signature is frobenius.bord2_signature
        assert bord2_signature() is bord2_signature()

    def test_relation_pairs_typecheck_with_equal_endpoints(self):
        sig = bord2_signature()
        for rel in sig.g2:
            assert typecheck(rel.lhs, sig) == typecheck(rel.rhs, sig)

    def test_sphere_term_is_closed(self):
        sig = bord2_signature()
        assert typecheck(parse_term("cap ; cup", sig), sig) == ((), ())

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError, match="^genus must be nonnegative$"):
            genus_term(-1)
        with pytest.raises(ValueError, match="^genus must be nonnegative$"):
            surface_invariant(trivial_algebra(), -1)

    def test_genus_terms_are_closed(self):
        sig = bord2_signature()
        for g in range(4):
            assert typecheck(genus_term(g), sig) == ((), ())


class TestInterpretation:
    def test_z2_accepted(self):
        interp = frobenius_interpretation(group_algebra(cyclic_group(2)))
        assert check_relations(interp).ok

    def test_s3_rejected_not_commutative(self):
        with pytest.raises(NotCommutative):
            frobenius_interpretation(group_algebra(symmetric_group(3)))

    def test_s3_forced_fails_exactly_r4(self):
        report = check_relations(forced_interpretation(group_algebra(symmetric_group(3))))
        assert report.failing() == ["R4a_commutative", "R4b_cocommutative"]

    def test_trivial_accepted(self):
        assert check_relations(frobenius_interpretation(trivial_algebra())).ok

    def test_broken_axiom_named(self):
        z2 = group_algebra(cyclic_group(2))
        broken = FrobeniusAlgebra(2, z2.mu, z2.eta, z2.delta, Matrix.zeros(1, 2))
        with pytest.raises(ValueError) as err:
            frobenius_interpretation(broken)
        assert "counit" in str(err.value)

    def test_relations_iff_axioms(self):
        # mutate each structure map; relation failures must track axiom failures
        z2 = group_algebra(cyclic_group(2))
        mutants = [
            FrobeniusAlgebra(2, Matrix.from_rows([[1, 0, 0, 0], [0, 1, 1, 0]]), z2.eta, z2.delta, z2.eps),
            FrobeniusAlgebra(2, z2.mu, Matrix(2, 1, [1, 1]), z2.delta, z2.eps),
            FrobeniusAlgebra(2, z2.mu, z2.eta, Matrix.zeros(4, 2), z2.eps),
            FrobeniusAlgebra(2, z2.mu, z2.eta, z2.delta, Matrix.row([1, 1])),
        ]
        from tqftkit.frobenius import check_axioms

        for mutant in mutants:
            axioms = check_axioms(mutant)
            relations_ok = check_relations(forced_interpretation(mutant)).ok
            assert relations_ok == (axioms.is_frobenius and axioms.commutative)


class TestSurfaceInvariants:
    def test_z2_powers_of_two(self):
        alg = group_algebra(cyclic_group(2))
        for g in range(6):
            assert surface_invariant(alg, g) == 2**g

    def test_milnor_x3_values(self):
        alg = milnor_ring(3)
        values = [surface_invariant(alg, g) for g in range(4)]
        assert values == [0, 2, 0, 0]

    def test_milnor_x4_nilpotent_handles(self):
        alg = milnor_ring(4)
        assert surface_invariant(alg, 1) == 3
        assert surface_invariant(alg, 2) == 0

    def test_trivial_always_one(self):
        alg = trivial_algebra()
        assert all(surface_invariant(alg, g) == 1 for g in range(5))

    def test_center_block_counting(self):
        alg = matrix_center_algebra([1, 2])
        assert surface_invariant(alg, 1) == 2
        # genus 0 adds reciprocal block sizes
        assert surface_invariant(alg, 0) == Fraction(3)

    def test_matches_term_evaluation(self):
        for name, alg in eleven_algebras():
            interp = frobenius_interpretation(alg)
            for g in range(4):
                by_term = eval_term(genus_term(g), interp).entry(0, 0)
                assert by_term == surface_invariant(alg, g), (name, g)

    def test_squaring_matches_the_linear_loop(self, algebra_zoo):
        # oracle: the handle operator applied g times, one product per handle
        for name, alg in algebra_zoo:
            state, h = alg.eta, handle_operator(alg)
            for g in range(65):
                assert surface_invariant(alg, g) == matmul(alg.eps, state).entry(0, 0), (name, g)
                state = matmul(h, state)

    def test_huge_genus_by_squaring(self):
        assert surface_invariant(group_algebra(cyclic_group(2)), 100_000) == 2**100_000
        assert surface_invariant(matrix_center_algebra([1, 2]), 99_999) == 1 + Fraction(1, 2**99_998)
        assert surface_invariant(milnor_ring(5), 10**9) == 0

    def test_alternative_decompositions_agree(self):
        sig = bord2_signature()
        twisted_torus = parse_term("cap ; copants ; swap[S1,S1] ; pants ; cup", sig)
        genus_two_alt = parse_term(
            "cap ; copants ; (copants * id[S1]) ; (id[S1] * pants) ; pants ; cup", sig
        )
        for name, alg in eleven_algebras():
            interp = frobenius_interpretation(alg)
            assert eval_term(twisted_torus, interp).entry(0, 0) == surface_invariant(alg, 1), name
            assert eval_term(genus_two_alt, interp).entry(0, 0) == surface_invariant(alg, 2), name

    def test_disjoint_unions_multiply(self):
        from tqftkit.terms import Tensor

        alg = group_algebra(cyclic_group(2))
        interp = frobenius_interpretation(alg)
        for g, h in [(0, 0), (0, 2), (1, 2), (3, 1)]:
            tensored = eval_term(Tensor(genus_term(g), genus_term(h)), interp)
            assert tensored.entry(0, 0) == surface_invariant(alg, g) * surface_invariant(alg, h)


class TestConnectedSum:
    def test_scaled_line_algebra_values(self):
        alg = scaled_line_algebra(2)
        # Z(genus g) = sphere^(1-g)
        for g in range(4):
            assert surface_invariant(alg, g) == Fraction(2) ** (1 - g)

    def test_identity_on_genus_splittings(self):
        alg = scaled_line_algebra(2)
        for g in range(3):
            for h in range(3):
                assert connected_sum_identity(alg, genus_term(g), genus_term(h))

    def test_sphere_sphere(self):
        alg = scaled_line_algebra(7)
        assert connected_sum_identity(alg, genus_term(0), genus_term(0))

    def test_trivial_algebra(self):
        assert connected_sum_identity(trivial_algebra(), genus_term(1), genus_term(2))

    def test_open_legs(self):
        # M: () -> (S1) with a cap at the start; N: (S1) -> () ending in cup
        sig = bord2_signature()
        alg = scaled_line_algebra(3)
        m = parse_term("cap ; copants ; pants", sig)
        n = parse_term("copants ; pants ; cup", sig)
        assert connected_sum_identity(alg, m, n)

    def test_wrong_shapes_rejected(self):
        alg = scaled_line_algebra(2)
        with pytest.raises(ValueError):
            connected_sum_identity(alg, Gen("cap"), genus_term(0))
        with pytest.raises(ValueError):
            connected_sum_identity(
                alg, parse_term("copants ; pants ; cup", bord2_signature()), genus_term(0)
            )

    def test_zero_sphere_fails_the_gate(self):
        # a line with eps . eta = 0 breaks the counit law, so the gate refuses it
        # before any sphere value is read
        zero = Matrix.scalar(0)
        alg = FrobeniusAlgebra(1, Matrix.scalar(1), Matrix.scalar(1), Matrix.scalar(1), zero)
        with pytest.raises(ValueError, match="failing axioms: counit"):
            connected_sum_identity(alg, genus_term(0), genus_term(0))

    def test_needs_dim_one(self):
        with pytest.raises(ValueError):
            connected_sum_identity(
                group_algebra(cyclic_group(2)), genus_term(0), genus_term(0)
            )

    def test_generated_term_pairs_up_to_depth_four(self):
        from conftest import enumerate_terms
        from tqftkit.terms import Compose, Id, Swap

        sig = bord2_signature()
        atoms = [
            Gen("pants"), Gen("copants"), Gen("cap"), Gen("cup"),
            Swap(("S1",), ("S1",)), Id(("S1",)),
        ]
        pool = enumerate_terms(sig, atoms, max_depth=3, max_width=3, quotas={3: 120})
        halves_m = [t for t in pool if typecheck(t, sig)[0] == ("S1",)][:12]
        halves_n = [t for t in pool if typecheck(t, sig)[1] == ("S1",)][:12]
        assert len(halves_m) >= 10 and len(halves_n) >= 10
        alg = scaled_line_algebra(5)
        for m_rest in halves_m:
            for n_rest in halves_n:
                term_m = Compose(Gen("cap"), m_rest)
                term_n = Compose(n_rest, Gen("cup"))
                assert connected_sum_identity(alg, term_m, term_n)


class TestReduction:
    def test_z2_pair(self):
        pair = reduce_along_circle(group_algebra(cyclic_group(2)))
        assert pair.b == Matrix(4, 1, [1, 0, 0, 1])
        assert pair.d == Matrix(1, 4, [1, 0, 0, 1])
        assert loop_value(pair) == 2

    def test_trivial(self):
        pair = reduce_along_circle(trivial_algebra())
        assert pair.dim_u == 1 and loop_value(pair) == 1

    def test_milnor_x3(self):
        pair = reduce_along_circle(milnor_ring(3))
        assert pair.b == Matrix(4, 1, [0, 3, 3, 0])
        assert loop_value(pair) == surface_invariant(milnor_ring(3), 1) == 2

    def test_loop_equals_torus_for_all(self):
        for name, alg in eleven_algebras():
            pair = reduce_along_circle(alg)
            assert loop_value(pair) == surface_invariant(alg, 1) == alg.dim, name
            # the bent cylinders: copairing delta . eta, pairing eps . mu
            assert pair.b == matmul(alg.delta, alg.eta), name
            assert pair.d == matmul(alg.eps, alg.mu), name

    def test_reduction_passes_loop_relations(self):
        pair = reduce_along_circle(milnor_ring(4))
        assert check_relations(pair.interpretation).ok

    def test_rejects_noncommutative(self):
        with pytest.raises(NotCommutative):
            reduce_along_circle(group_algebra(symmetric_group(3)))

    def test_rejects_broken_counit(self):
        z2 = group_algebra(cyclic_group(2))
        broken = FrobeniusAlgebra(2, z2.mu, z2.eta, z2.delta, Matrix.zeros(1, 2))
        with pytest.raises(ValueError, match="failing axioms: counit"):
            reduce_along_circle(broken)


class TestHandleOperator:
    def test_z2_doubles(self):
        alg = group_algebra(cyclic_group(2))
        assert handle_operator(alg) == Matrix.identity(2).scale(2)

    def test_milnor_x3_sends_unit_to_6x(self):
        alg = milnor_ring(3)
        h = handle_operator(alg)
        assert Matrix(2, 1, [h.entry(i, 0) for i in range(2)]) == Matrix(2, 1, [0, 6])
