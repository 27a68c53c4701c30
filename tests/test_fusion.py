"""Fusion rings: validation, invariant-space dimensions, Grothendieck algebras."""

import itertools

import pytest

from tqftkit.algebras import cyclic_group, group_algebra
from tqftkit.exactlin import Matrix
from tqftkit.frobenius import check_axioms, to_economy
from tqftkit.fusion import (
    FusionRing,
    NotCommutativeRing,
    fibonacci,
    fusion_ring_from_json,
    fusion_ring_to_json,
    grothendieck_frobenius,
    hom_dimension,
    ising,
    validate_fusion_ring,
    vec_z,
)
from tqftkit.surfaces import surface_invariant


def ring_product(ring, i, j):
    """Oracle helper: multiply two basis labels into a dict expansion."""
    return {k: ring.n[i][j][k] for k in range(ring.rank) if ring.n[i][j][k]}


def hom_count_oracle(ring, word):
    """Independent unit-multiplicity count using dict polynomials."""
    if not word:
        return 1
    poly = {word[0]: 1}
    for idx in word[1:]:
        fresh = {}
        for label, coeff in poly.items():
            for out, mult in ring_product(ring, label, idx).items():
                fresh[out] = fresh.get(out, 0) + coeff * mult
        poly = fresh
    return poly.get(0, 0)


class TestValidation:
    def test_vec_z2_valid(self):
        assert validate_fusion_ring(vec_z(2)).ok

    def test_fibonacci_valid(self):
        assert validate_fusion_ring(fibonacci()).ok

    def test_ising_valid(self):
        assert validate_fusion_ring(ising()).ok

    def test_fibonacci_tau_cubed_mutant_stays_associative(self):
        # bumping the tau.tau.tau coefficient alone cannot break
        # associativity: the ring is commutative on one generator, so
        # both sides of every associativity instance agree identically
        fib = fibonacci()
        table = [[list(row) for row in plane] for plane in fib.n]
        table[1][1][1] = 2
        mutant = FusionRing(fib.labels, fib.dual, tuple(
            tuple(tuple(row) for row in plane) for plane in table
        ))
        assert validate_fusion_ring(mutant).ok

    def test_broken_associativity_witnessed(self):
        # dropping psi from sigma.sigma leaves units and duality intact
        # but breaks (sigma.sigma).psi = sigma.(sigma.psi)
        base = ising()
        table = [[list(row) for row in plane] for plane in base.n]
        table[1][1][2] = 0
        broken = FusionRing(base.labels, base.dual, tuple(
            tuple(tuple(row) for row in plane) for plane in table
        ))
        report = validate_fusion_ring(broken)
        assert not report.ok
        assert ("associativity", (1, 1, 2, 2)) in report.failures
        assert all(rule == "associativity" for rule, _ in report.failures)

    def test_broken_duality_witnessed(self):
        ring = FusionRing(("1", "g"), (0, 0), vec_z(2).n)
        report = validate_fusion_ring(ring)
        assert not report.ok
        assert any(rule == "dual-involution" or rule == "duality" for rule, _ in report.failures)

    def test_float_constant_gets_a_report(self):
        # a non-integer constant stops the laws from being evaluated; the
        # report still lists it and the dual checks, and nothing raises
        fib = fibonacci()
        table = [[list(row) for row in plane] for plane in fib.n]
        table[1][1][1] = 1.5
        ring = FusionRing(fib.labels, fib.dual, table)
        assert validate_fusion_ring(ring).failures == (("nonnegative-integer", (1, 1, 1)),)
        table[1][1][0] = 0.5
        ring = FusionRing(fib.labels, fib.dual, table)
        assert validate_fusion_ring(ring).failures == (
            ("nonnegative-integer", (1, 1, 0)),
            ("nonnegative-integer", (1, 1, 1)),
            ("duality", (1, 1)),
        )
        with pytest.raises(ValueError, match="invalid fusion ring"):
            grothendieck_frobenius(ring)

    def test_negative_entry_flagged(self):
        table = (
            ((1, 0), (0, 1)),
            ((0, 1), (-1, 0)),
        )
        report = validate_fusion_ring(FusionRing(("1", "g"), (0, 1), table))
        assert any(rule == "nonnegative-integer" for rule, _ in report.failures)


class TestHomDimension:
    def test_fibonacci_words(self):
        fib = fibonacci()
        tau = 1
        assert hom_dimension(fib, [tau, tau]) == 1
        assert hom_dimension(fib, [tau] * 3) == 1
        assert hom_dimension(fib, [tau] * 4) == 2
        assert hom_dimension(fib, [tau] * 5) == 3

    def test_fibonacci_numbers(self):
        # multiplicity of the unit in tau^m follows the Fibonacci sequence
        fib = fibonacci()
        values = [hom_dimension(fib, [1] * m) for m in range(2, 9)]
        expected = []
        x, y = 1, 1
        for _ in values:
            expected.append(x)
            x, y = y, x + y
        assert values == expected

    def test_empty_word_is_unit(self):
        assert hom_dimension(fibonacci(), []) == 1

    def test_pairs_recover_duality(self):
        for ring in (vec_z(3), vec_z(4), fibonacci(), ising()):
            for i in range(ring.rank):
                for j in range(ring.rank):
                    assert hom_dimension(ring, [i, j]) == (1 if j == ring.dual[i] else 0)

    def test_ising_sigma_four(self):
        assert hom_dimension(ising(), [1, 1, 1, 1]) == 2

    def test_out_of_range_label(self):
        with pytest.raises(IndexError):
            hom_dimension(fibonacci(), [0, 5])

    def test_matches_dict_polynomial_oracle(self):
        for ring in (vec_z(2), vec_z(3), fibonacci(), ising()):
            for length in range(5):
                for word in itertools.product(range(ring.rank), repeat=length):
                    assert hom_dimension(ring, list(word)) == hom_count_oracle(ring, word)

    def test_cyclic_and_reversal_invariance(self):
        for ring in (vec_z(2), vec_z(3), fibonacci(), ising()):
            for length in range(1, 5):
                for word in itertools.product(range(ring.rank), repeat=length):
                    base = hom_dimension(ring, list(word))
                    rotated = list(word[1:]) + [word[0]]
                    assert hom_dimension(ring, rotated) == base
                    reversed_dual = [ring.dual[i] for i in reversed(word)]
                    assert hom_dimension(ring, reversed_dual) == base


class TestGrothendieck:
    def test_vec_z2_gives_group_algebra(self):
        alg = grothendieck_frobenius(vec_z(2))
        z2 = group_algebra(cyclic_group(2))
        assert alg.mu == z2.mu and alg.delta == z2.delta and alg.eps == z2.eps

    def test_fibonacci_gram_identity(self):
        alg = grothendieck_frobenius(fibonacci())
        assert to_economy(alg).gram == Matrix.identity(2)
        assert check_axioms(alg).is_frobenius

    def test_ising_dimension_three(self):
        alg = grothendieck_frobenius(ising())
        assert alg.dim == 3
        assert to_economy(alg).gram == Matrix.identity(3)

    def test_axioms_pass_with_commutativity(self):
        for ring in (vec_z(4), fibonacci(), ising()):
            report = check_axioms(grothendieck_frobenius(ring))
            assert report.is_frobenius and report.commutative

    def test_noncommutative_pointed_ring_rejected(self):
        # graded lines over a nonabelian group: a perfectly valid fusion
        # ring whose product is not commutative
        from tqftkit.algebras import symmetric_group

        s3 = symmetric_group(3)
        n = s3.order
        table = tuple(
            tuple(
                tuple(1 if k == s3.mult[i][j] else 0 for k in range(n))
                for j in range(n)
            )
            for i in range(n)
        )
        ring = FusionRing(s3.names, s3.inverse, table)
        assert validate_fusion_ring(ring).ok
        with pytest.raises(NotCommutativeRing) as err:
            grothendieck_frobenius(ring)
        assert len(err.value.witness) == 3

    def test_pairing_matches_triple_hom_dimensions(self):
        for ring in (fibonacci(), ising(), vec_z(2), vec_z(3), vec_z(4)):
            alg = grothendieck_frobenius(ring)
            gram = to_economy(alg).gram
            r = ring.rank
            for i, j, k in itertools.product(range(r), repeat=3):
                product_then_pair = sum(
                    alg.mu.entry(m, i * r + j) * gram.entry(m, k) for m in range(r)
                )
                assert product_then_pair == hom_dimension(ring, [i, j, k])

    def test_torus_counts_labels(self):
        for ring in (vec_z(1), vec_z(2), vec_z(3), vec_z(4), fibonacci(), ising()):
            alg = grothendieck_frobenius(ring)
            assert surface_invariant(alg, 1) == ring.rank


class TestJson:
    def test_round_trip(self):
        for ring in (vec_z(3), fibonacci(), ising()):
            assert fusion_ring_from_json(fusion_ring_to_json(ring)) == ring

    def test_malformed(self):
        with pytest.raises(ValueError):
            fusion_ring_from_json({"labels": ["1"]})

    def test_rejects_non_integers(self):
        for bad in (1.5, True, False, float("inf"), float("nan"), "x", None):
            for obj in (
                {"labels": ["1"], "dual": [0], "N": [[[bad]]]},
                {"labels": ["1"], "dual": [bad], "N": [[[1]]]},
            ):
                with pytest.raises(ValueError, match="malformed fusion ring JSON"):
                    fusion_ring_from_json(obj)

    def test_accepts_integral_numbers(self):
        obj = {"labels": ["1"], "dual": [0.0], "N": [[[1.0]]]}
        assert fusion_ring_from_json(obj) == vec_z(1)
