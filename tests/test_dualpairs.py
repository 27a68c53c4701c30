"""Dual pairs: snake identities, loop values, morphisms and inverses."""

import random
from fractions import Fraction

import pytest

from tqftkit.dualpairs import (
    DualPair,
    ZorroViolation,
    bord1_signature,
    dp_morphism_check,
    dp_morphism_inverse,
    dual_pair_from_json,
    dual_pair_to_json,
    loop_term,
    loop_value,
    standard_pair,
)
from tqftkit.evaluate import check_relations, eval_term
from tqftkit.exactlin import Matrix, ShapeError, inverse, matmul, rank
from tqftkit.terms import Gen, typecheck


class TestSignature:
    def test_generator_endpoints(self):
        sig = bord1_signature()
        assert typecheck(Gen("coev"), sig) == ((), ("pp", "pm"))
        assert typecheck(Gen("ev"), sig) == (("pm", "pp"), ())

    def test_snake_relations_typecheck_as_endomorphisms(self):
        sig = bord1_signature()
        names = [r.name for r in sig.g2]
        assert names == ["snake_pp", "snake_pm"]
        for rel in sig.g2:
            src, tgt = typecheck(rel.lhs, sig)
            assert src == tgt

    def test_loop_typechecks_closed(self):
        assert typecheck(loop_term(), bord1_signature()) == ((), ())


class TestDualPair:
    def test_standard_pairs_dims_1_to_5(self):
        for n in range(1, 6):
            p = standard_pair(n)
            assert loop_value(p) == n

    def test_rescaled_pair_same_loop(self):
        p = standard_pair(2)
        scaled = DualPair(2, 2, p.b.scale(3), p.d.scale(Fraction(1, 3)))
        assert loop_value(scaled) == 2

    def test_dim_one(self):
        p = DualPair(1, 1, Matrix.scalar(1), Matrix.scalar(1))
        assert loop_value(p) == 1

    def test_snake_violations_rejected(self):
        good = standard_pair(2)
        with pytest.raises(ZorroViolation):
            DualPair(2, 2, good.b.scale(2), good.d)
        with pytest.raises(ZorroViolation) as err:
            DualPair(2, 2, Matrix(4, 1, [1, 0, 0, 0]), good.d)
        assert err.value.side

    def test_wrong_shapes_name_the_generator(self):
        good = standard_pair(2)
        with pytest.raises(ShapeError, match="generator 'coev': expected 4x1"):
            DualPair(2, 2, Matrix(3, 1, [1, 0, 1]), good.d)
        with pytest.raises(ShapeError, match="generator 'ev': expected 1x4"):
            DualPair(2, 2, good.b, good.b)

    def test_equal_pairs_compare_and_hash_equal(self):
        first, second = standard_pair(2), standard_pair(2)
        assert first.interpretation is not second.interpretation
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(second) and "interpretation" not in repr(first)
        assert first != standard_pair(3)

    def test_rectangular_impossible(self):
        # a 1x2 "pair": shapes fit but no snake can hold
        b = Matrix(2, 1, [1, 0])
        d = Matrix(1, 2, [1, 0])
        with pytest.raises(ZorroViolation):
            DualPair(1, 2, b, d)

    def test_violation_names_the_failing_relation(self):
        good = standard_pair(2)
        with pytest.raises(ZorroViolation) as err:
            DualPair(2, 2, good.b.scale(2), good.d)
        assert err.value.side == "snake_pp"
        # rectangular: b . d is the identity on U but d . b is not on V
        with pytest.raises(ZorroViolation) as err:
            DualPair(1, 2, Matrix(2, 1, [1, 0]), Matrix(1, 2, [1, 0]))
        assert err.value.side == "snake_pm"
        assert "snake_pm" in str(err.value)

    def test_interpretation_passes_relations(self):
        for n in (1, 2, 3):
            interp = standard_pair(n).interpretation
            assert check_relations(interp).ok

    def test_loop_eval_matches_loop_value(self):
        p = standard_pair(3)
        interp = p.interpretation
        assert eval_term(loop_term(), interp) == Matrix.scalar(3)

    def test_relations_fail_iff_pair_invalid(self):
        # both directions: valid data passes, mutated data fails the same
        # snake relations the constructor would reject
        from tqftkit.evaluate import Interpretation

        sig = bord1_signature()
        good = standard_pair(2)
        mutations = [
            good.b.scale(2),
            Matrix(4, 1, [1, 1, 0, 1]),
            Matrix(4, 1, [0, 0, 0, 0]),
        ]
        for bad_b in mutations:
            interp = Interpretation(
                sig, {"pp": 2, "pm": 2}, {"coev": bad_b, "ev": good.d}
            )
            assert not check_relations(interp).ok
            with pytest.raises(ZorroViolation):
                DualPair(2, 2, bad_b, good.d)
        ok_interp = Interpretation(
            sig, {"pp": 2, "pm": 2}, {"coev": good.b, "ev": good.d}
        )
        assert check_relations(ok_interp).ok
        DualPair(2, 2, good.b, good.d)

    def test_json_round_trip(self):
        p = standard_pair(2)
        obj = dual_pair_to_json(p)
        assert dual_pair_from_json(obj) == p
        flat = {
            "dimU": 2,
            "dimV": 2,
            "b": ["1", "0", "0", "1"],
            "d": ["1", "0", "0", "1"],
        }
        assert dual_pair_from_json(flat) == p


def off_diagonal_pair():
    """A nonstandard valid pair: b flattens an invertible non-identity
    matrix and d flattens its inverse."""
    m = Matrix.from_rows([[1, 1], [0, 1]])
    m_inv = inverse(m)
    b = Matrix(4, 1, [m.entry(i, j) for i in range(2) for j in range(2)])
    d = Matrix(1, 4, [m_inv.entry(i, j) for i in range(2) for j in range(2)])
    return DualPair(2, 2, b, d)


class TestMorphisms:
    def test_identity_morphism(self):
        p = standard_pair(3)
        eye = Matrix.identity(3)
        assert dp_morphism_check(p, p, eye, eye)
        assert dp_morphism_inverse(p, p, eye, eye) == (eye, eye)

    def test_reciprocal_scalings(self):
        p = standard_pair(2)
        f = Matrix.identity(2).scale(2)
        g = Matrix.identity(2).scale(Fraction(1, 2))
        assert dp_morphism_check(p, p, f, g)
        f_inv, g_inv = dp_morphism_inverse(p, p, f, g)
        assert f_inv == Matrix.identity(2).scale(Fraction(1, 2))
        assert g_inv == Matrix.identity(2).scale(2)

    def test_equal_scalings_fail(self):
        p = standard_pair(2)
        f = Matrix.identity(2).scale(2)
        assert not dp_morphism_check(p, p, f, f)
        with pytest.raises(ValueError):
            dp_morphism_inverse(p, p, f, f)

    def test_shape_mismatch(self):
        p = standard_pair(2)
        with pytest.raises(ShapeError):
            dp_morphism_check(p, p, Matrix.identity(3), Matrix.identity(2))

    def test_nonstandard_target_pair(self):
        p = standard_pair(2)
        q = off_diagonal_pair()
        m = Matrix.from_rows([[1, 1], [0, 1]])
        # f = m, g = id satisfies both conditions for this q
        assert dp_morphism_check(p, q, m, Matrix.identity(2))
        f_inv, g_inv = dp_morphism_inverse(p, q, m, Matrix.identity(2))
        assert matmul(f_inv, m) == Matrix.identity(2)

    def test_randomized_morphisms_have_exact_inverses(self):
        rng = random.Random(4242)
        p = standard_pair(3)
        produced = 0
        while produced < 10:
            f = Matrix(3, 3, [rng.randint(-3, 3) for _ in range(9)])
            if rank(f) < 3:
                continue
            g = inverse(f).transpose()
            assert dp_morphism_check(p, p, f, g)
            f_inv, g_inv = dp_morphism_inverse(p, p, f, g)
            eye = Matrix.identity(3)
            assert matmul(f_inv, f) == eye and matmul(f, f_inv) == eye
            assert matmul(g_inv, g) == eye and matmul(g, g_inv) == eye
            # the categorical sandwich agrees with Gaussian elimination
            assert f_inv == inverse(f)
            assert g_inv == inverse(g)
            produced += 1
