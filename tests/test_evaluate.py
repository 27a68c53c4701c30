"""Evaluation: functoriality, relation checking, bending and reconstruction."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from conftest import parser_signature, random_term
from tqftkit.algebras import builtin_algebra, cyclic_group, group_algebra, milnor_ring, trivial_algebra
from tqftkit import evaluate
from tqftkit.dualpairs import (
    DualPair,
    ZorroViolation,
    dp_morphism_check,
    dp_morphism_inverse,
    loop_value,
    standard_pair,
)
from tqftkit.evaluate import (
    Interpretation,
    MissingDuality,
    bend_state,
    check_relations,
    eval_term,
    reconstruct_map,
)
from tqftkit.exactlin import Matrix, ShapeError, kron, matmul
from tqftkit.frobenius import (
    BilinearPairing,
    FrobeniusAlgebra,
    NotUnital,
    admits_frobenius_form,
    check_axioms,
    check_morphism,
    from_economy,
    morphism_inverse,
)
from tqftkit.surfaces import bord2_signature, frobenius_interpretation, genus_term, reduce_along_circle
from tqftkit.terms import Compose, Gen, Id, Swap, Tensor, parse_term, typecheck


@pytest.fixture(scope="module")
def z2_interp():
    return frobenius_interpretation(group_algebra(cyclic_group(2)))


def random_interpretation(rng, sig):
    dims = {label: rng.randint(1, 3) for label in sig.g0}

    def dim(word):
        d = 1
        for x in word:
            d *= dims[x]
        return d

    mats = {}
    for name, (src, tgt) in sig.g1.items():
        rows, cols = dim(tgt), dim(src)
        mats[name] = Matrix(
            rows, cols, [rng.randint(-3, 3) for _ in range(rows * cols)]
        )
    return Interpretation(sig, dims, mats)


class TestInterpretation:
    def test_shape_validation(self):
        sig = bord2_signature()
        alg = group_algebra(cyclic_group(2))
        with pytest.raises(ShapeError):
            Interpretation(
                sig,
                {"S1": 2},
                {"pants": alg.mu, "copants": alg.delta, "cap": alg.eta, "cup": alg.eta},
            )

    def test_positive_dims_required(self):
        sig = parser_signature()
        with pytest.raises(ValueError):
            Interpretation(sig, {label: 0 for label in sig.g0}, {})

    @pytest.mark.parametrize("build, label, dim", [
        (lambda: Interpretation(parser_signature(), {"a": 1, "b": -2, "c": 1}, {}), "b", -2),
        (lambda: Interpretation(parser_signature(), {"a": 1, "c": 1}, {}), "b", None),
        (lambda: FrobeniusAlgebra(0, Matrix.zeros(0, 0), Matrix.zeros(0, 1), Matrix.zeros(0, 0),
                                  Matrix.zeros(1, 0)), "S1", 0),
        (lambda: from_economy(0, Matrix.zeros(0, 0), Matrix.zeros(0, 1),
                              BilinearPairing(0, Matrix.zeros(0, 0))), "S1", 0),
        (lambda: admits_frobenius_form(-1, Matrix.zeros(0, 0), Matrix.zeros(0, 1)), "S1", -1),
        (lambda: DualPair(0, 0, Matrix.zeros(0, 1), Matrix.zeros(1, 0)), "pp", 0),
        (lambda: DualPair(2, 0, Matrix.zeros(0, 1), Matrix.zeros(1, 0)), "pm", 0),
    ])
    def test_non_positive_dimension_is_a_shape_error_everywhere(self, build, label, dim):
        # the interpretation every constructor builds makes the one check
        with pytest.raises(ShapeError) as err:
            build()
        assert str(err.value) == f"object {label!r}: dimension must be positive, got {dim!r}"


class TestEval:
    def test_identity(self, z2_interp):
        assert eval_term(Id(("S1",)), z2_interp) == Matrix.identity(2)

    def test_copairing(self, z2_interp):
        t = parse_term("cap ; copants", z2_interp.sig)
        assert eval_term(t, z2_interp) == Matrix(4, 1, [1, 0, 0, 1])

    def test_commutativity_relation(self, z2_interp):
        lhs = parse_term("swap[S1,S1] ; pants", z2_interp.sig)
        assert eval_term(lhs, z2_interp) == eval_term(Gen("pants"), z2_interp)

    def test_deep_term_needs_no_recursion(self, z2_interp):
        # z2 has dimension 2 and every handle doubles the closed surface
        assert eval_term(genus_term(2000), z2_interp) == Matrix.scalar(2 ** 2000)

    def test_functoriality_on_random_terms(self):
        sig = parser_signature()
        rng = random.Random(99)
        interp = random_interpretation(rng, sig)
        for _ in range(120):
            s = random_term(rng, sig, rng.randint(1, 5))
            t = random_term(rng, sig, rng.randint(1, 5))
            assert eval_term(Tensor(s, t), interp) == kron(
                eval_term(s, interp), eval_term(t, interp)
            )
            _, mid = typecheck(s, sig)
            src2, _ = typecheck(t, sig)
            if mid == src2:
                assert eval_term(Compose(s, t), interp) == matmul(
                    eval_term(t, interp), eval_term(s, interp)
                )

    def test_swap_involution_and_naturality(self):
        sig = parser_signature()
        rng = random.Random(5)
        interp = random_interpretation(rng, sig)
        for w1 in [(), ("a",), ("a", "b"), ("c", "c")]:
            for w2 in [(), ("b",), ("c", "a")]:
                fwd = eval_term(Swap(w1, w2), interp)
                back = eval_term(Swap(w2, w1), interp)
                assert matmul(back, fwd) == Matrix.identity(interp.dim(w1 + w2))
        # naturality against a generator tensor
        f = Gen("f")  # (a) -> (b)
        g = Gen("g")  # (b,c) -> (a)
        lhs = eval_term(Compose(Tensor(f, g), Swap(("b",), ("a",))), interp)
        rhs = eval_term(Compose(Swap(("a",), ("b", "c")), Tensor(g, f)), interp)
        assert lhs == rhs


class TestCheckRelations:
    def test_z2_passes_all(self, z2_interp):
        report = check_relations(z2_interp)
        assert report.ok
        assert len(report.checks) == 11

    def test_zero_counit_fails_unit_relations(self):
        alg = group_algebra(cyclic_group(2))
        broken = Interpretation(
            bord2_signature(),
            {"S1": 2},
            {
                "pants": alg.mu,
                "copants": alg.delta,
                "cap": alg.eta,
                "cup": Matrix.zeros(1, 2),
            },
        )
        report = check_relations(broken)
        assert not report.ok
        assert "R2c_counit_left" in report.failing()
        assert "R2d_counit_right" in report.failing()
        failing_check = next(c for c in report.checks if not c.ok)
        assert failing_check.mismatch is not None

    def test_mismatch_entries_print_as_scalars(self, digit_limit):
        one = Matrix.scalar(1)

        def line(pants):
            gens = {"pants": Matrix.scalar(pants), "copants": one, "cap": one, "cup": one}
            return Interpretation(bord2_signature(), {"S1": 1}, gens)

        unit = next(c for c in check_relations(line(Fraction(-1, 2))).checks if c.relation.name == "R2a_unit_left")
        assert unit.mismatch == (0, 0, "-1/2", "1")
        # a failing entry too long to print fails only the printing
        report = check_relations(line(10**digit_limit))
        assert not report.ok and "R2a_unit_left" in report.failing()
        unit = next(c for c in report.checks if c.relation.name == "R2a_unit_left")
        for printed in (lambda: unit.mismatch, unit.describe, report.describe, report.to_json):
            with pytest.raises(ValueError, match=f"^exact value too long to print: over {digit_limit} digits$"):
                printed()

    def test_checks_keep_both_side_values(self, z2_interp):
        for check in check_relations(z2_interp).checks:
            lhs, rhs = (eval_term(side, z2_interp) for side in (check.relation.lhs, check.relation.rhs))
            assert (check.lhs, check.rhs, check.ok, check.mismatch) == (lhs, rhs, True, None)

    def test_relation_values_is_gone(self):
        assert not hasattr(evaluate, "relation_values")
        assert "relation_values" not in evaluate.__all__

    def test_trivial_interpretation_passes(self):
        report = check_relations(frobenius_interpretation(trivial_algebra()))
        assert report.ok

    def test_report_json_shape(self, z2_interp):
        obj = check_relations(z2_interp).to_json()
        assert obj["ok"] is True
        assert len(obj["relations"]) == 11
        assert all(r["mismatch"] is None for r in obj["relations"])


class TestHugeFailingEntries:
    """A dim-1 algebra whose unit law fails at an entry of 8,001 digits,
    over the default limit of 4,300 on int-to-text conversion: the laws
    are decided on values, so no check needs that entry as text."""

    huge = Matrix.scalar(10**4000)
    one = Matrix.scalar(1)

    def test_dual_pair_raises_zorro_violation(self, digit_limit):
        with pytest.raises(ZorroViolation) as err:
            DualPair(1, 1, self.huge, self.huge)
        assert err.value.side == "snake_pp"

    def test_from_economy_raises_not_unital(self, digit_limit):
        with pytest.raises(NotUnital):
            from_economy(1, self.huge, self.huge, BilinearPairing(1, self.one))

    def test_check_axioms_reports_the_unit_law(self, digit_limit):
        alg = FrobeniusAlgebra(1, self.huge, self.huge, self.one, self.one)
        report = check_axioms(alg)
        assert not report.unit and not report.is_frobenius
        assert report.assoc and report.coassoc and report.counit and report.frobenius and report.commutative


def copies(value):
    return pickle.loads(pickle.dumps(value)), copy.deepcopy(value)


class TestPickleAndCopy:
    VALUES = {
        "matrix over 6": lambda: Matrix(2, 2, [Fraction(1, 3), 0, -2, Fraction(5, 6)]),
        "z2": lambda: builtin_algebra("z2"),
        "milnor:4": lambda: builtin_algebra("milnor:4"),
        "standard_pair(3)": lambda: standard_pair(3),
    }

    @pytest.mark.parametrize("name", list(VALUES))
    def test_round_trip_is_equal(self, name):
        value = self.VALUES[name]()
        for copied in copies(value):
            assert copied == value and copied is not value

    def test_bare_interpretation_round_trips(self, z2_interp):
        for copied in copies(z2_interp):
            assert copied is not z2_interp
            assert (copied.sig.g0, copied.sig.g1, copied.sig.g2) == (
                z2_interp.sig.g0, z2_interp.sig.g1, z2_interp.sig.g2
            )
            assert copied.obj_dim == z2_interp.obj_dim and copied.gen_matrix == z2_interp.gen_matrix
            assert copied.duality == z2_interp.duality
            assert check_relations(copied) == check_relations(z2_interp)

    def test_axioms_pass_on_a_copy(self):
        for alg in (builtin_algebra("z2"), builtin_algebra("milnor:4")):
            for copied in copies(alg):
                assert check_axioms(copied) == check_axioms(alg)
                assert check_axioms(copied).is_frobenius


class TestBending:
    def test_bend_identity_gives_copairing(self, z2_interp):
        state = bend_state(Id(("S1",)), z2_interp)
        assert state == Matrix(4, 1, [1, 0, 0, 1])

    def test_bend_pants_brute_force(self, z2_interp):
        # (pants (x) id_4) . coev_(S1,S1), composed by hand
        coev2 = eval_term(
            parse_term("(cap ; copants) ; (id[S1] * ((cap ; copants) * id[S1]))", z2_interp.sig),
            z2_interp,
        )
        mu = z2_interp.gen_matrix["pants"]
        expected = matmul(kron(mu, Matrix.identity(4)), coev2)
        state = bend_state(Gen("pants"), z2_interp)
        assert state == expected
        # and frozen: entry (f, n, b) is mu[f, (b, n)] because the group
        # algebra copairing is diagonal
        assert state == Matrix(8, 1, [1, 0, 0, 1, 0, 1, 1, 0])

    def test_bend_closed_term_is_plain_eval(self, z2_interp):
        t = parse_term("cap ; cup", z2_interp.sig)
        assert bend_state(t, z2_interp) == eval_term(t, z2_interp)

    def test_missing_duality(self):
        sig = parser_signature()
        interp = random_interpretation(random.Random(3), sig)
        with pytest.raises(MissingDuality):
            bend_state(Gen("f"), interp)

    def test_reconstruct_examples(self, z2_interp):
        mu = z2_interp.gen_matrix["pants"]
        state = bend_state(Gen("pants"), z2_interp)
        assert reconstruct_map(state, ("S1", "S1"), ("S1",), z2_interp) == mu
        assert mu == Matrix.from_rows([[1, 0, 0, 1], [0, 1, 1, 0]])

    def test_reconstruct_identity_is_zorro(self):
        for alg in (group_algebra(cyclic_group(2)), milnor_ring(3), trivial_algebra()):
            interp = frobenius_interpretation(alg)
            state = bend_state(Id(("S1",)), interp)
            assert reconstruct_map(state, ("S1",), ("S1",), interp) == Matrix.identity(alg.dim)

    def test_reconstruct_counit_residue_values(self):
        interp = frobenius_interpretation(milnor_ring(3))
        state = bend_state(Gen("cup"), interp)
        rebuilt = reconstruct_map(state, ("S1",), (), interp)
        assert rebuilt == interp.gen_matrix["cup"]
        assert rebuilt == Matrix.row([0, Fraction(1, 3)])

    def test_reconstruct_shape_check(self, z2_interp):
        with pytest.raises(ShapeError):
            reconstruct_map(Matrix.zeros(3, 1), ("S1",), ("S1",), z2_interp)

    def test_round_trip_on_random_terms(self):
        rng = random.Random(77)
        for alg in (group_algebra(cyclic_group(2)), milnor_ring(3)):
            interp = frobenius_interpretation(alg)
            for _ in range(60):
                t = random_term(rng, interp.sig, rng.randint(1, 4))
                src, tgt = typecheck(t, interp.sig)
                if interp.dim(src) > 16 or interp.dim(tgt) > 16:
                    continue
                state = bend_state(t, interp)
                assert reconstruct_map(state, src, tgt, interp) == eval_term(t, interp)


class TestBuiltOnce:
    """Structures keep the interpretation their constructor built, and
    bending assembles a word's duality from the per-label matrices."""

    def test_structure_checks_build_no_interpretation(self, monkeypatch):
        z2 = group_algebra(cyclic_group(2))
        pair = standard_pair(2)
        eye = Matrix.identity(2)
        built = []
        real = Interpretation.__init__

        def counting(self, *args):
            built.append(args[0])
            real(self, *args)

        monkeypatch.setattr(Interpretation, "__init__", counting)
        calls = [
            (check_axioms, (z2,), 0),
            (frobenius_interpretation, (z2,), 0),
            (check_morphism, (z2, z2, eye), 0),
            (morphism_inverse, (z2, z2, eye), 0),
            (dp_morphism_check, (pair, pair, eye, eye), 0),
            (dp_morphism_inverse, (pair, pair, eye, eye), 0),
            (loop_value, (pair,), 0),
            # the dual pair's own constructor builds its interpretation
            (reduce_along_circle, (z2,), 1),
        ]
        for function, args, expected in calls:
            built.clear()
            function(*args)
            assert len(built) == expected, function.__name__
        assert frobenius_interpretation(z2) is z2.interpretation

    def test_bending_evaluates_only_the_term_and_builds_none(self, monkeypatch, z2_interp):
        t = Compose(Tensor(Gen("pants"), Id(("S1",))), Gen("pants"))
        src, tgt = typecheck(t, z2_interp.sig)
        evaluated, built = [], []
        real_eval = evaluate._eval
        monkeypatch.setattr(evaluate, "_eval", lambda t, i: evaluated.append(t) or real_eval(t, i))
        for cls in (Gen, Id, Swap, Compose, Tensor):
            def logged(self, *args, real_init=cls.__init__):
                built.append(self)
                real_init(self, *args)

            monkeypatch.setattr(cls, "__init__", logged)
        state = bend_state(t, z2_interp)
        assert evaluated == [t] and built == []
        evaluated.clear()
        rebuilt = reconstruct_map(state, src, tgt, z2_interp)
        assert evaluated == [] and built == []
        monkeypatch.undo()
        assert rebuilt == eval_term(t, z2_interp)

    def test_a_kept_word_duality_builds_no_product_again(self, monkeypatch):
        alg = group_algebra(cyclic_group(3))
        interp = Interpretation(bord2_signature(), {"S1": 3}, alg.interpretation.gen_matrix)
        t = parse_term("pants * id[S1] ; pants", interp.sig)
        src, tgt = typecheck(t, interp.sig)
        calls = []
        for name in ("kron", "swap_matrix"):
            real = getattr(evaluate, name)
            monkeypatch.setattr(evaluate, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        first = reconstruct_map(bend_state(t, interp), src, tgt, interp)
        assert sorted(set(calls)) == ["kron", "swap_matrix"]
        calls.clear()
        assert reconstruct_map(bend_state(t, interp), src, tgt, interp) == first == eval_term(t, interp)
        assert calls == []

    def test_wide_words_need_no_recursion(self):
        interp = frobenius_interpretation(trivial_algebra())
        word = ("S1",) * 2000
        state = bend_state(Id(word), interp)
        assert state == Matrix.scalar(1)
        assert reconstruct_map(state, word, word, interp) == Matrix.scalar(1)
