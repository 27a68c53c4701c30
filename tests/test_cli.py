"""CLI behavior: outputs, exit codes, diagnostics, determinism."""

import json
import os
import subprocess
import sys

import pytest

from tqftkit import cli, evaluate, terms
from tqftkit.cli import run
from tqftkit.frobenius import bord2_signature

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def fx(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture
def capout(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestHappyPaths:
    def test_invariant_z2_genus_two(self, capout):
        code, out, err = capout("invariant", "--algebra", "z2", "--genus", "2")
        assert code == 0 and out.strip() == "4" and err == ""

    def test_invariant_rational_output(self, capout):
        code, out, _ = capout("invariant", "--algebra", "center:[2]", "--genus", "0")
        assert code == 0 and out.strip() == "2"
        code, out, _ = capout("invariant", "--algebra", "center:[2]", "--genus", "2")
        assert code == 0 and out.strip() == "1/2"

    def test_check_s3_reports_but_passes(self, capout):
        code, out, _ = capout("check", "--algebra", "s3")
        assert code == 0
        assert "commutative: FAIL" in out
        assert "assoc: ok" in out

    def test_check_json_mode(self, capout):
        code, out, _ = capout("check", "--algebra", "milnor:3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "assoc": True,
            "unit": True,
            "coassoc": True,
            "counit": True,
            "frobenius": True,
            "commutative": True,
        }

    def test_eval_inline_term(self, capout):
        code, out, _ = capout("eval", "--algebra", "z2", "--term", "cap ; copants")
        assert code == 0
        assert json.loads(out) == [["1"], ["0"], ["0"], ["1"]]

    def test_eval_of_a_long_inline_chain(self, capout):
        chain = "cap ; " + " ; ".join(["copants ; pants"] * 1500) + " ; cup"
        code, out, err = capout("eval", "--algebra", "z2", "--term", chain)
        assert (code, err) == (0, "")
        assert json.loads(out) == [[str(2 ** 1500)]]

    def test_deeply_parenthesized_term_file(self, capout, tmp_path):
        path = tmp_path / "deep.term"
        path.write_text("(" * 3000 + "cap" + ")" * 3000)
        code, out, err = capout("eval", "--algebra", "z2", "--term", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out) == [["1"], ["0"]]
        code, out, err = capout("recon", "--algebra", "z2", "--term", str(path))
        assert (code, err) == (0, "")
        assert out.endswith("agree: true\n")

    def test_eval_term_file(self, capout):
        code, out, _ = capout("eval", "--algebra", "z2", "--term", fx("genus_one.term"))
        assert code == 0
        assert json.loads(out) == [["2"]]

    def test_eval_algebra_file(self, capout):
        code, out, _ = capout(
            "eval", "--algebra", fx("z2_economy.json"), "--term", "pants"
        )
        assert code == 0
        assert json.loads(out) == [["1", "0", "0", "1"], ["0", "1", "1", "0"]]

    def test_relations_pass(self, capout):
        code, out, _ = capout("relations", "--algebra", "z3")
        assert code == 0
        assert out.count("ok") == 11

    def test_reduce_output(self, capout):
        code, out, _ = capout("reduce", "--algebra", "z2")
        assert code == 0
        payload = json.loads(out)
        assert payload["dimU"] == 2
        assert payload["b"] == [["1"], ["0"], ["0"], ["1"]]

    def test_fusion_word(self, capout):
        code, out, _ = capout("fusion", fx("fib.json"), "--word", "tau,tau,tau,tau")
        assert code == 0 and out.strip() == "2"

    def test_fusion_genus(self, capout):
        code, out, _ = capout("fusion", fx("fib.json"), "--genus", "1")
        assert code == 0 and out.strip() == "2"

    def test_recon_agrees(self, capout):
        code, out, _ = capout("recon", "--algebra", "milnor:3", "--term", "pants")
        assert code == 0
        assert "agree: true" in out

    def test_eval_bord1_with_pair_file(self, capout, tmp_path):
        pair = {
            "dimU": 2,
            "dimV": 2,
            "b": ["1", "0", "0", "1"],
            "d": ["1", "0", "0", "1"],
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair))
        code, out, _ = capout(
            "eval", "--sig", "bord1", "--algebra", str(path),
            "--term", "coev ; swap[pp,pm] ; ev",
        )
        assert code == 0
        assert json.loads(out) == [["2"]]

    def test_eval_custom_signature_and_interpretation(self, capout, tmp_path):
        sig = {
            "objects": ["a"],
            "generators": {
                "double": {"src": ["a"], "tgt": ["a"]},
                "point": {"src": [], "tgt": ["a"]},
            },
            "relations": [],
        }
        interp = {
            "dims": {"a": 2},
            "matrices": {
                "double": [["2", "0"], ["0", "2"]],
                "point": [["1"], ["0"]],
            },
        }
        sig_path = tmp_path / "sig.json"
        interp_path = tmp_path / "interp.json"
        sig_path.write_text(json.dumps(sig))
        interp_path.write_text(json.dumps(interp))
        code, out, _ = capout(
            "eval", "--sig", str(sig_path), "--algebra", str(interp_path),
            "--term", "point ; double ; double",
        )
        assert code == 0
        assert json.loads(out) == [["4"], ["0"]]

    def test_relations_custom_signature(self, capout, tmp_path):
        sig = {
            "objects": ["a"],
            "generators": {"inv": {"src": ["a"], "tgt": ["a"]}},
            "relations": [{"name": "involution", "lhs": "inv ; inv", "rhs": "id[a]"}],
        }
        good = {"dims": {"a": 2}, "matrices": {"inv": [["0", "1"], ["1", "0"]]}}
        bad = {"dims": {"a": 2}, "matrices": {"inv": [["0", "2"], ["1", "0"]]}}
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(json.dumps(sig))
        for payload, expected in ((good, 0), (bad, 1)):
            interp_path = tmp_path / "interp.json"
            interp_path.write_text(json.dumps(payload))
            code, out, _ = capout(
                "relations", "--sig", str(sig_path), "--algebra", str(interp_path)
            )
            assert code == expected


class TestFailureExitCodes:
    def test_relations_failure_is_exit_one(self, capout):
        code, out, _ = capout("relations", "--algebra", "s3")
        assert code == 1
        assert "R4a_commutative: FAIL" in out

    def test_check_failure_is_exit_one(self, capout):
        code, out, _ = capout("check", "--algebra", fx("broken_counit.json"))
        assert code == 1
        assert "counit: FAIL" in out

    def test_check_triangular_reports_obstruction(self, capout):
        code, out, _ = capout("check", "--algebra", "triangular")
        assert code == 1
        assert "admits_frobenius_form: false" in out


class TestErrorDiagnostics:
    def test_lexical_error_names_file_and_offset(self, capout):
        code, out, err = capout("eval", "--algebra", "z2", "--term", fx("bad_char.term"))
        assert code == 2
        assert "bad_char.term" in err
        assert "offset 7" in err
        assert err.count("\n") == 1

    def test_parse_error_has_expected_set(self, capout):
        code, _, err = capout("eval", "--algebra", "z2", "--term", fx("bad_syntax.term"))
        assert code == 2
        assert "expected one of" in err
        assert "offset 5" in err

    def test_mismatch_error_has_path(self, capout):
        code, _, err = capout("eval", "--algebra", "z2", "--term", fx("mismatch.term"))
        assert code == 2
        assert "composition mismatch" in err

    def test_unknown_generator(self, capout):
        code, _, err = capout("eval", "--algebra", "z2", "--term", fx("unknown_gen.term"))
        assert code == 2
        assert "trousers" in err

    def test_truncated_json(self, capout):
        code, _, err = capout("check", "--algebra", fx("truncated.json"))
        assert code == 2
        assert "truncated.json" in err and "line" in err

    def test_wrong_shape_matrix(self, capout):
        code, _, err = capout("check", "--algebra", fx("wrong_shape.json"))
        assert code == 2
        assert "wrong_shape.json" in err

    def test_wrong_shape_in_full_form(self, capout):
        code, out, err = capout("check", "--algebra", fx("wrong_shape_full.json"))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "wrong_shape_full.json" in err and "generator 'copants'" in err

    def test_degenerate_pairing(self, capout):
        code, _, err = capout("check", "--algebra", fx("degenerate_pairing.json"))
        assert code == 2
        assert "rank" in err

    def test_invalid_fusion_ring(self, capout):
        code, _, err = capout("fusion", fx("bad_fusion.json"), "--word", "tau,tau")
        assert code == 2
        assert "duality" in err or "associativity" in err

    def test_unknown_algebra_name(self, capout):
        code, _, err = capout("invariant", "--algebra", "z9000", "--genus", "1")
        assert code == 2
        assert "z9000" in err

    @pytest.mark.parametrize("spec, message", [
        ("center:[1,,2]", "block size must be an integer, got ''"),
        ("center:[1,]", "block size must be an integer, got ''"),
        ("center:[1,x]", "block size must be an integer, got 'x'"),
        ("milnor:x", "degree must be an integer, got 'x'"),
        ("milnor:", "degree must be an integer, got ''"),
    ])
    def test_malformed_builtin_spec(self, capout, spec, message):
        code, out, err = capout("invariant", "--algebra", spec, "--genus", "1")
        assert (code, out, err) == (2, "", f"error: {spec}: {message}\n")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_value_too_long_to_print(self, capout, digit_limit, json_flag):
        # 2^20000 has 6,021 digits
        code, out, err = capout("invariant", "--algebra", "z2", "--genus", "20000", *json_flag)
        assert (code, out) == (2, "")
        assert err == f"error: exact value too long to print: over {digit_limit} digits\n"

    def test_failing_axioms_with_huge_entries(self, capout, digit_limit, tmp_path):
        # the unit law fails at an entry of 8,001 digits: check prints no
        # entry and reports it; relations refuses it in one line
        path = tmp_path / "huge.json"
        huge = "1" + "0" * 4000
        path.write_text(json.dumps({"dim": 1, "mu": [[huge]], "eta": [huge], "delta": [["1"]], "eps": ["1"]}))
        code, out, err = capout("check", "--algebra", str(path))
        assert (code, err) == (1, "")
        assert out == "assoc: ok\nunit: FAIL\ncoassoc: ok\ncounit: ok\nfrobenius: ok\ncommutative: ok\n"
        code, out, err = capout("relations", "--algebra", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "huge.json" in err

    def test_missing_file(self, capout):
        code, _, err = capout("check", "--algebra", "nowhere/missing.json")
        assert code == 2
        assert "missing.json" in err

    def test_noncommutative_algebra_for_reduce(self, capout):
        code, out, err = capout("reduce", "--algebra", "s3")
        assert code == 2 and out == ""
        assert err == "error: s3: algebra is not commutative; the R4 relations would fail\n"

    def test_noncommutative_algebra_for_eval(self, capout):
        code, _, err = capout("eval", "--algebra", "s3", "--term", "pants")
        assert code == 2
        assert "commutative" in err

    def one_error_line(self, code, out, err, *parts):
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert all(part in err for part in parts), err

    def test_algebra_json_without_mu(self, capout, tmp_path):
        path = tmp_path / "no_mu.json"
        path.write_text('{"dim": 2}')
        code, out, err = capout("check", "--algebra", str(path))
        self.one_error_line(code, out, err, "no_mu.json", "malformed algebra JSON", "'mu'")

    def test_algebra_json_with_scalar_eta(self, capout, tmp_path):
        path = tmp_path / "scalar_eta.json"
        path.write_text('{"dim": 2, "mu": [["1", "0", "0", "0"], ["0", "1", "1", "0"]], "eta": 5}')
        code, out, err = capout("check", "--algebra", str(path))
        self.one_error_line(code, out, err, "scalar_eta.json", "malformed algebra JSON")

    def test_infinite_dimensions(self, capout, tmp_path):
        # JSON's 1e999 reads as a float infinity, which int() cannot convert
        sig = tmp_path / "sig.json"
        sig.write_text('{"objects": ["x"], "generators": {}, "relations": []}')
        cases = [
            (["check", "--algebra"], '{"dim": 1e999}', "malformed algebra JSON"),
            (["eval", "--sig", "bord1", "--term", "loop", "--algebra"],
             '{"dimU": 1e999, "dimV": 1, "b": ["1"], "d": ["1"]}', "malformed dual pair JSON"),
            (["eval", "--sig", str(sig), "--term", "id[x]", "--algebra"],
             '{"dims": {"x": 1e999}, "matrices": {}}', "bad interpretation"),
        ]
        for argv, text, message in cases:
            path = tmp_path / "infinite.json"
            path.write_text(text)
            code, out, err = capout(*argv, str(path))
            self.one_error_line(code, out, err, "infinite.json", message)

    def test_algebra_json_with_fractional_dimension(self, capout, tmp_path):
        # 2.9 used to load as dimension 2 and pass every axiom
        path = tmp_path / "frac_dim.json"
        path.write_text(json.dumps({
            "dim": 2.9, "mu": [["1", "0", "0", "1"], ["0", "1", "1", "0"]],
            "eta": ["1", "0"], "pairing": [["1", "0"], ["0", "1"]],
        }))
        code, out, err = capout("check", "--algebra", str(path))
        self.one_error_line(code, out, err, "frac_dim.json", "malformed algebra JSON", "2.9")

    def test_dual_pair_json_with_fractional_dimension(self, capout, tmp_path):
        path = tmp_path / "frac_pair.json"
        path.write_text('{"dimU": 2.5, "dimV": 2, "b": ["1", "0", "0", "1"], "d": ["1", "0", "0", "1"]}')
        code, out, err = capout("eval", "--sig", "bord1", "--term", "coev ; swap[pp,pm] ; ev",
                                "--algebra", str(path))
        self.one_error_line(code, out, err, "frac_pair.json", "malformed dual pair JSON", "2.5")

    @pytest.mark.parametrize("key", ["mu", "eta", "delta", "eps", "pairing"])
    @pytest.mark.parametrize("bad", ["1e999", "true", "0.1"])
    def test_algebra_json_with_inexact_scalar(self, capout, tmp_path, key, bad):
        # 1e999 used to end in an OverflowError traceback with exit 1, true
        # to read as 1 and 0.1 as the nearest binary fraction
        obj = {"dim": 1, "mu": [["1"]], "eta": ["1"], "delta": [["1"]], "eps": ["1"]}
        if key == "pairing":
            del obj["delta"], obj["eps"]
        obj[key] = [[bad]] if key in ("mu", "delta", "pairing") else [bad]
        path = tmp_path / "inexact.json"
        path.write_text(json.dumps(obj).replace(f'"{bad}"', bad))
        code, out, err = capout("check", "--algebra", str(path))
        self.one_error_line(code, out, err, "inexact.json", "not a rational scalar")

    def test_dual_pair_json_with_inexact_scalar(self, capout, tmp_path):
        path = tmp_path / "inexact_pair.json"
        path.write_text('{"dimU": 1, "dimV": 1, "b": [1e999], "d": ["1"]}')
        code, out, err = capout("eval", "--sig", "bord1", "--term", "coev ; swap[pp,pm] ; ev",
                                "--algebra", str(path))
        self.one_error_line(code, out, err, "inexact_pair.json", "not a rational scalar: inf")

    def test_interpretation_json_with_fractional_dimension(self, capout, tmp_path):
        sig = tmp_path / "sig.json"
        sig.write_text('{"objects": ["a"], "generators": {}, "relations": []}')
        path = tmp_path / "frac_dims.json"
        path.write_text('{"dims": {"a": 2.5}, "matrices": {}}')
        code, out, err = capout("eval", "--sig", str(sig), "--term", "id[a]", "--algebra", str(path))
        self.one_error_line(code, out, err, "frac_dims.json", "bad interpretation", "2.5")

    def test_fusion_json_with_repeated_labels(self, capout, tmp_path):
        # vec_z2 with both labels named 1: the word 1,1 used to print 1
        path = tmp_path / "twins.json"
        path.write_text('{"labels": ["1", "1"], "dual": [0, 1], "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}')
        code, out, err = capout("fusion", str(path), "--word", "1,1")
        self.one_error_line(code, out, err, "twins.json", "labels must be distinct strings")

    def test_fusion_json_with_fractional_constant(self, capout, tmp_path):
        path = tmp_path / "half.json"
        path.write_text('{"labels": ["1"], "dual": [0], "N": [[[1.5]]]}')
        code, out, err = capout("fusion", str(path), "--word", "1")
        self.one_error_line(code, out, err, "half.json", "malformed fusion ring JSON", "1.5")

    def malformed_signature(self, capout, tmp_path, **entries):
        sig = tmp_path / "bad_sig.json"
        sig.write_text(json.dumps({
            "objects": ["a"], "generators": {"f": {"src": ["a"], "tgt": ["a"]}}, **entries,
        }))
        interp = tmp_path / "interp.json"
        interp.write_text('{"dims": {"a": 1}, "matrices": {"f": [["1"]]}}')
        code, out, err = capout("eval", "--sig", str(sig), "--algebra", str(interp), "--term", "f")
        self.one_error_line(code, out, err, "bad_sig.json", "malformed signature JSON")

    def test_signature_relation_with_integer_side(self, capout, tmp_path):
        self.malformed_signature(capout, tmp_path, relations=[{"lhs": 5, "rhs": "f"}])

    def test_signature_relation_without_rhs(self, capout, tmp_path):
        self.malformed_signature(capout, tmp_path, relations=[{"lhs": "f"}])

    def test_signature_relation_that_is_not_an_object(self, capout, tmp_path):
        self.malformed_signature(capout, tmp_path, relations=[5])

    def test_signature_duality_without_pairing(self, capout, tmp_path):
        self.malformed_signature(capout, tmp_path, duality={"a": {"coev": "f"}})

    def test_signature_duality_that_is_a_list(self, capout, tmp_path):
        self.malformed_signature(capout, tmp_path, duality=[1])

    def test_usage_error(self, capout):
        code, _, err = capout("invariant", "--algebra", "z2")
        assert code == 2


class TestOneProcess:
    def test_subcommands_in_sequence(self, capout):
        # one parser serves every call; no option of one call leaks into the next
        runs = [
            (["invariant", "--algebra", "z2", "--genus", "2"], 0, "4\n"),
            (["fusion", fx("fib.json"), "--word", "tau,tau,tau,tau"], 0, "2\n"),
            (["eval", "--algebra", "z2", "--term", "cap ; cup"], 0, '[["1"]]\n'),
            (["invariant", "--algebra", "z2"], 2, ""),
            (["fusion", fx("fib.json"), "--genus", "2"], 0, "5\n"),
            (["invariant", "--algebra", "center:[2]", "--genus", "2", "--json"], 0,
             '{\n  "genus": 2,\n  "value": "1/2"\n}\n'),
            (["fusion", fx("bad_fusion.json"), "--word", "tau,tau"], 2, ""),
            (["invariant", "--algebra", "z2", "--genus", "3"], 0, "8\n"),
        ]
        for argv, code, out in runs:
            assert capout(*argv)[:2] == (code, out), argv
        assert cli._parser() is cli._parser()


class TestLastResort:
    @pytest.fixture
    def fresh_parser(self):
        # the cached parser holds the subcommand functions it was built with
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    @pytest.mark.parametrize("error, line", [
        (MemoryError, "error: out of memory; the input is too large to evaluate\n"),
        (RecursionError, "error: the input is nested too deeply to process\n"),
    ])
    def test_exhaustion_is_one_line_and_exit_two(self, capout, monkeypatch, fresh_parser, error, line):
        def exhausted(args):
            raise error()

        monkeypatch.setattr(cli, "_cmd_invariant", exhausted)
        code, out, err = capout("invariant", "--algebra", "z2", "--genus", "2")
        assert (code, out, err) == (2, "", line)


class TestWorkDoneOnce:
    def test_recon_typechecks_and_evaluates_its_term_once(self, capout, monkeypatch):
        # counted as walks of the term: a typecheck that finds the kept
        # type walks nothing, so calls to typecheck are not work done
        text = "pants ; copants ; id[S1] * cup ; copants"
        term = terms.parse_term(text, bord2_signature())
        type_walks, evaluated = [], []
        real_fold, real_eval = terms.fold, evaluate._eval

        def counting_fold(t, leaf, combine, ctx):
            if leaf is terms._type_leaf:
                type_walks.append(t)
            return real_fold(t, leaf, combine, ctx)

        def counting_eval(t, interp):
            evaluated.append(t)
            return real_eval(t, interp)

        monkeypatch.setattr(terms, "fold", counting_fold)
        monkeypatch.setattr(evaluate, "_eval", counting_eval)
        code, out, _ = capout("recon", "--algebra", "milnor:4", "--term", text)
        assert code == 0 and "agree: true" in out
        # building the algebra evaluates its relation sides and dualities
        assert [t for t in type_walks if t == term] == [term]
        assert [t for t in evaluated if t == term] == [term]


class TestDeterminism:
    def test_byte_stable_outputs(self, capout):
        for argv in (
            ("check", "--algebra", "z2", "--json"),
            ("relations", "--algebra", "milnor:4"),
            ("reduce", "--algebra", "z3"),
            ("eval", "--algebra", "z2", "--term", "cap ; (copants ; pants) ; cup"),
        ):
            first = capout(*argv)
            second = capout(*argv)
            assert first == second


class TestModuleEntryPoint:
    def run_module(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "tqftkit.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_python_m_runs_the_cli(self):
        done = self.run_module("invariant", "--algebra", "z2", "--genus", "2")
        assert done.returncode == 0 and done.stdout == "4\n" and done.stderr == ""

    def test_python_m_reports_unknown_algebra(self):
        done = self.run_module("invariant", "--algebra", "nope", "--genus", "2")
        assert done.returncode == 2 and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1 and "nope" in done.stderr
