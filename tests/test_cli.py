"""CLI behavior: outputs, exit codes, diagnostics, determinism."""

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqftkit import cli, evaluate, terms
from tqftkit.cli import run
from tqftkit.frobenius import bord2_signature

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def fx(name):
    return os.path.join(FIXTURES, name)


# valid files of each kind that the loader tests spoil one value at a time
Z2 = {"dim": 2, "mu": [["1", "0", "0", "1"], ["0", "1", "1", "0"]], "eta": ["1", "0"],
      "pairing": [["1", "0"], ["0", "1"]]}
Z2_FULL = {"dim": 2, "mu": Z2["mu"], "eta": ["1", "0"],
           "delta": [["1", "0"], ["0", "1"], ["0", "1"], ["1", "0"]], "eps": ["1", "0"]}
PAIR = {"dimU": 2, "dimV": 2, "b": ["1", "0", "0", "1"], "d": ["1", "0", "0", "1"]}
RING = {"labels": ["1", "t"], "dual": [0, 1], "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}
SIG = {"objects": ["a", "b"], "generators": {"f": {"src": ["a"], "tgt": ["a"]}}, "relations": []}
INTERP = {"dims": {"a": 2, "b": 1}, "matrices": {"f": [["0", "1"], ["1", "0"]]}}
LOADERS = {  # file kind -> its argv, with F for the file, and the prefix of its errors
    "algebra": (["check", "--algebra", "F"], "malformed algebra JSON: "),
    "pair": (["eval", "--sig", "bord1", "--algebra", "F", "--term", "coev ; swap[pp,pm] ; ev"],
             "malformed dual pair JSON: "),
    "ring": (["fusion", "F", "--genus", "2"], "malformed fusion ring JSON: "),
    "signature": (["eval", "--sig", "F", "--algebra", "INTERP", "--term", "f"], "malformed signature JSON: "),
}


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
        ("center:[0]", "block sizes must be positive"),
        ("center:1", "center spec must look like center:[1,2], got 'center:1'"),
        # only ASCII digits, as scalar text: no other script, space or "_",
        # and no space around a center spec's brackets
        ("milnor:\u0663", "degree must be an integer, got '\u0663'"),
        ("milnor: 3", "degree must be an integer, got ' 3'"),
        ("milnor:3 ", "degree must be an integer, got '3 '"),
        ("center:[1_0]", "block size must be an integer, got '1_0'"),
        ("center:[1, 2]", "block size must be an integer, got ' 2'"),
        ("center:[\uff12]", "block size must be an integer, got '\uff12'"),
        ("center: [1,2]", "center spec must look like center:[1,2], got 'center: [1,2]'"),
        ("center:[1,2] ", "center spec must look like center:[1,2], got 'center:[1,2] '"),
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

    @pytest.mark.parametrize("kind, obj, where", [
        ("algebra", Z2, ("mu", 0, 0)), ("algebra", Z2, ("eta", 1)), ("algebra", Z2_FULL, ("delta", 3, 0)),
        ("algebra", Z2_FULL, ("eps", 0)), ("algebra", Z2, ("pairing", 1, 1)),
        ("pair", PAIR, ("b", 0)), ("pair", PAIR, ("d", 3)),
        ("pair", {**PAIR, "b": [["1"], ["0"], ["0"], ["1"]]}, ("b", 2, 0)),
        ("interp", INTERP, ("matrices", "f", 0, 1)),
    ])
    @pytest.mark.parametrize("bad", ["1.5", "1_0", " 1", "\u0661", "1/0", "1e3"])
    def test_scalar_text_outside_p_q_is_refused(self, capout, tmp_path, kind, obj, where, bad):
        # Fraction's own grammar read each of these but "1/0" as a number
        obj = copy.deepcopy(obj)
        parent = obj
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = bad
        path, sig = tmp_path / "scalar.json", tmp_path / "sig.json"
        path.write_text(json.dumps(obj))
        sig.write_text(json.dumps(SIG))
        argv, context = {
            "algebra": (["check", "--algebra"], ""),
            "pair": (["eval", "--sig", "bord1", "--term", "coev ; swap[pp,pm] ; ev", "--algebra"],
                     "malformed dual pair JSON: "),
            "interp": (["eval", "--sig", str(sig), "--term", "f", "--algebra"], "bad interpretation: "),
        }[kind]
        assert capout(*argv, str(path)) == (2, "", f"error: {path}: {context}not a rational scalar: {bad!r}\n")

    def test_signed_and_unreduced_scalar_text_loads(self, capout, tmp_path):
        path = tmp_path / "signed.json"
        path.write_text('{"dim": 1, "mu": [["+2"]], "eta": ["1/2"], "pairing": [["-3/6"]]}')
        assert capout("check", "--algebra", str(path))[0] == 0

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

    @pytest.mark.parametrize("ring, message", [
        ({"labels": [], "dual": [], "N": []}, "need at least the unit label"),
        ({"labels": ["1", "t"], "dual": [0], "N": RING["N"]}, "dual involution must cover every label"),
        ({"labels": ["1", "t"], "dual": [0, 1], "N": [[[1, 0], [0, 1]], [[0, 1]]]},
         "structure constants must be rank x rank x rank"),
    ])
    def test_fusion_ring_of_the_wrong_shape(self, capout, tmp_path, ring, message):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(ring))
        assert capout("fusion", str(path), "--genus", "1") == (2, "", f"error: {path}: {message}\n")

    def test_fusion_word_with_an_unknown_label(self, capout):
        assert capout("fusion", fx("fib.json"), "--word", "tau, nope") == (
            2, "", f"error: {fx('fib.json')}: unknown label 'nope'\n"
        )

    @pytest.mark.parametrize("argv, context", [
        (["invariant", "--algebra", "z2"], "z2"),
        (["fusion", fx("fib.json")], fx("fib.json")),
    ])
    def test_negative_genus_names_the_input(self, capout, argv, context):
        assert capout(*argv, "--genus", "-1") == (2, "", f"error: {context}: genus must be nonnegative\n")

    @pytest.mark.parametrize("changes, message", [
        ({"basis": ["e"]}, "basis_names length must equal dim"),
        ({"pairing": [["1"]]}, "gram must be 2x2, got 1x1"),
    ])
    def test_algebra_json_of_the_wrong_shape(self, capout, tmp_path, changes, message):
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps({**Z2, **changes}))
        assert capout("check", "--algebra", str(path)) == (2, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe", "not UTF-8 text at byte 0"),
        (b"[" + b"1" * 5000 + b"]", "Exceeds the limit (4300 digits) for integer string conversion"),
    ])
    @pytest.mark.parametrize("argv", [["check", "--algebra"], ["fusion"]])
    def test_unreadable_json_names_the_file(self, capout, tmp_path, digit_limit, content, message, argv):
        path = tmp_path / "bytes.json"
        path.write_bytes(content)
        code, out, err = capout(*argv, str(path), *(["--genus", "1"] if argv == ["fusion"] else []))
        self.one_error_line(code, out, err, f"error: {path}: {message}")

    @pytest.mark.parametrize("name, message", [
        ("", "cannot read: Is a directory"),
        ("bad.term", "not UTF-8 text at byte 3"),
    ])
    def test_term_file_that_cannot_be_read(self, capout, tmp_path, name, message):
        (tmp_path / "bad.term").write_bytes(b"cap\xff")
        path = tmp_path / name
        assert capout("eval", "--algebra", "z2", "--term", str(path)) == (2, "", f"error: {path}: {message}\n")

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

    @pytest.mark.parametrize("sig, message", [
        ({"objects": ["a", "a"], "generators": {}}, "duplicate object name 'a'"),
        ({"objects": [""], "generators": {}}, "invalid name ''"),
        ({"objects": ["1a"], "generators": {}}, "invalid name '1a'"),
        ({"objects": ["a-b"], "generators": {}}, "invalid name 'a-b'"),
        ({"objects": ["a"], "generators": {"f": {"src": ["b"], "tgt": ["a"]}}},
         "unknown object label 'b' at term"),
        ({"objects": ["a"], "generators": {}, "duality": {"b": {"coev": "id[a]", "pairing": "id[a]"}}},
         "unknown object label 'b' at term"),
        ({"objects": ["a"], "generators": {"c": {"src": [], "tgt": ["a", "a"]}},
          "duality": {"a": {"coev": "c", "pairing": "c"}}},
         "pairing for 'a' must be (a,a) -> ()"),
    ])
    def test_invalid_signature(self, capout, tmp_path, sig, message):
        sig_path, interp = tmp_path / "sig.json", tmp_path / "interp.json"
        sig_path.write_text(json.dumps(sig))
        interp.write_text('{"dims": {"a": 1}, "matrices": {}}')
        code, out, err = capout("eval", "--sig", str(sig_path), "--algebra", str(interp), "--term", "id[a]")
        assert (code, out, err) == (2, "", f"error: {sig_path}: {message}\n")

    @pytest.mark.parametrize("interp, message", [
        ({"dims": [1], "matrices": {}}, "dims must be a JSON object, got list"),
        ({"dims": {"x": 1}, "matrices": "f"}, "matrices must be a JSON object, got str"),
        ({"dims": {"x": 1}, "matrices": []}, "matrices must be a JSON object, got list"),
        ({"dims": {"x": 1}, "matrices": {}}, "no matrix assigned to generator 'f'"),
        ({"dims": {"x": 1}, "matrices": {"f": "1"}}, "matrix JSON must be a list of rows"),
        ({"dims": {"x": 0}, "matrices": {"f": []}}, "object 'x': dimension must be positive, got 0"),
        ({"dims": {"x": "1"}, "matrices": {"f": [["1"]]}}, "not an integer: '1'"),
        ([{"dims": {"x": 1}, "matrices": {"f": [["1"]]}}], "top level must be a JSON object, got list"),
    ])
    @pytest.mark.parametrize("command", [["eval", "--term", "f"], ["relations"]])
    def test_malformed_interpretation(self, capout, tmp_path, interp, message, command):
        # a list or string for dims or matrices used to end in an AttributeError traceback
        sig, path = tmp_path / "sig.json", tmp_path / "interp.json"
        sig.write_text('{"objects": ["x"], "generators": {"f": {"src": ["x"], "tgt": ["x"]}}}')
        path.write_text(json.dumps(interp))
        code, out, err = capout(*command, "--sig", str(sig), "--algebra", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: bad interpretation: {message}\n")

    @pytest.mark.parametrize("kind, obj, what", [
        # each of these strings used to load as the array of its characters
        ("algebra", {**Z2, "eta": "10"}, "eta"),
        ("algebra", {**Z2, "basis": "ab"}, "basis"),
        ("algebra", {**Z2_FULL, "eps": "10"}, "eps"),
        ("pair", {**PAIR, "b": "1001"}, "b"),
        ("pair", {**PAIR, "d": "1001"}, "d"),
        ("ring", {**RING, "labels": "1t"}, "labels"),
        ("ring", {**RING, "dual": "01"}, "dual"),
        ("ring", {**RING, "N": "ab"}, "N"),
        ("ring", {**RING, "N": [[[1, 0], [0, 1]], ["01", [1, 0]]]}, "N"),
        ("ring", {**RING, "N": [[[1, 0], "01"], [[0, 1], [1, 0]]]}, "N"),
        ("signature", {**SIG, "objects": "ab"}, "objects"),
        ("signature", {**SIG, "generators": {"f": {"src": "a", "tgt": ["a"]}}}, "src"),
        ("signature", {**SIG, "generators": {"f": {"src": ["a"], "tgt": "a"}}}, "tgt"),
        ("signature", {**SIG, "relations": ""}, "relations"),
    ])
    def test_string_is_not_an_array(self, capout, tmp_path, kind, obj, what):
        assert self.load(capout, tmp_path, kind, obj) == (
            2, "", f"error: {tmp_path / kind}.json: {LOADERS[kind][1]}{what} must be a JSON array, got str\n"
        )

    @pytest.mark.parametrize("kind, obj, what", [
        # each of these strings used to load as the integer it spells
        ("algebra", {**Z2, "dim": "2"}, "'2'"),
        ("algebra", {**Z2_FULL, "dim": "2"}, "'2'"),
        ("pair", {**PAIR, "dimU": "2"}, "'2'"),
        ("pair", {**PAIR, "dimV": "2"}, "'2'"),
        ("ring", {**RING, "dual": ["0", 1]}, "'0'"),
        ("ring", {**RING, "N": [[[1, 0], [0, "1"]], [[0, 1], [1, 0]]]}, "'1'"),
    ])
    def test_string_is_not_an_integer(self, capout, tmp_path, kind, obj, what):
        assert self.load(capout, tmp_path, kind, obj) == (
            2, "", f"error: {tmp_path / kind}.json: {LOADERS[kind][1]}not an integer: {what}\n"
        )

    @pytest.mark.parametrize("kind, obj, what", [
        # each of these used to be reported in Python's words, such as
        # "list indices must be integers or slices, not str"
        ("algebra", [Z2], "top level must be a JSON object, got list"),
        ("pair", [PAIR], "top level must be a JSON object, got list"),
        ("ring", "1t", "top level must be a JSON object, got str"),
        ("signature", [SIG], "top level must be a JSON object, got list"),
        ("signature", {**SIG, "generators": [["a"], ["a"]]}, "generators must be a JSON object, got list"),
        ("signature", {**SIG, "generators": {"f": [["a"], ["a"]]}}, "generator 'f' must be a JSON object, got list"),
        ("signature", {**SIG, "relations": [["f", "f"]]}, "relation 0 must be a JSON object, got list"),
        ("signature", {**SIG, "duality": [1]}, "duality must be a JSON object, got list"),
        ("signature", {**SIG, "duality": {"a": "f"}}, "duality 'a' must be a JSON object, got str"),
        ("signature", {**SIG, "relations": [{"lhs": ["f"], "rhs": "f"}]}, "term text must be a string, got list"),
    ])
    def test_wrong_json_kind_is_named(self, capout, tmp_path, kind, obj, what):
        assert self.load(capout, tmp_path, kind, obj) == (
            2, "", f"error: {tmp_path / kind}.json: {LOADERS[kind][1]}{what}\n"
        )

    @pytest.mark.parametrize("name", [1, [None]])
    def test_name_that_is_no_string(self, capout, tmp_path, name):
        assert self.load(capout, tmp_path, "signature", {**SIG, "objects": [name]}) == (
            2, "", f"error: {tmp_path / 'signature'}.json: invalid name {name!r}\n"
        )

    @pytest.mark.parametrize("kind, obj", [
        ("algebra", Z2), ("algebra", Z2_FULL), ("pair", PAIR), ("ring", RING), ("signature", SIG),
    ])
    def test_arrays_load(self, capout, tmp_path, kind, obj):
        # the files the test above spoils, as they are
        code, out, err = self.load(capout, tmp_path, kind, obj)
        assert (code, err) == (0, "") and out

    def load(self, capout, tmp_path, kind, obj):
        path, interp = tmp_path / f"{kind}.json", tmp_path / "interp.json"
        path.write_text(json.dumps(obj))
        interp.write_text(json.dumps(INTERP))
        argv = [{"F": str(path), "INTERP": str(interp)}.get(arg, arg) for arg in LOADERS[kind][0]]
        return capout(*argv)

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
    def test_main_exits_with_the_code_of_run(self, capsys, monkeypatch):
        for argv, code, out in [(["invariant", "--algebra", "z2", "--genus", "2"], 0, "4\n"),
                                (["relations", "--algebra", "s3"], 1, None),
                                (["invariant", "--algebra", "z2", "--genus", "-1"], 2, "")]:
            monkeypatch.setattr(sys, "argv", ["tqftkit", *argv])
            with pytest.raises(SystemExit) as done:
                cli.main()
            assert done.value.code == code
            assert out is None or capsys.readouterr().out == out
            capsys.readouterr()

    def run_module(self, *argv, timeout=60):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "tqftkit.cli", *argv],
            capture_output=True, text=True, env=env, timeout=timeout,
        )

    def test_python_m_runs_the_cli(self):
        done = self.run_module("invariant", "--algebra", "z2", "--genus", "2")
        assert done.returncode == 0 and done.stdout == "4\n" and done.stderr == ""

    def test_exponent_text_is_refused_at_once(self, tmp_path):
        # Fraction's grammar read this 14-byte scalar as 10**100000000, which
        # took minutes to build
        path = tmp_path / "exponent.json"
        path.write_text('{"dim": 1, "mu": [["1"]], "eta": ["1e100000000"], "pairing": [["1"]]}')
        done = self.run_module("check", "--algebra", str(path), timeout=10)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", f"error: {path}: not a rational scalar: '1e100000000'\n"
        )

    def test_python_m_reports_unknown_algebra(self):
        done = self.run_module("invariant", "--algebra", "nope", "--genus", "2")
        assert done.returncode == 2 and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1 and "nope" in done.stderr


# --- fuzz ----------------------------------------------------------------------

# the keys each loader reads, and a valid file of each kind to spoil
KEYS = {
    "algebra": ["dim", "basis", "mu", "eta", "delta", "eps", "pairing"],
    "pair": ["dimU", "dimV", "b", "d"],
    "ring": ["labels", "dual", "N"],
    "signature": ["objects", "generators", "relations", "duality"],
    "interp": ["dims", "matrices"],
}
BASES = {
    "algebra": [Z2, Z2_FULL],
    "pair": [PAIR],
    "ring": [RING],
    "signature": [{**SIG, "relations": [{"name": "involution", "lhs": "f ; f", "rhs": "id[a]"}]}],
    "interp": [INTERP],
}
# scalar texts that Fraction's own grammar reads but p/q does not; the
# exponents are small, so a loader that reads them finishes fast
OFF_GRAMMAR = ["1e3", "-2E-1", "1.5", " 1", "1 ", "1_0", "\u0661"]
SCALAR_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
# short texts over the DSL's pieces, or any text; at most six names keep values small
TERM_PIECES = ["cap", "cup", "pants", "copants", "coev", "ev", "id[", "swap[", "S1", "pp", "pm",
               "1", ",", "]", "(", ")", ";", "*", " ", "x", "\u00e9", "$"]
term_texts = (st.lists(st.sampled_from(TERM_PIECES), max_size=14).map("".join) | st.text(max_size=40)).map(
    lambda text: text[:40]
).filter(lambda text: len(re.findall(r"[^\W\d]\w*", text)) <= 6)
SPECS = ["z2", "z3", "s3", "milnor:3", "center:[1,2]", "center:[0]", "center:1", "center:[1,,2]",
         "milnor:1", "milnor:x", "triangular", "nope", ""]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from([0.5, 2.0, 1e300, float("inf")])
    | st.text(alphabet="01/-abtS", max_size=4) | st.sampled_from(OFF_GRAMMAR + ["+2", "-3/6"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(alphabet="abfS1", max_size=2), inner, max_size=3),
    max_leaves=10,
)


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, (dict, list)):
        for key in (sorted(value) if isinstance(value, dict) else range(len(value))):
            yield from _nodes(value[key], path + (key,))


@st.composite
def spoiled(draw, kind):
    """A valid file of ``kind`` with one value at any depth joined into a
    string (``["1", "0"]`` to ``"10"``), respelt outside ``p/q`` (``"1"``
    to ``" 1"`` or ``"1e0"``), replaced, or dropped."""
    value = copy.deepcopy(draw(st.sampled_from(BASES[kind])))
    path, node = draw(st.sampled_from(list(_nodes(value))[1:]))
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["join", "respell", "replace", "drop"]))
    if action == "drop":
        del parent[path[-1]]
    elif action == "join" and isinstance(node, list):
        parent[path[-1]] = "".join(ch for ch in json.dumps(node) if ch.isalnum())
    elif action == "respell" and isinstance(node, str):
        # the same number in Fraction's own grammar, which loaders used to read
        parent[path[-1]] = draw(st.sampled_from([f" {node}", f"{node}\n", f"{node}e0", f"{node}E-0"]))
    else:
        parent[path[-1]] = draw(json_values)
    return value


def file_contents(kind):
    """Random bytes, any small JSON value, random small JSON under the
    loader's keys, a valid file, or a spoiled one."""
    return st.one_of(
        st.binary(max_size=40),
        json_values.map(lambda v: json.dumps(v).encode()),
        st.dictionaries(st.sampled_from(KEYS[kind]), json_values, max_size=5).map(lambda v: json.dumps(v).encode()),
        st.sampled_from(BASES[kind]).map(lambda v: json.dumps(v).encode()),
        spoiled(kind).map(lambda v: json.dumps(v).encode()),
    )


@st.composite
def cli_cases(draw):
    """Well-formed argv, with ``{kind}`` standing for a file of that kind, and the files' contents."""
    genus = draw(st.sampled_from(["-1", "0", "1", "3"]))
    group = draw(st.sampled_from(["algebra", "pair", "ring", "signature", "term", "spec"]))
    files = {}
    if group in ("algebra", "pair", "ring"):
        files["{%s}" % group] = (group, draw(file_contents(group)))
    if group == "signature":
        # one of the two files is random, so the other's loader is reached
        for kind in ("signature", "interp"):
            files["{%s}" % kind] = (kind, json.dumps(BASES[kind][0]).encode())
        kind = draw(st.sampled_from(["signature", "interp"]))
        files["{%s}" % kind] = (kind, draw(file_contents(kind)))
    if group == "term":
        files["{pair}"] = ("pair", json.dumps(PAIR).encode())
    term, spec = draw(term_texts), draw(st.sampled_from(SPECS))
    argv = draw(st.sampled_from({
        "algebra": [["check", "--algebra", "{algebra}"], ["relations", "--algebra", "{algebra}"],
                    ["invariant", "--algebra", "{algebra}", "--genus", genus], ["reduce", "--algebra", "{algebra}"],
                    ["eval", "--algebra", "{algebra}", "--term", "pants"],
                    ["recon", "--algebra", "{algebra}", "--term", "copants"]],
        "pair": [["eval", "--sig", "bord1", "--algebra", "{pair}", "--term", "coev ; swap[pp,pm] ; ev"],
                 ["relations", "--sig", "bord1", "--algebra", "{pair}"]],
        "ring": [["fusion", "{ring}", "--genus", genus], ["fusion", "{ring}", "--word", "1,t"],
                 ["fusion", "{ring}", "--word", "t,t,t", "--json"]],
        "signature": [["eval", "--sig", "{signature}", "--algebra", "{interp}", "--term", "f ; f"],
                      ["relations", "--sig", "{signature}", "--algebra", "{interp}"]],
        # --term=TEXT, as a text that starts with "-" would otherwise read as an option
        "term": [["eval", "--algebra", "z2", f"--term={term}"], ["recon", "--algebra", "z2", f"--term={term}"],
                 ["eval", "--sig", "bord1", "--algebra", "{pair}", f"--term={term}"]],
        "spec": [["check", "--algebra", spec], ["relations", "--algebra", spec, "--json"],
                 ["invariant", "--algebra", spec, "--genus", genus], ["reduce", "--algebra", spec],
                 ["recon", "--algebra", spec, "--term", "pants"]],
    }[group]))
    return argv, files


def misshapen(kind, content) -> bool:
    """Whether a file of ``kind`` is no JSON object, or its loader reads a
    value that is no JSON array (no JSON object, for ``dims`` and
    ``matrices``) where one belongs, a string where an integer belongs, or
    a scalar text outside ``p/q``; such a file must be refused."""
    try:
        obj = json.loads(content.decode("utf-8"))
    except ValueError:
        return True
    if type(obj) is not dict:
        return True
    arrays = {
        "algebra": ["basis", "mu", "eta"] + (["pairing"] if "pairing" in obj else ["delta", "eps"]),
        "pair": ["b", "d"],
        "ring": ["labels", "dual", "N"],
        "signature": ["objects", "relations"],
        "interp": [],
    }[kind]
    if any(key in obj and type(obj[key]) is not list for key in arrays):
        return True
    if kind == "ring" and any(type(plane) is not list or any(type(row) is not list for row in plane)
                              for plane in obj.get("N", [])):
        return True
    integers = {
        "algebra": [obj.get("dim")],
        "pair": [obj.get("dimU"), obj.get("dimV")],
        "ring": obj.get("dual", []) + [x for plane in obj.get("N", []) for row in plane for x in row],
        "signature": [],
        "interp": list(obj["dims"].values()) if type(obj.get("dims")) is dict else [],
    }[kind]
    if any(type(x) is str for x in integers):
        return True
    vectors = {  # each a vector or a matrix of scalars
        "algebra": [obj.get(key) for key in ["mu", "eta"] + (["pairing"] if "pairing" in obj else ["delta", "eps"])],
        "pair": [obj.get("b"), obj.get("d")],
        "interp": list(obj["matrices"].values()) if type(obj.get("matrices")) is dict else [],
    }.get(kind, [])
    scalars = [x for v in vectors if type(v) is list for row in v for x in (row if type(row) is list else [row])]
    if any(type(x) is str and not SCALAR_TEXT.fullmatch(x) for x in scalars):
        return True
    generators = obj.get("generators") if kind == "signature" else None
    if type(generators) is dict and any(
        type(spec) is dict and any(key in spec and type(spec[key]) is not list for key in ("src", "tgt"))
        for spec in generators.values()
    ):
        return True
    return kind == "interp" and any(key in obj and type(obj[key]) is not dict for key in ("dims", "matrices"))


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(cli_cases())
    def test_every_input_exits_0_1_or_2_with_at_most_one_line(self, case):
        # random files of every kind, term texts on z2 and standard_pair(2), and
        # built-in specs; a file with a string where an array belongs is refused
        argv, files = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, (kind, content) in files.items():
                paths[name] = os.path.join(tmp, f"{kind}.json")
                with open(paths[name], "wb") as fh:
                    fh.write(content)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([paths.get(arg, arg) for arg in argv])
        err = err.getvalue()
        assert code in (0, 1, 2) and "Traceback" not in err
        # a wrong JSON kind is named in the loader's words, not in Python's
        assert "has no attribute" not in err and "indices must be" not in err, err
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("error: "), err
        else:
            assert err == ""
        if any(misshapen(kind, content) for kind, content in files.values()):
            assert code == 2, (argv, files, out.getvalue())
