"""The one term walk (``terms.fold``) and everything that goes through it:
deep and wide terms at the default recursion limit, deep relation sides
in signature JSON, and the structure built once around it."""

import ast
import copy
import importlib
import json
import pathlib
import pickle
import pkgutil
import sys

import pytest

import tqftkit
from tqftkit import dualpairs, frobenius, terms
from tqftkit.algebras import trivial_algebra
from tqftkit.cli import run
from tqftkit.dualpairs import loop_value, standard_pair
from tqftkit.evaluate import eval_term
from tqftkit.exactlin import Matrix
from tqftkit.frobenius import BilinearPairing, from_economy
from tqftkit.fusion import grothendieck_frobenius, vec_z
from tqftkit.surfaces import bord2_signature, connected_sum_identity, genus_term
from tqftkit.terms import (
    Compose,
    Gen,
    Id,
    Tensor,
    UnknownGenerator,
    fold,
    parse_term,
    render_term,
    signature_from_json,
    signature_to_json,
    typecheck,
)

SRC = pathlib.Path(terms.__file__).parent
DEEP = 5000  # handles: deep enough that any recursion proportional to depth fails
WIDE = 3000  # tensor factors


def genus_text(genus):
    return "cap" + " ; (copants ; pants)" * genus + " ; cup"


def wide_tensor(width):
    """cup * (cup * (... * id[S1])): a right-nested tensor of ``width`` cups."""
    t = Id(("S1",))
    for _ in range(width):
        t = Tensor(Gen("cup"), t)
    return t


@pytest.fixture(autouse=True)
def default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000


class TestFold:
    def test_visit_order_is_post_order_left_to_right(self):
        t = parse_term("(cap * cap) ; pants ; swap[S1,1]", bord2_signature())
        seen = []

        def leaf(node, ctx):
            ctx.append(render_term(node))
            return render_term(node)

        def combine(node, first, second, ctx):
            ctx.append(f"<{first} | {second}>")
            return render_term(node)

        assert fold(t, leaf, combine, seen) == render_term(t)
        assert seen == [
            "cap", "cap", "<cap | cap>", "pants", "<cap * cap | pants>",
            "swap[S1,1]", "<cap * cap ; pants | swap[S1,1]>",
        ]

    def test_a_leaf_alone_is_its_leaf_value(self):
        assert fold(Gen("cap"), lambda node, ctx: (node.name, ctx), None, 7) == ("cap", 7)

    def test_non_terms_are_rejected_by_every_walk(self):
        interp = trivial_algebra().interpretation
        walks = (
            lambda t: typecheck(t, interp.sig), lambda t: eval_term(t, interp), render_term,
            hash, lambda t: t == Compose(Gen("cap"), Gen("cup")),
        )
        for walk in walks:
            with pytest.raises(TypeError, match="not a term"):
                walk(Compose(Gen("cap"), "cup"))
        for walk in walks[:3]:
            with pytest.raises(TypeError, match="not a term"):
                walk("cup")

    def test_render_parenthesizes_exactly_where_the_grammar_needs(self):
        sig = bord2_signature()
        cases = {
            "(cap ; copants) * cap ; pants * id[S1]": "(cap ; copants) * cap ; pants * id[S1]",
            "cap ; (copants ; pants)": "cap ; (copants ; pants)",
            "cap * (cap * cap)": "cap * (cap * cap)",
            "((cap * cap) * cap)": "cap * cap * cap",
            "swap[(S1,S1),1] ; id[1] * (pants ; (copants ; swap[S1,S1]))":
                "swap[(S1,S1),1] ; id[1] * (pants ; (copants ; swap[S1,S1]))",
        }
        for text, rendered in cases.items():
            assert render_term(parse_term(text, sig)) == rendered


class TestDeepTerms:
    """Each of these raises RecursionError if any step recurses per level."""

    def test_render_deep_and_wide_terms(self):
        assert render_term(genus_term(DEEP)) == genus_text(DEEP)
        nested = "cup * (" * (WIDE - 1) + "cup * id[S1]" + ")" * (WIDE - 1)
        assert render_term(wide_tensor(WIDE)) == nested

    def test_parse_render_round_trip_compared_as_text(self):
        sig = bord2_signature()
        for t in (genus_term(DEEP), wide_tensor(WIDE)):
            text = render_term(t)
            assert render_term(parse_term(text, sig)) == text
            assert parse_term(text, sig) == t

    def test_deep_and_wide_terms_compare_and_hash(self):
        for build in (genus_term, wide_tensor):
            t, twin, other = build(DEEP), build(DEEP), build(DEEP - 1)
            assert t == twin and not t != twin and hash(t) == hash(twin)
            assert t != other and not t == other

    def test_deep_and_wide_terms_print_pickle_and_copy(self):
        sig = bord2_signature()
        size = 20000
        nested = "cup * (" * (size - 1) + "cup * id[S1]" + ")" * (size - 1)
        for t, text in ((genus_term(size), genus_text(size)), (wide_tensor(size), nested)):
            typecheck(t, sig)
            assert repr(t) == str(t) == f"<{type(t).__name__} {text}>"
            for twin in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t)):
                assert twin is not t and twin == t and hash(twin) == hash(t)
                assert twin._typed is None  # the kept type is not copied

    def test_deep_unknown_generator_error_path(self):
        t = Gen("trousers")
        for _ in range(WIDE):
            t = Compose(Id(()), t)
        with pytest.raises(UnknownGenerator) as err:
            parse_term(render_term(t), bord2_signature())
        assert err.value.path == ("then",) * WIDE

    def test_wide_tensor_evaluates(self):
        interp = trivial_algebra().interpretation
        assert eval_term(wide_tensor(WIDE), interp) == Matrix.identity(1)

    def test_connected_sum_on_a_deep_term(self):
        assert connected_sum_identity(trivial_algebra(), genus_term(3000), genus_term(3))

    def test_spine_errors_name_the_innermost_factor(self):
        alg = trivial_algebra()
        with pytest.raises(ValueError, match=r"does not start with 'cap': pants"):
            connected_sum_identity(alg, Compose(Compose(Gen("pants"), Gen("cup")), Gen("cap")), genus_term(0))
        with pytest.raises(ValueError, match=r"does not end with 'cup': copants"):
            connected_sum_identity(alg, genus_term(0), Compose(Gen("cap"), Compose(Gen("cup"), Gen("copants"))))


def deep_signature_json(handles):
    sig = signature_to_json(bord2_signature())
    sig["relations"] = [
        {"name": "deep_sphere", "lhs": genus_text(handles), "rhs": "cap ; cup"},
        {"name": "torus", "lhs": genus_text(1), "rhs": "cap ; cup"},
    ]
    del sig["duality"]
    return sig


class TestDeepSignatures:
    def test_signature_with_a_deep_relation_side_loads_and_round_trips(self):
        obj = deep_signature_json(1500)
        sig = signature_from_json(obj)
        assert render_term(sig.g2[0].lhs) == genus_text(1500)
        assert len(sig.sides) == 3 and sig.side_pairs == ((0, 1), (2, 1))
        assert signature_to_json(sig) == obj
        assert signature_to_json(signature_from_json(json.loads(json.dumps(obj)))) == obj

    def test_relations_command_on_a_deep_signature(self, tmp_path, capsys):
        sig = tmp_path / "deep.json"
        sig.write_text(json.dumps(deep_signature_json(1500)))
        interp = tmp_path / "interp.json"
        # the one-dimensional algebra with handle operator 2: Z(genus g) = 2^g
        matrices = {"pants": [["1"]], "copants": [["2"]], "cap": [["1"]], "cup": [["1"]]}
        interp.write_text(json.dumps({"dims": {"S1": 1}, "matrices": matrices}))
        code = run(["relations", "--sig", str(sig), "--algebra", str(interp), "--json"])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        report = json.loads(out)
        assert [(r["name"], r["ok"]) for r in report["relations"]] == [("deep_sphere", False), ("torus", False)]
        assert report["relations"][0]["mismatch"]["lhs"] == str(2**1500)
        code = run(["relations", "--sig", str(sig), "--algebra", str(interp)])
        out, err = capsys.readouterr()
        assert code == 1 and err == "" and genus_text(1500) in out

    def test_relation_sides_are_indexed_by_term(self):
        sig = bord2_signature()
        # bord2 spells some sides twice as equal but distinct objects
        assert len(sig.sides) == 16 and len(set(sig.sides)) == 16
        texts = [render_term(side) for side in sig.sides]
        assert len(set(texts)) == 16
        for rel, (lhs, rhs) in zip(sig.g2, sig.side_pairs):
            assert (sig.sides[lhs], sig.sides[rhs]) == (rel.lhs, rel.rhs)
            assert (texts[lhs], texts[rhs]) == (render_term(rel.lhs), render_term(rel.rhs))


class TestBuiltOnce:
    def test_loop_value_parses_its_term_once(self, monkeypatch):
        calls = []
        real = dualpairs.parse_term

        def counting(text, sig):
            calls.append(text)
            return real(text, sig)

        pair = standard_pair(3)
        monkeypatch.setattr(dualpairs, "parse_term", counting)
        dualpairs.loop_term.cache_clear()
        assert loop_value(pair) == 3 and loop_value(pair) == 3
        assert len(calls) <= 1
        dualpairs.loop_term.cache_clear()

    def test_grothendieck_checks_the_algebra_laws_once(self, monkeypatch):
        calls = []
        real = frobenius._check_algebra

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(frobenius, "_check_algebra", counting)
        alg = grothendieck_frobenius(vec_z(4))
        assert calls == []
        pairing = frobenius.to_economy(alg)
        again = from_economy(alg.dim, alg.mu, alg.eta, pairing, alg.basis_names)
        assert len(calls) == 1 and again == alg

    def test_degenerate_pairing_is_worded_by_its_rank(self):
        alg = trivial_algebra()
        with pytest.raises(frobenius.PairingDegenerate, match="pairing has rank 0 < 1") as err:
            from_economy(1, alg.mu, alg.eta, BilinearPairing(1, Matrix.zeros(1, 1)))
        assert err.value.rank == 0


# --- source guard ----------------------------------------------------------


def source_faults(path):
    """``assert`` statements and functions that call themselves by name
    (``f(...)``, or ``self.f(...)``/``cls.f(...)`` in a method ``f``)."""
    faults = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assert):
            faults.append(f"{path.name}:{node.lineno}: assert statement")
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if (isinstance(f, ast.Name) and f.id == node.name) or (
                isinstance(f, ast.Attribute)
                and f.attr == node.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                faults.append(f"{path.name}:{call.lineno}: {node.name} calls itself")
                break
    return faults


def test_every_exported_name_resolves():
    modules = [tqftkit, *(importlib.import_module(f"tqftkit.{m.name}") for m in pkgutil.iter_modules([str(SRC)]))]
    missing = [f"{m.__name__}.{name}" for m in modules for name in m.__all__ if not hasattr(m, name)]
    assert len(modules) > 1 and missing == []


def test_source_has_no_assert_and_no_recursion():
    # post-conditions must survive python -O, and deep terms the recursion limit
    faults = [fault for path in sorted(SRC.glob("*.py")) for fault in source_faults(path)]
    assert faults == []


def test_source_guard_finds_asserts_and_self_calls(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def walk(t):\n    return walk(t.first)\n\n"
        "class C:\n    def describe(self, other):\n        assert other\n"
        "        other.describe()\n        return self.describe(other)\n"
    )
    assert sorted(source_faults(bad)) == [
        "bad.py:2: walk calls itself",
        "bad.py:6: assert statement",
        "bad.py:8: describe calls itself",
    ]
