"""Term language: type checking, parsing, rendering."""

import copy
import gc
import os
import pickle
import random
import re
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parser_signature, random_term
from tqftkit import terms
from tqftkit.surfaces import bord2_signature, genus_term
from tqftkit.terms import (
    Compose,
    ComposeMismatch,
    Gen,
    Id,
    LexicalError,
    ParseError,
    Relation,
    Signature,
    Swap,
    Tensor,
    TermError,
    UnknownGenerator,
    UnknownObject,
    parse_term,
    render_term,
    signature_from_json,
    signature_to_json,
    typecheck,
)


class TestTypecheck:
    def test_identity(self):
        sig = bord2_signature()
        assert typecheck(Id(("S1",)), sig) == (("S1",), ("S1",))

    def test_generator_endpoints(self):
        sig = bord2_signature()
        assert typecheck(Gen("pants"), sig) == (("S1", "S1"), ("S1",))

    def test_word_concatenation(self):
        sig = bord2_signature()
        t = Compose(Gen("cap"), Gen("copants"))
        assert typecheck(t, sig) == ((), ("S1", "S1"))

    def test_swap_endpoints(self):
        sig = parser_signature()
        t = Swap(("a", "b"), ("c",))
        assert typecheck(t, sig) == (("a", "b", "c"), ("c", "a", "b"))

    def test_unknown_generator_carries_path(self):
        sig = bord2_signature()
        with pytest.raises(UnknownGenerator) as err:
            typecheck(Tensor(Gen("pants"), Gen("trousers")), sig)
        assert err.value.name == "trousers"
        assert err.value.path == ("right",)

    def test_unknown_object(self):
        sig = bord2_signature()
        with pytest.raises(UnknownObject):
            typecheck(Id(("S2",)), sig)

    def test_compose_mismatch_carries_words_and_path(self):
        sig = bord2_signature()
        bad = Compose(Gen("pants"), Compose(Gen("pants"), Gen("cup")))
        with pytest.raises(ComposeMismatch) as err:
            typecheck(bad, sig)
        assert err.value.expected == ("S1",)
        assert err.value.found == ("S1", "S1")
        assert err.value.path == ()

    def test_deep_terms_need_no_recursion(self):
        sig = bord2_signature()
        chain = Gen("cap")
        for _ in range(5000):
            chain = Compose(chain, Compose(Gen("copants"), Gen("pants")))
        assert typecheck(Compose(chain, Gen("cup")), sig) == ((), ())
        wide = Id(("S1",))
        for _ in range(3000):
            wide = Tensor(Gen("cup"), wide)
        assert typecheck(wide, sig) == (("S1",) * 3001, ("S1",))

    def test_error_paths_in_deep_terms(self):
        sig = bord2_signature()
        deep = Gen("trousers")
        for _ in range(3000):
            deep = Compose(deep, Id(("S1",)))
        with pytest.raises(UnknownGenerator) as err:
            typecheck(deep, sig)
        assert err.value.path == ("first",) * 3000
        late = Compose(Compose(Gen("cap"), Gen("copants")), Id(("S2",)))
        with pytest.raises(UnknownObject) as err:
            typecheck(late, sig)
        assert err.value.path == ("then",)

    def test_shared_bad_subterm_fails_at_its_first_occurrence(self):
        sig = bord2_signature()
        bad = Compose(Gen("cup"), Gen("cap"))  # fine: S1 -> () -> S1
        mismatch = Compose(Gen("cap"), Gen("pants"))  # () -> S1 then S1,S1 -> S1
        t = Tensor(Compose(bad, Id(("S1",))), Tensor(mismatch, mismatch))
        with pytest.raises(ComposeMismatch) as err:
            typecheck(t, sig)
        assert err.value.path == ("right", "left")
        unknown = Gen("trousers")
        with pytest.raises(UnknownGenerator) as err:
            typecheck(Compose(unknown, unknown), sig)
        assert err.value.path == ("first",)

    def test_compositionality(self):
        # endpoints of a term depend only on endpoints of subterms
        sig = bord2_signature()
        sub_a = Compose(Gen("cap"), Gen("copants"))
        sub_b = Tensor(Gen("cap"), Gen("cap"))
        assert typecheck(sub_a, sig)[1] == typecheck(sub_b, sig)[1]
        wrap = lambda t: typecheck(Compose(t, Gen("pants")), sig)
        assert wrap(sub_a) == ((), ("S1",))
        assert wrap(sub_b) == ((), ("S1",))


def two_way_signatures():
    """``f ; g`` is a -> a in the first signature, b -> b in the third, and
    a composition mismatch in the second."""
    first = Signature("ab", {"f": (("a",), ("b",)), "g": (("b",), ("a",))})
    second = Signature("ab", {"f": (("a",), ("b",)), "g": (("a",), ("a",))})
    third = Signature("ab", {"f": (("b",), ("a",)), "g": (("a",), ("b",))})
    return first, second, third


class TestKeptTypes:
    """``typecheck`` keeps a term's type per signature object on the term."""

    def test_alternating_signatures_give_each_its_own_answer(self):
        first, second, third = two_way_signatures()
        t = Compose(Gen("f"), Gen("g"))
        for _ in range(3):
            assert typecheck(t, first) == (("a",), ("a",))
            with pytest.raises(ComposeMismatch) as err:
                typecheck(t, second)
            assert err.value.path == ()
            assert typecheck(t, third) == (("b",), ("b",))

    def test_failed_typecheck_keeps_nothing(self):
        first, second, _ = two_way_signatures()
        t = Compose(Gen("f"), Gen("g"))
        with pytest.raises(ComposeMismatch):
            typecheck(t, second)
        assert "_typed" not in vars(t) and t._typed is None
        assert typecheck(t, first) == (("a",), ("a",))
        kept = t._typed
        with pytest.raises(ComposeMismatch):
            typecheck(t, second)
        assert t._typed is kept

    def test_kept_type_changes_no_equality_hash_repr_or_pickle(self):
        sig = bord2_signature()
        t, twin = (Compose(Tensor(Gen("pants"), Id(("S1",))), Gen("pants")) for _ in range(2))
        text, digest = repr(t), hash(t)
        typecheck(t, sig)
        assert t._typed is not None and twin._typed is None
        assert t == twin and hash(t) == digest == hash(twin) and repr(t) == text
        copy = pickle.loads(pickle.dumps(t))
        assert copy == t and copy._typed is None
        assert typecheck(copy, sig) == typecheck(t, sig)

    def test_dropped_signature_is_freed_by_refcount(self):
        t = Compose(Gen("f"), Gen("g"))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sig = Signature(
                "ab",
                {"f": (("a",), ("b",)), "g": (("b",), ("a",)), "u": ((), ("a", "a")), "e": (("a", "a"), ())},
                [Relation("fg", t, Id(("a",)))],
                {"a": terms.DualityData(Gen("u"), Gen("e"))},
            )
            assert typecheck(t, sig) == (("a",), ("a",))
            dead = weakref.ref(sig)
            del sig
            assert dead() is None
        finally:
            if was_enabled:
                gc.enable()
        # the kept type names a dead signature, so a new one walks the term again
        with pytest.raises(ComposeMismatch):
            typecheck(t, two_way_signatures()[1])

    def test_second_typecheck_of_a_deep_term_walks_no_node(self, monkeypatch):
        sig = bord2_signature()
        t = genus_term(80000)
        walks = []
        real_fold = terms.fold
        monkeypatch.setattr(terms, "fold", lambda *args: walks.append(args[0]) or real_fold(*args))
        assert typecheck(t, sig) == ((), ())
        assert walks == [t]
        assert typecheck(t, sig) == ((), ())
        assert walks == [t]

    def test_reloading_the_package_keeps_no_old_term_classes(self):
        # a typing.Union of the term classes would sit in typing's global
        # cache and keep every reloaded copy of them alive
        script = (
            "import gc, importlib, sys\n"
            "for _ in range(3):\n"
            "    for name in [m for m in sys.modules if m.split('.')[0] == 'tqftkit']:\n"
            "        del sys.modules[name]\n"
            "    importlib.import_module('tqftkit')\n"
            "    for sub in ('cli', 'dualpairs', 'evaluate', 'frobenius', 'fusion', 'surfaces', 'terms'):\n"
            "        importlib.import_module('tqftkit.' + sub)\n"
            "gc.collect()\n"
            "print(sum(1 for o in gc.get_objects()\n"
            "          if isinstance(o, type) and o.__name__ == 'Gen' and o.__module__ == 'tqftkit.terms'))\n"
        )
        src = os.path.dirname(os.path.dirname(terms.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1\n"


# the DSL's tokens, names that bord2 does and does not know (one of them
# non-ASCII), and two characters the lexer does not accept
DSL_PIECES = [
    "cap", "cup", "pants", "copants", "S1", "T", "id", "swap", "id[", "swap[",
    "(", ")", "[", "]", ",", ";", "*", "1", " ", "_x", "$", "é", "2",
]


class TestParser:
    def test_simple_composition(self):
        sig = bord2_signature()
        assert parse_term("cap ; copants", sig) == Compose(Gen("cap"), Gen("copants"))

    def test_precedence(self):
        sig = bord2_signature()
        t = parse_term("(id[S1] * cap) ; pants", sig)
        assert t == Compose(Tensor(Id(("S1",)), Gen("cap")), Gen("pants"))

    def test_star_binds_tighter(self):
        sig = bord2_signature()
        t = parse_term("cap * cap ; pants", sig)
        assert t == Compose(Tensor(Gen("cap"), Gen("cap")), Gen("pants"))

    def test_swap_atom(self):
        sig = bord2_signature()
        t = parse_term("swap[S1,S1] ; pants", sig)
        assert t == Compose(Swap(("S1",), ("S1",)), Gen("pants"))

    def test_left_associative_chains(self):
        sig = bord2_signature()
        t = parse_term("cap ; copants ; pants ; cup", sig)
        assert t == Compose(
            Compose(Compose(Gen("cap"), Gen("copants")), Gen("pants")), Gen("cup")
        )

    def test_empty_word_literal(self):
        sig = bord2_signature()
        assert parse_term("id[1]", sig) == Id(())

    def test_multi_label_id_word(self):
        sig = parser_signature()
        assert parse_term("id[a,b,c]", sig) == Id(("a", "b", "c"))

    def test_parenthesized_swap_words(self):
        sig = parser_signature()
        assert parse_term("swap[(a,b),c]", sig) == Swap(("a", "b"), ("c",))
        assert parse_term("swap[1,a]", sig) == Swap((), ("a",))

    def test_whitespace_insignificant(self):
        sig = bord2_signature()
        assert parse_term("  cap;copants  ", sig) == parse_term("cap ; copants", sig)

    def test_lexical_error_offset(self):
        sig = bord2_signature()
        with pytest.raises(LexicalError) as err:
            parse_term("cap ; c@p", sig)
        assert err.value.offset == 7

    def test_parse_error_expected_set(self):
        sig = bord2_signature()
        with pytest.raises(ParseError) as err:
            parse_term("cap ; ; cup", sig)
        assert err.value.offset == 6
        assert "NAME" in err.value.expected

    def test_trailing_garbage(self):
        sig = bord2_signature()
        with pytest.raises(ParseError):
            parse_term("cap cup", sig)

    def test_unbalanced_paren(self):
        sig = bord2_signature()
        with pytest.raises(ParseError):
            parse_term("(cap ; cup", sig)

    ATOM = ("NAME", "'id['", "'swap['", "'('")
    AFTER_TERM = ("';'", "'*'", "end of input")

    @pytest.mark.parametrize(
        "text, offset, expected, found",
        [
            # where an atom is due
            ("", 0, ATOM, "end of input"),
            ("cap ; ; cup", 6, ATOM, "';'"),
            ("cap * )", 6, ATOM, "')'"),
            ("()", 1, ATOM, "')'"),
            ("id[S1] * (pants ; ", 18, ATOM, "end of input"),
            # after id and swap
            ("id cap", 3, ("[",), "'cap'"),
            ("id[S1", 5, ("]",), "end of input"),
            ("id[S1,", 6, ("NAME",), "end of input"),
            ("swap", 4, ("[",), "end of input"),
            ("swap[", 5, ("NAME",), "end of input"),
            # inside a swap word
            ("swap[S1 S1]", 8, (",",), "'S1'"),
            ("swap[(S1,S1", 11, (")",), "end of input"),
            ("swap[1,(S1 S1)]", 11, (")",), "'S1'"),
            # an unclosed parenthesis
            ("(cap", 4, (")",), "end of input"),
            ("((cap)", 6, (")",), "end of input"),
            ("(cap cup)", 5, (")",), "'cup'"),
            # trailing input
            ("cap cup", 4, AFTER_TERM, "'cup'"),
            ("cap )", 4, AFTER_TERM, "')'"),
            ("(cap))", 5, AFTER_TERM, "')'"),
        ],
    )
    def test_parse_error_positions(self, text, offset, expected, found):
        with pytest.raises(ParseError) as err:
            parse_term(text, bord2_signature())
        assert (err.value.offset, err.value.expected, err.value.found) == (offset, expected, found)

    # literal outcomes, so any change to an offset, path or message fails:
    # (text, exception type, offset, path, str) or (text, "ok", None, None, rendered)
    @pytest.mark.parametrize(
        "text, kind, offset, path, message",
        [
            ("cap ; c@p", "LexicalError", 7, None,
             "lexical error at offset 7: unexpected character '@'"),
            ("$", "LexicalError", 0, None, "lexical error at offset 0: unexpected character '$'"),
            ("cap ; 2", "LexicalError", 6, None,
             "lexical error at offset 6: unexpected character '2'"),
            ("é$", "LexicalError", 1, None, "lexical error at offset 1: unexpected character '$'"),
            ("id[S1] * cap ; #", "LexicalError", 15, None,
             "lexical error at offset 15: unexpected character '#'"),
            ("cap;\x00", "LexicalError", 4, None,
             "lexical error at offset 4: unexpected character '\\x00'"),
            ("cap\xa0;\xa0c!p", "LexicalError", 7, None,
             "lexical error at offset 7: unexpected character '!'"),
            ("(cap", "ParseError", 4, None,
             "parse error at offset 4: expected one of {)}, found end of input"),
            ("((cap)", "ParseError", 6, None,
             "parse error at offset 6: expected one of {)}, found end of input"),
            ("(cap ; cup", "ParseError", 10, None,
             "parse error at offset 10: expected one of {)}, found end of input"),
            ("cap)", "ParseError", 3, None,
             "parse error at offset 3: expected one of {';', '*', end of input}, found ')'"),
            (")", "ParseError", 0, None,
             "parse error at offset 0: expected one of {NAME, 'id[', 'swap[', '('}, found ')'"),
            ("(cap))", "ParseError", 5, None,
             "parse error at offset 5: expected one of {';', '*', end of input}, found ')'"),
            ("()", "ParseError", 1, None,
             "parse error at offset 1: expected one of {NAME, 'id[', 'swap[', '('}, found ')'"),
            ("(cap cup)", "ParseError", 5, None,
             "parse error at offset 5: expected one of {)}, found 'cup'"),
            ("(cap ; (cup", "ParseError", 11, None,
             "parse error at offset 11: expected one of {)}, found end of input"),
            ("id[]", "ParseError", 3, None,
             "parse error at offset 3: expected one of {NAME}, found ']'"),
            ("id[S1,]", "ParseError", 6, None,
             "parse error at offset 6: expected one of {NAME}, found ']'"),
            ("id[,S1]", "ParseError", 3, None,
             "parse error at offset 3: expected one of {NAME}, found ','"),
            ("id S1", "ParseError", 3, None,
             "parse error at offset 3: expected one of {[}, found 'S1'"),
            ("id", "ParseError", 2, None,
             "parse error at offset 2: expected one of {[}, found end of input"),
            ("id[S1", "ParseError", 5, None,
             "parse error at offset 5: expected one of {]}, found end of input"),
            ("id[1,S1]", "ParseError", 4, None,
             "parse error at offset 4: expected one of {]}, found ','"),
            ("id[(S1)]", "ParseError", 3, None,
             "parse error at offset 3: expected one of {NAME}, found '('"),
            ("swap[S1]", "ParseError", 7, None,
             "parse error at offset 7: expected one of {,}, found ']'"),
            ("swap[(S1,S1)", "ParseError", 12, None,
             "parse error at offset 12: expected one of {,}, found end of input"),
            ("swap[(S1,S1),S1", "ParseError", 15, None,
             "parse error at offset 15: expected one of {]}, found end of input"),
            ("swap[S1 S1]", "ParseError", 8, None,
             "parse error at offset 8: expected one of {,}, found 'S1'"),
            ("swap[]", "ParseError", 5, None,
             "parse error at offset 5: expected one of {NAME}, found ']'"),
            ("swap[(1),S1]", "ok", None, None, "swap[1,S1]"),
            ("swap[S1,S1,S1]", "ParseError", 10, None,
             "parse error at offset 10: expected one of {]}, found ','"),
            ("swap[(),S1]", "ParseError", 6, None,
             "parse error at offset 6: expected one of {NAME}, found ')'"),
            ("swap[((S1)),S1]", "ParseError", 6, None,
             "parse error at offset 6: expected one of {NAME}, found '('"),
            ("swap(S1,S1)", "ParseError", 4, None,
             "parse error at offset 4: expected one of {[}, found '('"),
            ("", "ParseError", 0, None,
             "parse error at offset 0: expected one of {NAME, 'id[', 'swap[', '('}, found end of input"),
            ("   ", "ParseError", 3, None,
             "parse error at offset 3: expected one of {NAME, 'id[', 'swap[', '('}, found end of input"),
            ("1", "ParseError", 0, None,
             "parse error at offset 0: expected one of {NAME, 'id[', 'swap[', '('}, found '1'"),
            ("cap ;", "ParseError", 5, None,
             "parse error at offset 5: expected one of {NAME, 'id[', 'swap[', '('}, found end of input"),
            ("cap *", "ParseError", 5, None,
             "parse error at offset 5: expected one of {NAME, 'id[', 'swap[', '('}, found end of input"),
            ("cap ; ; cup", "ParseError", 6, None,
             "parse error at offset 6: expected one of {NAME, 'id[', 'swap[', '('}, found ';'"),
            ("* cap", "ParseError", 0, None,
             "parse error at offset 0: expected one of {NAME, 'id[', 'swap[', '('}, found '*'"),
            ("; cap", "ParseError", 0, None,
             "parse error at offset 0: expected one of {NAME, 'id[', 'swap[', '('}, found ';'"),
            ("cap cup", "ParseError", 4, None,
             "parse error at offset 4: expected one of {';', '*', end of input}, found 'cup'"),
            ("cap * )", "ParseError", 6, None,
             "parse error at offset 6: expected one of {NAME, 'id[', 'swap[', '('}, found ')'"),
            ("é", "UnknownGenerator", None, (), "unknown generator 'é' at term"),
            ("cap ; kapé", "UnknownGenerator", None, ("then",),
             "unknown generator 'kapé' at term.then"),
            ("ñ ; $", "LexicalError", 4, None,
             "lexical error at offset 4: unexpected character '$'"),
            ("id[Ω]", "UnknownObject", None, (), "unknown object label 'Ω' at term"),
            ("cap * ü(", "ParseError", 7, None,
             "parse error at offset 7: expected one of {';', '*', end of input}, found '('"),
            ("pants ; pants", "ComposeMismatch", None, (),
             "composition mismatch at term: first factor ends at (S1) but second starts at (S1,S1)"),
            ("cap * trousers", "UnknownGenerator", None, ("right",),
             "unknown generator 'trousers' at term.right"),
            ("swap[S1,T]", "UnknownObject", None, (), "unknown object label 'T' at term"),
        ],
    )
    def test_front_end_outcomes_are_pinned(self, text, kind, offset, path, message):
        try:
            found = ("ok", None, None, render_term(parse_term(text, bord2_signature())))
        except TermError as exc:
            where = getattr(exc, "offset", None), getattr(exc, "path", None)
            found = (type(exc).__name__, *where, str(exc))
        assert found == (kind, offset, path, message)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.text(max_size=30),
            st.lists(st.sampled_from(DSL_PIECES), max_size=16).map("".join),
        )
    )
    def test_random_text_reads_back_or_fails_at_an_offset(self, text):
        sig = bord2_signature()
        try:
            t = terms._parse(text)
        except (LexicalError, ParseError) as exc:
            assert 0 <= exc.offset <= len(text)
            return
        assert terms._parse(render_term(t)) == t
        try:
            typecheck(t, sig)
        except (UnknownGenerator, UnknownObject, ComposeMismatch):
            return
        assert parse_term(render_term(t), sig) == t

    def test_deep_parentheses_need_no_recursion(self):
        sig = bord2_signature()
        assert parse_term("(" * 3000 + "cap" + ")" * 3000, sig) == Gen("cap")
        nested = "(" * 3000 + "cap ; (copants" + ")" * 3000 + " * cap) ; (pants * id[S1])"
        assert render_term(parse_term(nested, sig)) == "(cap ; copants) * cap ; pants * id[S1]"

    def test_post_parse_typecheck(self):
        sig = bord2_signature()
        with pytest.raises(ComposeMismatch):
            parse_term("pants ; pants", sig)
        with pytest.raises(UnknownGenerator):
            parse_term("trousers", sig)


class TestRoundTrip:
    def test_round_trip_on_generated_terms(self):
        rng = random.Random(20240601)
        for sig in (bord2_signature(), parser_signature()):
            for _ in range(500):
                t = random_term(rng, sig, rng.randint(1, 6))
                twin = parse_term(render_term(t), sig)
                assert twin == t and hash(twin) == hash(t)

    def test_nesting_needs_parens(self):
        sig = bord2_signature()
        left = Compose(Compose(Gen("cap"), Gen("copants")), Gen("pants"))
        right = Compose(Gen("cap"), Compose(Gen("copants"), Gen("pants")))
        assert render_term(left) != render_term(right)
        assert parse_term(render_term(right), sig) == right


class TestEquality:
    def test_kind_and_fields_decide_equality(self):
        a, b = Gen("a"), Gen("b")
        unequal = [
            (Compose(a, b), Tensor(a, b)),
            (Gen("a"), Id(("a",))),
            (Swap(("a",), ()), Swap((), ("a",))),
            (Tensor(Tensor(a, b), a), Tensor(a, Tensor(b, a))),
            (Compose(a, b), Compose(b, a)),
        ]
        for left, right in unequal:
            assert left != right and not left == right
        assert Gen("a") != "a" and Id(()) != ()
        assert len({Gen("a"), Gen("a"), Id(("a",)), Compose(Gen("a"), Gen("a"))}) == 3


class TestSignature:
    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            Signature(["a"], {"id": (("a",), ("a",))})

    def test_clash_with_objects_rejected(self):
        with pytest.raises(ValueError):
            Signature(["a"], {"a": (("a",), ("a",))})

    def test_relation_endpoints_must_match(self):
        sig = Signature(["a"], {"f": (("a",), ("a", "a"))})
        with pytest.raises(ValueError):
            Signature(
                ["a"],
                {"f": (("a",), ("a", "a"))},
                [Relation("bad", Gen("f"), Id(("a",)))],
            )

    def test_repr_counts_what_it_declares(self):
        assert repr(bord2_signature()) == (
            "Signature(objects=['S1'], generators=['pants', 'copants', 'cap', 'cup'], relations=11)"
        )

    def test_shipped_signatures_relations_typecheck(self):
        for sig in (bord2_signature(),):
            for rel in sig.g2:
                assert typecheck(rel.lhs, sig) == typecheck(rel.rhs, sig)

    def test_json_round_trip(self):
        sig = bord2_signature()
        obj = signature_to_json(sig)
        back = signature_from_json(obj)
        assert back.g0 == sig.g0
        assert back.g1 == sig.g1
        assert [(r.name, r.lhs, r.rhs) for r in back.g2] == [
            (r.name, r.lhs, r.rhs) for r in sig.g2
        ]
        assert back.duality.keys() == sig.duality.keys()
        assert back.duality["S1"].coev == sig.duality["S1"].coev

    def test_generators_and_duality_are_read_only(self):
        # a write would leave the types kept on terms stale
        sig = Signature(["x"], {"f": (("x",), ("x", "x"))})
        f = Gen("f")
        assert typecheck(f, sig) == (("x",), ("x", "x"))
        with pytest.raises(TypeError):
            sig.g1["f"] = (("x",), ("x",))
        bord2 = bord2_signature()
        with pytest.raises(TypeError):
            bord2.duality["S1"] = bord2.duality["S1"]
        assert typecheck(f, sig) == typecheck(parse_term("f", sig), sig) == (("x",), ("x", "x"))

    def test_attributes_cannot_be_rebound(self):
        # a rebound g1 left the type kept on f stale while a fresh parse saw the new one
        sig = Signature(["x"], {"f": (("x",), ("x", "x"))})
        f = Gen("f")
        assert typecheck(f, sig) == (("x",), ("x", "x"))
        for name, value in [("g1", {"f": (("x",), ("x",))}), ("g0", ("x", "y")), ("g2", ()), ("duality", {}),
                            ("sides", ()), ("side_pairs", ()), ("new", 1)]:
            with pytest.raises(AttributeError, match="^Signature is immutable$"):
                setattr(sig, name, value)
        assert typecheck(f, sig) == typecheck(parse_term("f", sig), sig) == (("x",), ("x", "x"))
        assert not hasattr(sig, "new")

    @pytest.mark.parametrize("name", [1, None, ["r"], b"r"])
    def test_relation_name_must_be_a_string(self, name):
        f = Gen("f")
        with pytest.raises(ValueError, match=f"^relation 1 name must be a string, got {re.escape(repr(name))}$"):
            Signature(["x"], {"f": (("x",), ("x",))}, [Relation("ok", f, f), Relation(name, f, f)])

    def test_pickle_and_copy_rebuild_the_signature(self):
        sig = bord2_signature()
        term = parse_term("cap * id[S1] ; pants ; cup", sig)
        for twin in (pickle.loads(pickle.dumps(sig)), copy.deepcopy(sig)):
            assert twin is not sig
            assert (twin.g0, twin.g1, twin.g2, twin.duality) == (sig.g0, sig.g1, sig.g2, sig.duality)
            assert (twin.sides, twin.side_pairs) == (sig.sides, sig.side_pairs)
            assert typecheck(term, twin) == typecheck(term, sig) == (("S1",), ())
            with pytest.raises(TypeError):
                twin.g1["cap"] = ((), ())

    def test_duality_shape_validated(self):
        from tqftkit.terms import DualityData

        sig0 = Signature(["a"], {"u": ((), ("a",))})
        with pytest.raises(ValueError):
            Signature(
                ["a"],
                {"u": ((), ("a",))},
                duality={"a": DualityData(Gen("u"), Gen("u"))},
            )
