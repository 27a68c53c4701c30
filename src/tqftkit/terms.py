"""Signatures and morphism terms for free symmetric monoidal categories.

A signature consists of object generators (``g0``), typed morphism
generators (``g1``) whose endpoints are words over ``g0``, and relation
pairs (``g2``).  Terms denote morphisms and are built from generators,
identities, swaps, composition and tensoring.

The textual DSL::

    term    := factor (";" factor)*
    factor  := atom ("*" atom)*
    atom    := NAME | "id[" objword "]" | "swap[" swapword "," swapword "]"
             | "(" term ")"
    objword := "1" | NAME ("," NAME)*
    swapword:= "1" | NAME | "(" objword ")"

``t1 ; t2`` is diagrammatic composition (t1 first), ``*`` is the tensor
product and binds tighter than ``;``, ``1`` is the empty word, and
whitespace is insignificant.  Swap arguments of more than one label must
be parenthesized, since bare commas already separate the two arguments;
single-label swaps look like ``swap[S1,S1]``.

Parsing costs memory per node, not per token: the lexer's tokens are the
strings of one ``re.findall``, an offset is found again only for an
error, equal leaves of one text are one object, and the tokens are
dropped before the top level's chain is built.  Term nodes are slotted
and immutable, so a composition or tensor costs its two factor slots and
its kept type.

Typing, evaluating, rendering (so printing), comparing, hashing and
pickling extend values on the leaves (generators, identities, swaps)
along tensors and compositions, each by one ``fold``: a depth-first,
left-to-right, post-order walk from an explicit stack, so term depth is
bounded by memory, not by the recursion limit.  Leaves come in reading
order and a node right after its second factor; error paths name the
first offending subterm in this order.  Rendering records per leaf its
text, separator and parentheses and joins them once, in time linear in
the text's length.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from types import MappingProxyType
from typing import Mapping, Sequence

from .exactlin import array_from_json, object_from_json

ObjectWord = tuple[str, ...]

RESERVED = ("id", "swap")

__all__ = [
    "Compose",
    "ComposeMismatch",
    "DualityData",
    "Gen",
    "Id",
    "LexicalError",
    "ObjectWord",
    "ParseError",
    "Relation",
    "Signature",
    "Swap",
    "Tensor",
    "Term",
    "TermError",
    "UnknownGenerator",
    "UnknownObject",
    "fold",
    "parse_term",
    "render_term",
    "render_word",
    "signature_from_json",
    "signature_to_json",
    "typecheck",
]


class TermError(Exception):
    """Base class for term-language errors."""


class UnknownGenerator(TermError):
    def __init__(self, name: str, path: tuple[str, ...] = ()):
        self.name = name
        self.path = path
        super().__init__(f"unknown generator {name!r} at {_fmt_path(path)}")


class UnknownObject(TermError):
    def __init__(self, label: str, path: tuple[str, ...] = ()):
        self.label = label
        self.path = path
        super().__init__(f"unknown object label {label!r} at {_fmt_path(path)}")


class ComposeMismatch(TermError):
    def __init__(self, expected: ObjectWord, found: ObjectWord, path: tuple[str, ...]):
        self.expected = expected
        self.found = found
        self.path = path
        super().__init__(
            f"composition mismatch at {_fmt_path(path)}: first factor ends at "
            f"({render_word(expected)}) but second starts at ({render_word(found)})"
        )


class LexicalError(TermError):
    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"lexical error at offset {offset}: {message}")


class ParseError(TermError):
    def __init__(self, offset: int, expected: Sequence[str], found: str):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        exp = ", ".join(self.expected)
        super().__init__(
            f"parse error at offset {offset}: expected one of {{{exp}}}, found {found}"
        )


def _fmt_path(path: tuple[str, ...]) -> str:
    return "term" + "".join("." + p for p in path)


class _Node:
    """Base of the term classes: slotted (no ``__dict__``), immutable, and
    equal when their structure is.  ``==``, ``hash``, pickling and copying
    read ``_key``, built by one ``fold``, and ``repr`` the rendered text,
    so none of them recurses.

    ``_typed`` is ``None`` or ``(weak reference to a signature, (source,
    target))``, stored by the last successful ``typecheck`` of this node as
    a root.  It takes no part in ``==``, ``hash``, ``repr`` or pickling.
    """

    __slots__ = ("_typed",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        return self is other or (type(self) is type(other) and _key(self) == _key(other))

    def __hash__(self) -> int:
        return hash(_key(self))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {render_term(self)}>"

    def __reduce__(self):
        return _from_key, (_key(self),)


class Gen(_Node):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        _set_typed(self, None)
        _set_gen_name(self, name)


class Id(_Node):
    __slots__ = __match_args__ = ("word",)

    def __init__(self, word: ObjectWord):
        _set_typed(self, None)
        _set_id_word(self, word)


class Swap(_Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: ObjectWord, right: ObjectWord):
        _set_typed(self, None)
        _set_swap_left(self, left)
        _set_swap_right(self, right)


class Compose(_Node):
    """Diagrammatic composite: ``first`` then ``then``."""

    __slots__ = __match_args__ = ("first", "then")

    def __init__(self, first: "Term", then: "Term"):
        _set_typed(self, None)
        _set_compose_first(self, first)
        _set_compose_then(self, then)


class Tensor(_Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: "Term", right: "Term"):
        _set_typed(self, None)
        _set_tensor_left(self, left)
        _set_tensor_right(self, right)


# the slots' own setters, which the blocked __setattr__ leaves usable
_set_typed = _Node._typed.__set__
_set_gen_name = Gen.name.__set__
_set_id_word = Id.word.__set__
_set_swap_left, _set_swap_right = Swap.left.__set__, Swap.right.__set__
_set_compose_first, _set_compose_then = Compose.first.__set__, Compose.then.__set__
_set_tensor_left, _set_tensor_right = Tensor.left.__set__, Tensor.right.__set__

# a union object, not typing.Union, whose global cache would keep every
# reloaded copy of these classes (and this module's globals) alive
Term = Gen | Id | Swap | Compose | Tensor
_FACTORS = {Compose: ("first", "then"), Tensor: ("left", "right")}  # path steps


@dataclass(frozen=True)
class Relation:
    name: str
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class DualityData:
    """Designated coevaluation ``() -> (x,x)`` and pairing ``(x,x) -> ()``."""

    coev: Term
    pairing: Term


class Signature:
    """Object generators, typed morphism generators, and relations.

    Validates at construction: name hygiene (generator names distinct
    from object names and from the reserved words ``id`` and ``swap``),
    that every relation side type-checks with identical endpoints, and
    that any designated duality terms have the shapes ``() -> (x, x)``
    and ``(x, x) -> ()``, and that relation names are strings.  No
    attribute can be set after construction and ``g1`` and ``duality``
    are read-only views, so a signature is never changed.  ``sides`` lists the
    distinct relation sides (by ``==``) in first-seen order and
    ``side_pairs[k]`` the indices of relation k's two sides in it, so an
    evaluator need never hash a term.
    """

    def __init__(
        self,
        g0: Sequence[str],
        g1: Mapping[str, tuple[ObjectWord, ObjectWord]],
        g2: Sequence[Relation] = (),
        duality: Mapping[str, DualityData] | None = None,
    ):
        fields = vars(self)  # written here and in _validate, as __setattr__ is blocked
        fields["g0"] = tuple(g0)
        fields["g1"] = MappingProxyType({name: (tuple(src), tuple(tgt)) for name, (src, tgt) in g1.items()})
        fields["g2"] = tuple(g2)
        fields["duality"] = MappingProxyType(dict(duality or {}))
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("Signature is immutable")

    def __reduce__(self):
        # pickle and deepcopy rebuild from the generators, relations and duality
        return Signature, (self.g0, dict(self.g1), self.g2, dict(self.duality))

    def _validate(self) -> None:
        seen = set()
        for label in self.g0:
            _check_name(label)
            if label in seen:
                raise ValueError(f"duplicate object name {label!r}")
            seen.add(label)
        for name, (src, tgt) in self.g1.items():
            _check_name(name)
            if name in seen:
                raise ValueError(f"generator name {name!r} clashes with another name")
            seen.add(name)
            for label in src + tgt:
                if label not in self.g0:
                    raise UnknownObject(label)
        index: dict[Term, int] = {}
        pairs = []
        for k, rel in enumerate(self.g2):
            if type(rel.name) is not str:
                raise ValueError(f"relation {k} name must be a string, got {rel.name!r}")
            ls, lt = typecheck(rel.lhs, self)
            rs, rt = typecheck(rel.rhs, self)
            if (ls, lt) != (rs, rt):
                raise ValueError(
                    f"relation {rel.name!r} endpoints differ: "
                    f"({render_word(ls)})->({render_word(lt)}) vs "
                    f"({render_word(rs)})->({render_word(rt)})"
                )
            pairs.append(tuple(index.setdefault(side, len(index)) for side in (rel.lhs, rel.rhs)))
        vars(self)["sides"] = tuple(index)  # a dict keeps insertion order
        vars(self)["side_pairs"] = tuple(pairs)
        for label, data in self.duality.items():
            if label not in self.g0:
                raise UnknownObject(label)
            cs, ct = typecheck(data.coev, self)
            ps, pt = typecheck(data.pairing, self)
            if cs != () or ct != (label, label):
                raise ValueError(f"coevaluation for {label!r} must be () -> ({label},{label})")
            if ps != (label, label) or pt != ():
                raise ValueError(f"pairing for {label!r} must be ({label},{label}) -> ()")

    def __repr__(self) -> str:
        return (
            f"Signature(objects={list(self.g0)}, generators={list(self.g1)}, "
            f"relations={len(self.g2)})"
        )


def _check_name(name: str) -> None:
    if type(name) is not str or not name or not (name[0].isalpha() or name[0] == "_"):
        raise ValueError(f"invalid name {name!r}")
    if not all(ch.isalnum() or ch == "_" for ch in name):
        raise ValueError(f"invalid name {name!r}")
    if name in RESERVED:
        raise ValueError(f"{name!r} is reserved")


# stack marker: the two factors of the term below it are done
_COMBINE = object()


def fold(t: Term, leaf, combine, ctx):
    """The value of ``t``: ``leaf(node, ctx)`` at each generator, identity
    and swap, ``combine(node, first, second, ctx)`` at each composition and
    tensor on its factors' values, in the module docstring's walk order.
    Any other node is no term: TypeError, before ``leaf`` sees it."""
    values = []  # values of finished subterms, in post-order
    stack: list = [t]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Compose:
            stack += (node, _COMBINE, node.then, node.first)
        elif kind is Tensor:
            stack += (node, _COMBINE, node.right, node.left)
        elif node is _COMBINE:
            second = values.pop()
            values[-1] = combine(stack.pop(), values[-1], second, ctx)
        elif kind is Gen or kind is Id or kind is Swap:
            values.append(leaf(node, ctx))
        else:
            raise TypeError(f"not a term: {node!r}")
    return values[0]


def _key(t: Term) -> tuple:
    """``t`` as a flat tuple in walk order of each leaf's kind and fields and
    each node's kind, which determines ``t``, as the arities are known."""
    key: list = []
    fold(t, _key_leaf, lambda node, first, second, out: out.append(type(node)), key)
    return tuple(key)


def _from_key(key: tuple) -> Term:
    """The term whose ``_key`` is ``key``, rebuilt from an explicit stack."""
    built: list = []
    for item in key:
        if type(item) is tuple:
            built.append(item[0](*item[1:]))
        else:
            second = built.pop()
            built[-1] = item(built[-1], second)
    return built[0]


def _key_leaf(t: Term, key: list) -> None:
    kind = type(t)
    key.append((kind, *[getattr(t, name) for name in kind.__match_args__]))  # its fields


def typecheck(t: Term, sig: Signature) -> tuple[ObjectWord, ObjectWord]:
    """Source and target of a term, or a typed error with the path to the
    first offending subterm in walk order.

    The answer is kept on ``t`` with a weak reference to ``sig``, so
    typechecking ``t`` against the same signature object again walks no
    node; another signature, or a dropped one, walks the term afresh.
    A failing typecheck keeps nothing.  A signature is never changed
    after construction, which is what makes the kept answer valid.
    """
    try:
        typed = t._typed
    except AttributeError:  # no term, which fold refuses
        typed = None
    if typed is not None and typed[0]() is sig:
        return typed[1]
    types = fold(t, _type_leaf, _type_combine, (sig, t))
    _set_typed(t, (weakref.ref(sig), types))
    return types


def _type_leaf(node: Term, ctx) -> tuple[ObjectWord, ObjectWord]:
    sig, root = ctx
    kind = type(node)
    if kind is Gen:
        typed = sig.g1.get(node.name)
        if typed is None:
            raise UnknownGenerator(node.name, _path_to(root, node))
        return typed
    if kind is Id:
        typed = node.word, node.word
    else:
        typed = node.left + node.right, node.right + node.left
    for label in typed[0]:
        if label not in sig.g0:
            raise UnknownObject(label, _path_to(root, node))
    return typed


def _type_combine(node: Term, first, second, ctx) -> tuple[ObjectWord, ObjectWord]:
    (src1, tgt1), (src2, tgt2) = first, second
    if type(node) is Tensor:
        return src1 + src2, tgt1 + tgt2
    if tgt1 != src2:
        raise ComposeMismatch(tgt1, src2, _path_to(ctx[1], node))
    return src1, tgt2


def _path_to(root: Term, node: Term) -> tuple[str, ...]:
    """Path from ``root`` to the first occurrence of the subterm object
    ``node`` in walk order."""
    return tuple(reversed(fold(root, _path_leaf, _path_combine, node)))


def _path_leaf(t: Term, node: Term) -> list[str] | None:
    # a subterm's value: None, or the steps from it down to node, last first
    return [] if t is node else None


def _path_combine(t: Term, first, second, node: Term) -> list[str] | None:
    if t is node:
        return []
    steps = first if first is not None else second
    if steps is not None:
        steps.append(_FACTORS[type(t)][first is None])
    return steps


# --- lexer -----------------------------------------------------------------

# a token is a punctuation mark, the empty word "1", a name, or any other
# character that is no space, which _lex refuses; "" ends the list
_TOKEN = re.compile(r"[;*()\[\],1]|[^\W\d]\w*|\S")
_SYMBOLS = frozenset([";", "*", "(", ")", "[", "]", ",", "1", ""])  # the tokens that are no name


def _lex(text: str) -> list[str]:
    """The tokens of ``text`` as strings, then ``""`` for the end; raises
    LexicalError at the first character that starts no token.  A name
    starts with a letter or "_"; the pattern's first name character also
    admits numerals such as "²", so this checks ``str.isalpha``, once per
    distinct token."""
    tokens = _TOKEN.findall(text)
    bad = {tok for tok in set(tokens) - _SYMBOLS if not (tok[0].isalpha() or tok[0] == "_")}
    if bad:
        pos = next(pos for pos, tok in enumerate(tokens) if tok in bad)
        raise LexicalError(_offset(text, pos), f"unexpected character {tokens[pos][0]!r}")
    tokens.append("")
    return tokens


def _offset(text: str, pos: int) -> int:
    """The offset of token ``pos`` of ``text``, found afresh: tokens keep none."""
    found = next(islice(_TOKEN.finditer(text), pos, None), None)
    return len(text) if found is None else found.start()


def _parse_error(text: str, tokens: list[str], pos: int, expected: Sequence[str]) -> ParseError:
    tok = tokens[pos]
    return ParseError(_offset(text, pos), expected, repr(tok) if tok else "end of input")


def _expect(text: str, tokens: list[str], pos: int, tok: str) -> int:
    """The position after ``tokens[pos]``, which must be ``tok``."""
    if tokens[pos] != tok:
        raise _parse_error(text, tokens, pos, (tok,))
    return pos + 1


def _word(text: str, tokens: list[str], pos: int) -> tuple[ObjectWord, int]:
    """The objword at ``pos`` and the position after it."""
    if tokens[pos] == "1":
        return (), pos + 1
    start = pos
    while True:
        if tokens[pos] in _SYMBOLS:
            raise _parse_error(text, tokens, pos, ("NAME",))
        if tokens[pos + 1] != ",":
            return tuple(tokens[start:pos + 1:2]), pos + 1  # the labels between the commas
        pos += 2


def _swapword(text: str, tokens: list[str], pos: int) -> tuple[ObjectWord, int]:
    """The swapword at ``pos`` and the position after it."""
    tok = tokens[pos]
    if tok == "(":
        word, pos = _word(text, tokens, pos + 1)
        return word, _expect(text, tokens, pos, ")")
    if tok == "1":
        return (), pos + 1
    if tok in _SYMBOLS:
        raise _parse_error(text, tokens, pos, ("NAME",))
    return (tok,), pos + 1


def _parse(text: str) -> Term:
    """The term ``text`` denotes, without recursion: precedence climbing on
    explicit stacks, per open parenthesis the ';' operands and the '*'
    operands of the last.  Equal leaves are one object."""
    tokens = _lex(text)
    leaves: dict = {}  # per name its Gen, per (Id, word) and (Swap, left, right) its leaf
    pos = 0
    levels: list[tuple[list, list]] = [([], [])]
    while True:
        tok = tokens[pos]
        while tok == "(":
            levels.append(([], []))
            pos += 1
            tok = tokens[pos]
        if tok in _SYMBOLS:
            raise _parse_error(text, tokens, pos, ("NAME", "'id['", "'swap['", "'('"))
        pos += 1
        if tok == "id":
            word, pos = _word(text, tokens, _expect(text, tokens, pos, "["))
            pos = _expect(text, tokens, pos, "]")
            key = Id, word
            atom = leaves.get(key)
            if atom is None:
                atom = leaves[key] = Id(word)
        elif tok == "swap":
            left, pos = _swapword(text, tokens, _expect(text, tokens, pos, "["))
            right, pos = _swapword(text, tokens, _expect(text, tokens, pos, ","))
            pos = _expect(text, tokens, pos, "]")
            key = Swap, left, right
            atom = leaves.get(key)
            if atom is None:
                atom = leaves[key] = Swap(left, right)
        else:
            atom = leaves.get(tok)
            if atom is None:
                atom = leaves[tok] = Gen(tok)
        levels[-1][1].append(atom)
        tok = tokens[pos]
        while tok == ")" and len(levels) > 1:
            inner = _bracket_term(*levels.pop())
            levels[-1][1].append(inner)
            pos += 1
            tok = tokens[pos]
        if tok == ";":
            composed, tensored = levels[-1]
            composed.append(reduce(Tensor, tensored))
            tensored.clear()
        elif tok != "*":
            break
        pos += 1
    if len(levels) > 1:
        raise _parse_error(text, tokens, pos, (")",))
    if tok:
        raise _parse_error(text, tokens, pos, ("';'", "'*'", "end of input"))
    del tokens  # the top level's chain is most of a long term: build it without them
    return _bracket_term(*levels[0])


def _bracket_term(composed: list, tensored: list) -> Term:
    return reduce(Compose, composed + [reduce(Tensor, tensored)])


def parse_term(text: str, sig: Signature) -> Term:
    """Parse a DSL term and type-check it against ``sig``, which keeps its type."""
    if type(text) is not str:
        raise TypeError(f"term text must be a string, got {type(text).__name__}")
    t = _parse(text)
    typecheck(t, sig)
    return t


# --- rendering -------------------------------------------------------------


def render_word(word: ObjectWord) -> str:
    return "1" if not word else ",".join(word)


def _render_swapword(word: ObjectWord) -> str:
    return f"({render_word(word)})" if len(word) > 1 else render_word(word)


def render_term(t: Term) -> str:
    """Canonical text of ``t``, in linear time; ``parse_term`` reads ``t`` back."""
    pieces: list[list] = []  # per leaf, in reading order: [separator, opens, text, closes]
    fold(t, _render_leaf, _render_combine, pieces)
    return "".join([sep + "(" * opens + text + ")" * closes for sep, opens, text, closes in pieces])


def _render_leaf(t: Term, pieces: list) -> int:
    # a subterm's value is the index of its first leaf's piece
    kind = type(t)
    if kind is Gen:
        text = t.name
    elif kind is Id:
        text = f"id[{render_word(t.word)}]"
    else:
        text = f"swap[{_render_swapword(t.left)},{_render_swapword(t.right)}]"
    pieces.append(["", 0, text, 0])
    return len(pieces) - 1


def _render_combine(t: Term, start: int, middle: int, pieces: list) -> int:
    # parenthesize a composition inside a tensor, and a second factor that
    # binds as loosely as t (both operators associate to the left)
    if type(t) is Compose:
        pieces[middle][0] = " ; "
        wrap_second = type(t.then) is Compose
    else:
        pieces[middle][0] = " * "
        if type(t.left) is Compose:
            pieces[start][1] += 1
            pieces[middle - 1][3] += 1
        wrap_second = type(t.right) in (Compose, Tensor)
    if wrap_second:
        pieces[middle][1] += 1
        pieces[-1][3] += 1
    return start


# --- signature JSON --------------------------------------------------------


def signature_to_json(sig: Signature) -> dict:
    obj = {
        "objects": list(sig.g0),
        "generators": {
            name: {"src": list(src), "tgt": list(tgt)}
            for name, (src, tgt) in sig.g1.items()
        },
        "relations": [
            {"name": rel.name, "lhs": render_term(rel.lhs), "rhs": render_term(rel.rhs)}
            for rel in sig.g2
        ],
    }
    if sig.duality:
        obj["duality"] = {
            label: {
                "coev": render_term(data.coev),
                "pairing": render_term(data.pairing),
            }
            for label, data in sig.duality.items()
        }
    return obj


def signature_from_json(obj: dict) -> Signature:
    try:
        obj = object_from_json(obj, "top level")
        g0 = array_from_json(obj["objects"], "objects")
        g1 = {}
        for name, spec in object_from_json(obj["generators"], "generators").items():
            spec = object_from_json(spec, f"generator {name!r}")
            g1[name] = tuple(array_from_json(spec["src"], "src")), tuple(array_from_json(spec["tgt"], "tgt"))
        sig = Signature(g0, g1)
        relations = []
        for k, rel in enumerate(array_from_json(obj.get("relations", []), "relations")):
            rel = object_from_json(rel, f"relation {k}")
            lhs, rhs = parse_term(rel["lhs"], sig), parse_term(rel["rhs"], sig)
            relations.append(Relation(rel.get("name", f"relation{k}"), lhs, rhs))
        duality = {}
        for label, spec in object_from_json(obj.get("duality", {}), "duality").items():
            spec = object_from_json(spec, f"duality {label!r}")
            duality[label] = DualityData(parse_term(spec["coev"], sig), parse_term(spec["pairing"], sig))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed signature JSON: {exc}") from exc
    return Signature(g0, g1, relations, duality)
