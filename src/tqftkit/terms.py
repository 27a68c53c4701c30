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
    swapword:= "1" | NAME | "(" NAME ("," NAME)* ")"

``t1 ; t2`` is diagrammatic composition (t1 first), ``*`` is the tensor
product and binds tighter than ``;``, ``1`` is the empty word, and
whitespace is insignificant.  Swap arguments of more than one label must
be parenthesized, since bare commas already separate the two arguments;
single-label swaps look like ``swap[S1,S1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence, Union

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


@dataclass(frozen=True)
class Gen:
    name: str


@dataclass(frozen=True)
class Id:
    word: ObjectWord


@dataclass(frozen=True)
class Swap:
    left: ObjectWord
    right: ObjectWord


@dataclass(frozen=True)
class Compose:
    """Diagrammatic composite: ``first`` then ``then``."""

    first: "Term"
    then: "Term"


@dataclass(frozen=True)
class Tensor:
    left: "Term"
    right: "Term"


Term = Union[Gen, Id, Swap, Compose, Tensor]


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
    and ``(x, x) -> ()``.  ``sides`` lists the distinct relation sides
    in first-seen order and ``side_pairs[k]`` the indices of relation
    k's two sides in it, so an evaluator need never hash a term.
    """

    def __init__(
        self,
        g0: Sequence[str],
        g1: Mapping[str, tuple[ObjectWord, ObjectWord]],
        g2: Sequence[Relation] = (),
        duality: Mapping[str, DualityData] | None = None,
    ):
        self.g0: tuple[str, ...] = tuple(g0)
        self.g1: dict[str, tuple[ObjectWord, ObjectWord]] = {
            name: (tuple(src), tuple(tgt)) for name, (src, tgt) in g1.items()
        }
        self.g2: tuple[Relation, ...] = tuple(g2)
        self.duality: dict[str, DualityData] = dict(duality or {})
        self._validate()

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
            for w in (src, tgt):
                for label in w:
                    if label not in self.g0:
                        raise UnknownObject(label)
        index: dict[Term, int] = {}
        pairs = []
        for rel in self.g2:
            ls, lt = typecheck(rel.lhs, self)
            rs, rt = typecheck(rel.rhs, self)
            if (ls, lt) != (rs, rt):
                raise ValueError(
                    f"relation {rel.name!r} endpoints differ: "
                    f"({render_word(ls)})->({render_word(lt)}) vs "
                    f"({render_word(rs)})->({render_word(rt)})"
                )
            pairs.append((index.setdefault(rel.lhs, len(index)), index.setdefault(rel.rhs, len(index))))
        self.sides: tuple[Term, ...] = tuple(index)
        self.side_pairs: tuple[tuple[int, int], ...] = tuple(pairs)
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
    if not name or not (name[0].isalpha() or name[0] == "_"):
        raise ValueError(f"invalid name {name!r}")
    if not all(ch.isalnum() or ch == "_" for ch in name):
        raise ValueError(f"invalid name {name!r}")
    if name in RESERVED:
        raise ValueError(f"{name!r} is reserved")


# stack marker: the two factors of the term below it are done
_COMBINE = object()


def typecheck(t: Term, sig: Signature) -> tuple[ObjectWord, ObjectWord]:
    """Source and target of a term, or a typed error with the path to the
    offending subterm.

    Subterms are visited depth first, left to right, from an explicit
    stack, so the depth of a term is bounded by memory rather than by the
    interpreter's recursion limit.
    """
    types = []  # (source, target) of each finished subterm, in post-order
    stack: list = [t]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Gen:
            typed = sig.g1.get(node.name)
            if typed is None:
                raise UnknownGenerator(node.name, _path_to(t, node))
            types.append(typed)
        elif kind is Compose:
            stack += (node, _COMBINE, node.then, node.first)
        elif kind is Tensor:
            stack += (node, _COMBINE, node.right, node.left)
        elif node is _COMBINE:
            node = stack.pop()
            src2, tgt2 = types.pop()
            src1, tgt1 = types.pop()
            if type(node) is Tensor:
                types.append((src1 + src2, tgt1 + tgt2))
            elif tgt1 != src2:
                raise ComposeMismatch(tgt1, src2, _path_to(t, node))
            else:
                types.append((src1, tgt2))
        elif kind is Id:
            _check_word(node.word, sig, t, node)
            types.append((node.word, node.word))
        elif kind is Swap:
            _check_word(node.left, sig, t, node)
            _check_word(node.right, sig, t, node)
            types.append((node.left + node.right, node.right + node.left))
        else:
            raise TypeError(f"not a term: {node!r}")
    return types[0]


def _check_word(word: ObjectWord, sig: Signature, root: Term, node: Term) -> None:
    for label in word:
        if label not in sig.g0:
            raise UnknownObject(label, _path_to(root, node))


def _path_to(root: Term, node: Term) -> tuple[str, ...]:
    """Path from ``root`` to the first occurrence of the subterm object
    ``node``, in the order ``typecheck`` visits subterms; a subterm that
    fails to typecheck fails at its first occurrence."""
    stack = [(root, ())]
    while stack:
        t, path = stack.pop()
        if t is node:
            return path
        if isinstance(t, Compose):
            stack += ((t.then, path + ("then",)), (t.first, path + ("first",)))
        elif isinstance(t, Tensor):
            stack += ((t.right, path + ("right",)), (t.left, path + ("left",)))
    raise LookupError(f"{node!r} is not a subterm")


# --- lexer -----------------------------------------------------------------

_PUNCT = {";", "*", "(", ")", "[", "]", ","}


def _lex(text: str):
    """Yield (kind, value, offset) tokens; kinds: NAME, ONE, punct, END."""
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            yield (ch, ch, i)
            i += 1
            continue
        if ch == "1":
            yield ("ONE", "1", i)
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("NAME", text[i:j], i)
            i = j
            continue
        raise LexicalError(i, f"unexpected character {ch!r}")
    yield ("END", "", n)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_lex(text))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], [kind], _describe(tok))
        return self.next()

    def parse(self) -> Term:
        # precedence climbing on explicit stacks, not recursion: per open
        # parenthesis, the ';' operands and the '*' operands of the last
        levels: list[tuple[list, list]] = [([], [])]
        while True:
            while self.peek()[0] == "(":
                self.next()
                levels.append(([], []))
            levels[-1][1].append(self.atom())
            tok = self.next()
            while tok[0] == ")" and len(levels) > 1:
                inner = _fold(*levels.pop())
                levels[-1][1].append(inner)
                tok = self.next()
            if tok[0] == ";":
                composed, tensored = levels[-1]
                composed.append(reduce(Tensor, tensored))
                tensored.clear()
            elif tok[0] != "*":
                break
        if len(levels) > 1:
            raise ParseError(tok[2], [")"], _describe(tok))
        if tok[0] != "END":
            raise ParseError(tok[2], ["';'", "'*'", "end of input"], _describe(tok))
        return _fold(*levels[0])

    def atom(self) -> Term:
        tok = self.peek()
        if tok[0] == "NAME":
            self.next()
            if tok[1] == "id":
                self.expect("[")
                word = self.objword()
                self.expect("]")
                return Id(word)
            if tok[1] == "swap":
                self.expect("[")
                left = self.swapword()
                self.expect(",")
                right = self.swapword()
                self.expect("]")
                return Swap(left, right)
            return Gen(tok[1])
        raise ParseError(tok[2], ["NAME", "'id['", "'swap['", "'('"], _describe(tok))

    def objword(self) -> ObjectWord:
        tok = self.peek()
        if tok[0] == "ONE":
            self.next()
            return ()
        labels = [self.expect("NAME")[1]]
        while self.peek()[0] == ",":
            self.next()
            labels.append(self.expect("NAME")[1])
        return tuple(labels)

    def swapword(self) -> ObjectWord:
        tok = self.peek()
        if tok[0] == "ONE":
            self.next()
            return ()
        if tok[0] == "(":
            self.next()
            word = self.objword()
            self.expect(")")
            return word
        return (self.expect("NAME")[1],)


def _fold(composed: list, tensored: list) -> Term:
    return reduce(Compose, composed + [reduce(Tensor, tensored)])


def _describe(tok) -> str:
    kind, value, _ = tok
    if kind == "END":
        return "end of input"
    return f"{value!r}"


def parse_term(text: str, sig: Signature) -> Term:
    """Parse a DSL term and type-check it against the signature."""
    t = _Parser(text).parse()
    typecheck(t, sig)
    return t


# --- rendering -------------------------------------------------------------


def render_word(word: ObjectWord) -> str:
    return "1" if not word else ",".join(word)


def _render_swapword(word: ObjectWord) -> str:
    if not word:
        return "1"
    if len(word) == 1:
        return word[0]
    return "(" + ",".join(word) + ")"


def render_term(t: Term) -> str:
    """Canonical rendering; ``parse_term(render_term(t))`` reproduces ``t``."""
    return _render(t, 0)


def _render(t: Term, level: int) -> str:
    # levels: 0 composition, 1 tensor, 2 atom
    if isinstance(t, Gen):
        return t.name
    if isinstance(t, Id):
        return f"id[{render_word(t.word)}]"
    if isinstance(t, Swap):
        return f"swap[{_render_swapword(t.left)},{_render_swapword(t.right)}]"
    if isinstance(t, Compose):
        body = f"{_render(t.first, 0)} ; {_render(t.then, 1)}"
        return f"({body})" if level > 0 else body
    if isinstance(t, Tensor):
        body = f"{_render(t.left, 1)} * {_render(t.right, 2)}"
        return f"({body})" if level > 1 else body
    raise TypeError(f"not a term: {t!r}")


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
        g0 = list(obj["objects"])
        g1 = {
            name: (tuple(spec["src"]), tuple(spec["tgt"]))
            for name, spec in obj["generators"].items()
        }
        sig = Signature(g0, g1)
        relations = [
            Relation(
                rel.get("name", f"relation{k}"), parse_term(rel["lhs"], sig), parse_term(rel["rhs"], sig)
            )
            for k, rel in enumerate(obj.get("relations", []))
        ]
        duality = {
            label: DualityData(parse_term(spec["coev"], sig), parse_term(spec["pairing"], sig))
            for label, spec in obj.get("duality", {}).items()
        }
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed signature JSON: {exc}") from exc
    return Signature(g0, g1, relations, duality)
