"""Shared test helpers: term generators and the stock algebra zoo."""

from __future__ import annotations

import random
import sys

import pytest

from tqftkit.algebras import (
    cyclic_group,
    direct_product,
    group_algebra,
    matrix_center_algebra,
    milnor_ring,
    trivial_algebra,
)
from tqftkit.fusion import fibonacci, grothendieck_frobenius, ising, vec_z
from tqftkit.terms import Compose, Gen, Id, Signature, Swap, Tensor, typecheck


def dense(m):
    """``m`` as rows of ``Fraction`` entries, read one ``entry`` at a time."""
    return [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]


def eleven_algebras():
    """The named algebra zoo used across the acceptance criteria."""
    return [
        ("z2", group_algebra(cyclic_group(2))),
        ("z3", group_algebra(cyclic_group(3))),
        ("z2xz2", group_algebra(direct_product(cyclic_group(2), cyclic_group(2)))),
        ("milnor:3", milnor_ring(3)),
        ("milnor:4", milnor_ring(4)),
        ("milnor:5", milnor_ring(5)),
        ("center:[1,2]", matrix_center_algebra([1, 2])),
        ("gr(fibonacci)", grothendieck_frobenius(fibonacci())),
        ("gr(ising)", grothendieck_frobenius(ising())),
        ("gr(vec_z3)", grothendieck_frobenius(vec_z(3))),
        ("trivial", trivial_algebra()),
    ]


@pytest.fixture(scope="session")
def algebra_zoo():
    return eleven_algebras()


@pytest.fixture
def digit_limit():
    """The interpreter's default limit on int-to-text conversion, set for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def parser_signature() -> Signature:
    """A signature with several objects and generator shapes, for parser
    and generator coverage beyond the single-object circle signature."""
    return Signature(
        ["a", "b", "c"],
        {
            "f": (("a",), ("b",)),
            "g": (("b", "c"), ("a",)),
            "h": ((), ("a", "b")),
            "k": (("c",), ()),
            "m": (("a", "a"), ("a", "a")),
        },
    )


def random_word(rng: random.Random, labels, max_len=2):
    return tuple(rng.choice(labels) for _ in range(rng.randint(0, max_len)))


def random_term(rng: random.Random, sig: Signature, depth: int):
    """A random well-typed term of AST depth at most ``depth``."""
    labels = list(sig.g0)
    if depth <= 1:
        kind = rng.randrange(3)
        if kind == 0:
            return Gen(rng.choice(list(sig.g1)))
        if kind == 1:
            return Id(random_word(rng, labels))
        return Swap(random_word(rng, labels, 1), random_word(rng, labels, 1))
    kind = rng.randrange(3)
    if kind == 0:
        return random_term(rng, sig, depth - 1)
    if kind == 1:
        return Tensor(random_term(rng, sig, depth - 1), random_term(rng, sig, depth - 1))
    first = random_term(rng, sig, depth - 1)
    _, mid = typecheck(first, sig)
    return Compose(first, term_with_source(rng, sig, mid, depth - 1))


def term_with_source(rng: random.Random, sig: Signature, word, depth: int):
    """A random well-typed term whose source is exactly ``word``."""
    if depth <= 1 or rng.random() < 0.3:
        options = [Id(word)]
        for name, (src, _) in sig.g1.items():
            if src == word:
                options.append(Gen(name))
        if len(word) >= 2:
            cut = rng.randint(1, len(word) - 1)
            options.append(Swap(word[:cut], word[cut:]))
        return rng.choice(options)
    if rng.random() < 0.5 and len(word) >= 1:
        cut = rng.randint(0, len(word))
        return Tensor(
            term_with_source(rng, sig, word[:cut], depth - 1),
            term_with_source(rng, sig, word[cut:], depth - 1),
        )
    first = term_with_source(rng, sig, word, depth - 1)
    _, mid = typecheck(first, sig)
    return Compose(first, term_with_source(rng, sig, mid, depth - 1))


def enumerate_terms(sig: Signature, atoms, max_depth: int, max_width: int, quotas):
    """Deterministic canonical enumeration of well-typed terms.

    ``quotas`` maps depth -> how many terms of exactly that depth to keep
    (None keeps all).  Terms whose interface words exceed ``max_width``
    are skipped so the evaluation stays desk-scale.
    """
    typed = []
    for a in atoms:
        src, tgt = typecheck(a, sig)
        typed.append((a, src, tgt, 1))
    by_depth = {1: typed}
    for depth in range(2, max_depth + 1):
        fresh = []
        previous = [item for d in range(1, depth) for item in by_depth[d]]
        quota = quotas.get(depth)
        for t1, s1, g1, d1 in previous:
            for t2, s2, g2, d2 in previous:
                if max(d1, d2) != depth - 1:
                    continue
                if len(s1 + s2) <= max_width and len(g1 + g2) <= max_width:
                    fresh.append((Tensor(t1, t2), s1 + s2, g1 + g2, depth))
                    if quota is not None and len(fresh) >= quota:
                        break
                if g1 == s2:
                    fresh.append((Compose(t1, t2), s1, g2, depth))
                    if quota is not None and len(fresh) >= quota:
                        break
            if quota is not None and len(fresh) >= quota:
                break
        by_depth[depth] = fresh
    out = []
    for d in range(1, max_depth + 1):
        out.extend(item[0] for item in by_depth[d])
    return out
