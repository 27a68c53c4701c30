"""Workload ``term_recon``: the evaluator and the typechecker.

One pass checks, for every bord2 term of depth <= 4 and width <= 3 (the
enumeration rule of the reconstruction acceptance test, reimplemented
here), that ``reconstruct_map(bend_state(t)) == eval_term(t)`` on the
trivial algebra, z2 and milnor:3, and on z3 for sources of width <= 2;
and that parsing the rendered text gives the term back.  The same runs on
seeded random terms.  Wide terms ``id[S1^k] * pants`` are checked against
their block structure, and ``genus_term(g)`` chains up to g = 600 against
closed forms.  ``genus_term(2000)`` is a probe: it raises RecursionError
in the recursive evaluator.

Why: hundreds of small evaluations, where per-node and per-call overhead
dominates, next to a few wide ones, where ``kron`` and identity and swap
materialisation dominate.  The seed draws the random terms.
"""

from __future__ import annotations

import random

from . import oracles
from .harness import Op, Probe, expect

S1 = "S1"
GENERATORS = {  # name -> (source width, target width) in the circle signature
    "pants": (2, 1),
    "copants": (1, 2),
    "cap": (0, 1),
    "cup": (1, 0),
}
RANDOM_TERMS = 120
GENUS_CHAIN = (1, 2, 5, 10, 50, 100, 200, 400, 600)
DEFECT_GENUS = 2000
# wide terms id[S1^k] * pants at circle dimension d, kept to at most
# this many matrix entries
WIDE_ENTRY_CAP = 2_000_000


def enumerate_terms(tq, sig, max_depth: int, max_width: int, quotas: dict) -> list:
    """Canonical enumeration of well-typed terms by depth.

    Depth-1 terms are the atoms.  A term of depth d combines two earlier
    terms, at least one of depth d - 1, by tensor (when both interface
    widths stay within ``max_width``) or by composition (when the words
    meet); pairs are visited in order and ``quotas[d]`` caps how many
    terms of depth d are kept.
    """
    T = tq.terms
    atoms = [T.Gen("pants"), T.Gen("copants"), T.Gen("cap"), T.Gen("cup"),
             T.Swap((S1,), (S1,)), T.Id((S1,))]
    levels = {1: [(a, *tq.typecheck(a, sig)) for a in atoms]}
    for depth in range(2, max_depth + 1):
        earlier = [(item, d) for d in range(1, depth) for item in levels[d]]
        quota = quotas.get(depth)
        fresh = []
        for (t1, s1, g1), d1 in earlier:
            for (t2, s2, g2), d2 in earlier:
                if quota is not None and len(fresh) >= quota:
                    break
                if depth - 1 not in (d1, d2):
                    continue
                if len(s1) + len(s2) <= max_width and len(g1) + len(g2) <= max_width:
                    fresh.append((T.Tensor(t1, t2), s1 + s2, g1 + g2))
                    if quota is not None and len(fresh) >= quota:
                        break
                if g1 == s2:
                    fresh.append((T.Compose(t1, t2), s1, g2))
            if quota is not None and len(fresh) >= quota:
                break
        levels[depth] = fresh
    return [item for d in range(1, max_depth + 1) for item in levels[d]]


def random_term(tq, rng: random.Random, max_width: int = 3):
    """A random well-typed circle term: a stack of 2 to 6 layers, each one
    generator or swap placed among identity wires."""
    T = tq.terms
    width = rng.randint(0, 2)
    layers = []
    for _ in range(rng.randint(2, 6)):
        options = [(name, s, t) for name, (s, t) in GENERATORS.items()
                   if s <= width and width - s + t <= max_width]
        if width >= 2:
            options.append(("swap", 2, 2))
        name, s, t = rng.choice(options)
        core = T.Swap((S1,), (S1,)) if name == "swap" else T.Gen(name)
        left = rng.randint(0, width - s)
        right = width - s - left
        layer = core
        if left:
            layer = T.Tensor(T.Id((S1,) * left), layer)
        if right:
            layer = T.Tensor(layer, T.Id((S1,) * right))
        layers.append(layer)
        width += t - s
    term = layers[0]
    for layer in layers[1:]:
        term = T.Compose(term, layer)
    return term


def wide_expected(tq, k: int, alg):
    """id[S1^k] * pants: diagonal blocks of mu, built entry by entry."""
    d = alg.dim
    blocks = d ** k
    mu = [[alg.mu.entry(b, c) for c in range(d * d)] for b in range(d)]
    flat = []
    for a in range(blocks):
        for b in range(d):
            flat.extend([0] * (a * d * d))
            flat.extend(mu[b])
            flat.extend([0] * ((blocks - a - 1) * d * d))
    return tq.Matrix(blocks * d, blocks * d * d, flat)


class TermRecon:
    name = "term_recon"

    def __init__(self, tq, seed: int, size: str):
        self.tq = tq
        A = tq.algebras
        sig = tq.surfaces.bord2_signature()
        tiny = size == "tiny"
        algs = {
            "trivial": (A.trivial_algebra(), oracles.trivial_invariant),
            "z2": (A.group_algebra(A.cyclic_group(2)), oracles.group_invariant(2)),
            "milnor:3": (A.milnor_ring(3), oracles.milnor_invariant(3)),
            "z3": (A.group_algebra(A.cyclic_group(3)), oracles.group_invariant(3)),
        }
        interps = {name: tq.frobenius_interpretation(alg) for name, (alg, _) in algs.items()}

        quotas = {3: 40} if tiny else {3: 200, 4: 250}
        enumerated = enumerate_terms(tq, sig, 3 if tiny else 4, 3, quotas)
        rng = random.Random(seed)
        randoms = []
        for _ in range(10 if tiny else RANDOM_TERMS):
            t = random_term(tq, rng)
            randoms.append((t, *tq.typecheck(t, sig)))
        self.random_terms = [t for t, _, _ in randoms]

        self.ops = []
        for i, (t, src, tgt) in enumerate(enumerated):
            for name in ("trivial", "z2", "milnor:3", "z3"):
                if name != "z3" or len(src) <= 2:
                    self.ops.append(self._recon_op(t, src, tgt, f"enumerated[{i}]", name, interps[name]))
        for i, (t, src, tgt) in enumerate(randoms):
            for name in ("trivial", "z2", "milnor:3"):
                self.ops.append(self._recon_op(t, src, tgt, f"random[{i}]", name, interps[name]))
        for i, (t, _, _) in enumerate(enumerated + randoms):
            self.ops.append(self._round_trip_op(t, sig, f"term[{i}]"))

        wide_dims = (3,) if tiny else (3, 4, 5)
        for d in wide_dims:
            alg = algs["z3"][0] if d == 3 else A.group_algebra(A.cyclic_group(d))
            interp = interps["z3"] if d == 3 else tq.frobenius_interpretation(alg)
            for k in (2, 3, 4):
                if d ** (2 * k + 3) <= WIDE_ENTRY_CAP:
                    self.ops.append(self._wide_op(k, alg, interp, sig))

        for g in (1, 2, 5, 50) if tiny else GENUS_CHAIN:
            term = tq.surfaces.genus_term(g)
            for name in ("trivial", "z2", "milnor:3", "z3"):
                self.ops.append(self._genus_op(g, term, name, interps[name], algs[name][1]))

        defect = tq.surfaces.genus_term(DEFECT_GENUS)
        want = algs["z2"][1](DEFECT_GENUS)

        def check_defect(m):
            expect(m.entry(0, 0) == want, "genus_term(2000) on z2 is not 2^2000")

        self.probes = [Probe(f"eval_term(genus_term({DEFECT_GENUS})) on z2",
                             lambda: tq.eval_term(defect, interps["z2"]), check_defect,
                             RecursionError)]

    def close(self) -> None:
        pass

    def _recon_op(self, t, src, tgt, label, name, interp) -> Op:
        tq = self.tq
        shape = (interp.dim(tgt), interp.dim(src))

        def call():
            state = tq.bend_state(t, interp)
            return tq.reconstruct_map(state, src, tgt, interp), tq.eval_term(t, interp)

        def check(result):
            rebuilt, direct = result
            expect(direct.shape == shape, f"shape {direct.shape}, expected {shape}")
            expect(rebuilt == direct, f"reconstruct(bend(t)) != eval(t) for {tq.render_term(t)}")

        return Op("recon", f"recon({label}) on {name}", call, check)

    def _round_trip_op(self, t, sig, label) -> Op:
        tq = self.tq

        def check(parsed):
            expect(parsed == t, f"parse(render(t)) != t for {tq.render_term(t)}")

        return Op("round_trip", f"round_trip({label})",
                  lambda: tq.parse_term(tq.render_term(t), sig), check)

    def _wide_op(self, k, alg, interp, sig) -> Op:
        tq = self.tq
        term = tq.parse_term(f"id[{','.join([S1] * k)}] * pants", sig)
        cache = []

        def check(m):
            if not cache:
                cache.append(wide_expected(tq, k, alg))
            expect(m == cache[0], "id * pants is not the block diagonal of mu")

        return Op("wide", f"eval(id[S1^{k}] * pants) at dim {alg.dim}",
                  lambda: tq.eval_term(term, interp), check)

    def _genus_op(self, g, term, name, interp, invariant) -> Op:
        tq = self.tq

        def check(m):
            want = invariant(g)
            expect(m.shape == (1, 1) and m.entry(0, 0) == want, f"genus {g} on {name} is not {want}")

        return Op("genus_chain", f"eval(genus_term({g})) on {name}",
                  lambda: tq.eval_term(term, interp), check)
