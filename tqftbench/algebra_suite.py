"""Workload ``algebra_suite``: the dense exact kernels.

Per algebra, one pass builds it (``from_economy`` under every builder),
checks the six axioms, builds the circle interpretation and checks its
eleven relations, evaluates closed surfaces for a range of genera,
reduces along the circle and takes the loop value, round-trips through
the economy form and inverts known automorphisms, as Frobenius and as
dual-pair morphisms.  The algebras are the eleven-algebra zoo and seven
of dimension 6 to 9.  ``admits_frobenius_form`` runs on the zoo, where
it exits at an early grid point, and on dimension-4 algebras with no
Frobenius form, where it walks the whole grid.

Why: dense ``mat_mul`` at n^7 multiply-adds is most of the time here, so
this is where sparse kernels and a single law-checking path act.  The
inputs do not depend on the seed: a seeded order of the algebras moved
peak memory by several percent through heap fragmentation alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import oracles
from .harness import Op, expect

GENERA = (0, 1, 2, 3, 10, 30)
# genera also evaluated as terms, to cross-check surface_invariant
TERM_GENERA = (0, 1, 2, 3)


@dataclass(frozen=True)
class Case:
    name: str
    dim: int
    build: Callable
    invariant: Callable
    # basis permutations with signs, as (image index, sign) per basis vector
    automorphisms: tuple
    zoo: bool


def _cyclic_autos(n: int):
    """Identity and x -> x^k for the largest k < n coprime to n."""
    autos = [tuple((i, 1) for i in range(n))]
    for k in range(n - 1, 1, -1):
        if math.gcd(k, n) == 1:
            autos.append(tuple(((k * i) % n, 1) for i in range(n)))
            break
    return tuple(autos)


def _product_autos(a: int, b: int):
    """Identity and either inversion in the second factor of z_a x z_b or,
    when inversion is trivial there, the swap of two equal factors."""
    ident = tuple((i, 1) for i in range(a * b))
    inv2 = tuple((x * b + (-y) % b, 1) for x in range(a) for y in range(b))
    if inv2 != ident:
        return (ident, inv2)
    if a == b:
        return (ident, tuple((y * a + x, 1) for x in range(a) for y in range(b)))
    return (ident,)


def _milnor_autos(d: int):
    """Identity and x -> -x, which keeps the residue pairing for even d."""
    ident = tuple((i, 1) for i in range(d - 1))
    if d % 2:
        return (ident,)
    return (ident, tuple((i, (-1) ** i) for i in range(d - 1)))


def _identity_auto(n: int):
    return (tuple((i, 1) for i in range(n)),)


def cases(tq, size: str) -> list:
    A = tq.algebras
    F = tq.fusion

    def group(n):
        return lambda: A.group_algebra(A.cyclic_group(n))

    def product(a, b):
        return lambda: A.group_algebra(A.direct_product(A.cyclic_group(a), A.cyclic_group(b)))

    zoo = [
        Case("z2", 2, group(2), oracles.group_invariant(2), _cyclic_autos(2), True),
        Case("z3", 3, group(3), oracles.group_invariant(3), _cyclic_autos(3), True),
        Case("z2xz2", 4, product(2, 2), oracles.group_invariant(4), _product_autos(2, 2), True),
        Case("milnor:3", 2, lambda: A.milnor_ring(3), oracles.milnor_invariant(3), _milnor_autos(3), True),
        Case("milnor:4", 3, lambda: A.milnor_ring(4), oracles.milnor_invariant(4), _milnor_autos(4), True),
        Case("milnor:5", 4, lambda: A.milnor_ring(5), oracles.milnor_invariant(5), _milnor_autos(5), True),
        Case("center:[1,2]", 2, lambda: A.matrix_center_algebra([1, 2]),
             oracles.center_invariant([1, 2]), _identity_auto(2), True),
        Case("gr(fibonacci)", 2, lambda: F.grothendieck_frobenius(F.fibonacci()),
             oracles.fibonacci_invariant, _identity_auto(2), True),
        Case("gr(ising)", 3, lambda: F.grothendieck_frobenius(F.ising()),
             oracles.ising_invariant, _identity_auto(3), True),
        Case("gr(vec_z3)", 3, lambda: F.grothendieck_frobenius(F.vec_z(3)),
             oracles.group_invariant(3), _cyclic_autos(3), True),
        Case("trivial", 1, lambda: A.trivial_algebra(), oracles.trivial_invariant,
             _identity_auto(1), True),
    ]
    mid = [
        Case("z8", 8, group(8), oracles.group_invariant(8), _cyclic_autos(8), False),
        Case("z2xz4", 8, product(2, 4), oracles.group_invariant(8), _product_autos(2, 4), False),
        Case("milnor:8", 7, lambda: A.milnor_ring(8), oracles.milnor_invariant(8), _milnor_autos(8), False),
        Case("milnor:9", 8, lambda: A.milnor_ring(9), oracles.milnor_invariant(9), _milnor_autos(9), False),
        Case("milnor:10", 9, lambda: A.milnor_ring(10), oracles.milnor_invariant(10), _milnor_autos(10), False),
        Case("center:[1..6]", 6, lambda: A.matrix_center_algebra([1, 2, 3, 4, 5, 6]),
             oracles.center_invariant([1, 2, 3, 4, 5, 6]), _identity_auto(6), False),
        Case("gr(vec_z6)", 6, lambda: F.grothendieck_frobenius(F.vec_z(6)),
             oracles.group_invariant(6), _cyclic_autos(6), False),
    ]
    if size == "tiny":
        return [c for c in zoo if c.name in ("z2", "milnor:4", "trivial")]
    return zoo + mid


def direct_sum(tq, first, second):
    """Raw (dim, mu, eta) of the product algebra of two raw algebras."""
    (da, mua, etaa), (db, mub, etab) = first, second
    n = da + db
    rows = [[0] * (n * n) for _ in range(n)]
    for off, d, mu in ((0, da, mua), (da, db, mub)):
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    rows[off + k][(off + i) * n + off + j] = mu.entry(k, i * d + j)
    eta = [etaa.entry(i, 0) for i in range(da)] + [etab.entry(i, 0) for i in range(db)]
    return n, tq.Matrix.from_rows(rows), tq.Matrix(n, 1, eta)


def no_form_algebras(tq, size: str) -> list:
    """Algebras with no Frobenius form, so the grid search visits every point."""
    tri = tq.algebras.upper_triangular_algebra()
    if size == "tiny":
        return [("triangular", tri)]
    field = (1, tq.Matrix.from_rows([[1]]), tq.Matrix.from_rows([[1]]))
    return [
        ("triangular x k", direct_sum(tq, tri, field)),
        ("k x triangular", direct_sum(tq, field, tri)),
    ]


class AlgebraSuite:
    name = "algebra_suite"

    def __init__(self, tq, seed: int, size: str):
        self.tq = tq
        self.state: dict = {}
        self.ops = []
        for case in cases(tq, size):
            self.ops.extend(self._case_ops(case))
        for name, raw in no_form_algebras(tq, size):
            self.ops.append(self._no_form_op(name, raw))
        self.probes = []

    def close(self) -> None:
        pass

    def _no_form_op(self, name, raw) -> Op:
        tq = self.tq

        def check(found):
            expect(found is False, f"admits_frobenius_form gave {found} for an algebra with no form")

        return Op("admits_frobenius_form", f"admits_frobenius_form({name})",
                  lambda: tq.admits_frobenius_form(*raw), check)

    def _case_ops(self, case: Case) -> list:
        tq = self.tq
        st = self.state.setdefault(case.name, {})
        n = case.dim
        eye = tq.Matrix.identity(n)
        autos = []
        for k, perm in enumerate(case.automorphisms):
            rows = [[0] * n for _ in range(n)]
            for src, (dst, sign) in enumerate(perm):
                rows[dst][src] = sign
            autos.append((k, tq.Matrix.from_rows(rows)))

        def build():
            st["alg"] = case.build()
            return st["alg"]

        def check_build(alg):
            expect(alg.dim == n, f"dim {alg.dim}, expected {n}")

        def check_axioms(report):
            bad = [k for k, v in report.to_json().items() if not v]
            expect(not bad, f"axioms fail: {bad}")

        def interpretation():
            st["interp"] = tq.frobenius_interpretation(st["alg"])
            return st["interp"]

        def check_interp(interp):
            expect(interp.obj_dim == {"S1": n}, f"circle dimension {interp.obj_dim}")

        def check_relations(report):
            expect(report.ok and len(report.checks) == 11, f"relations fail: {report.failing()}")

        def surface_check(g):
            def check(value):
                want = case.invariant(g)
                expect(value == want, f"genus {g}: {value}, closed form {want}")
                if g in TERM_GENERA:
                    term = tq.eval_term(tq.surfaces.genus_term(g), st["interp"]).entry(0, 0)
                    expect(term == value, f"genus {g}: eval_term gives {term}, invariant {value}")
            return check

        def reduce_loop():
            st["pair"] = tq.reduce_along_circle(st["alg"])
            return tq.dualpairs.loop_value(st["pair"])

        def check_loop(value):
            expect(value == n, f"loop value {value}, expected {n}")

        def round_trip():
            alg = st["alg"]
            return tq.from_economy(alg.dim, alg.mu, alg.eta, tq.to_economy(alg), alg.basis_names)

        def check_round_trip(back):
            expect(back == st["alg"], "economy round trip changed the algebra")

        def check_inverse(psi):
            def check(inv):
                expect(tq.matmul(inv, psi) == eye and tq.matmul(psi, inv) == eye,
                       "inverse does not compose to the identity")
            return check

        def check_dp_inverse(psi):
            def check(pair):
                f_inv, g_inv = pair
                for inv in (f_inv, g_inv):
                    expect(tq.matmul(inv, psi) == eye and tq.matmul(psi, inv) == eye,
                           "dual-pair inverse does not compose to the identity")
            return check

        label = case.name
        ops = [
            Op("build", f"build({label})", build, check_build),
            Op("check_axioms", f"check_axioms({label})", lambda: tq.check_axioms(st["alg"]), check_axioms),
            Op("frobenius_interpretation", f"frobenius_interpretation({label})",
               interpretation, check_interp),
            Op("check_relations", f"check_relations({label})",
               lambda: tq.check_relations(st["interp"]), check_relations),
        ]
        for g in GENERA:
            ops.append(Op("surface_invariant", f"surface_invariant({label}, {g})",
                          lambda g=g: tq.surface_invariant(st["alg"], g), surface_check(g)))
        ops.append(Op("reduce_loop", f"reduce_along_circle+loop_value({label})", reduce_loop, check_loop))
        ops.append(Op("economy_round_trip", f"economy_round_trip({label})", round_trip, check_round_trip))
        for k, psi in autos:
            ops.append(Op("morphism_inverse", f"morphism_inverse({label}, auto{k})",
                          lambda psi=psi: tq.morphism_inverse(st["alg"], st["alg"], psi),
                          check_inverse(psi)))
            ops.append(Op("dp_morphism_inverse", f"dp_morphism_inverse({label}, auto{k})",
                          lambda psi=psi: tq.dualpairs.dp_morphism_inverse(
                              st["pair"], st["pair"], psi, psi),
                          check_dp_inverse(psi)))
        if case.zoo:
            ops.append(Op("admits_frobenius_form", f"admits_frobenius_form({label})",
                          lambda: tq.admits_frobenius_form(n, st["alg"].mu, st["alg"].eta),
                          lambda found: expect(found is True, f"admits_frobenius_form gave {found}")))
        return ops
