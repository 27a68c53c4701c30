"""Workload ``cli_batch``: input decoding and output encoding.

One pass calls ``tqftkit.cli.run`` in-process on a fixed multiset of
argument vectors covering all seven subcommands, with and without
``--json``, and captures stdout and stderr.  Set-up writes the input
files: economy-form and full-form algebra JSON, a bord1 dual pair, a
generic signature with its interpretation, the fibonacci, ising and
vec_z5 fusion rings, and two malformed files.  Inline term texts are
long (200-handle chains).  Eight of the 31 command templates are
malformed inputs (bad JSON, wrong shape, bad character, bad syntax,
mismatched composition, unknown generator, unknown algebra, missing
file) and must exit 2 with one stderr line.  A 1,500-handle inline chain is a
probe: it dies with an uncaught RecursionError in the recursive
typechecker.

Why: at dimension <= 6 each command costs milliseconds, most of it in
argparse, loading, ``from_economy`` on load, parsing and JSON output,
which the other workloads do not exercise.  A gain in the compute layers
should leave this workload unchanged.  The seed draws the command order
and the term texts.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
from fractions import Fraction

from . import oracles
from .harness import OUT_DIR, Mismatch, Op, Probe, expect
from .term_recon import random_term

REPEATS = 4  # copies of every command template in one pass
CHAIN_HANDLES = 200
DEFECT_HANDLES = 1500
# interchangeable spellings of one handle in a commutative Frobenius algebra
HANDLE_FORMS = (
    "copants ; pants",
    "(copants ; swap[S1,S1]) ; pants",
    "copants ; (swap[S1,S1] ; pants)",
    "copants ; id[S1,S1] ; pants",
)
AXIOMS = ("assoc", "unit", "coassoc", "counit", "frobenius", "commutative")


def chain_text(rng: random.Random, handles: int) -> str:
    body = " ; ".join(rng.choice(HANDLE_FORMS) for _ in range(handles))
    return f"cap ; {body} ; cup" if handles else "cap ; cup"


def _json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not JSON: {exc}") from None


def outcome(code: int, test=None, as_json: bool = False):
    """Check the exit code, then run ``test`` on stdout (decoded if JSON)."""
    def check(result):
        got, out, err = result
        expect(got == code, f"exit {got}, expected {code}; stderr {err.strip()[:200]!r}")
        if test is not None:
            test(_json(out) if as_json else out)
    return check


def ok_json(test):
    return outcome(0, test, as_json=True)


def ok_lines(lines):
    return outcome(0, lambda out: expect(out.splitlines() == lines, f"stdout {out[:200]!r}"))


def diagnostic(result):
    """Exit 2 with nothing on stdout and exactly one ``error:`` line on stderr."""
    got, out, err = result
    expect(got == 2, f"exit {got}, expected 2")
    expect(out == "", f"stdout not empty: {out[:200]!r}")
    lines = err.splitlines()
    expect(len(lines) == 1 and lines[0].startswith("error: "), f"stderr {err[:300]!r}")


def scalar_matrix(value):
    return [[str(Fraction(value))]]


class CliBatch:
    name = "cli_batch"

    def __init__(self, tq, seed: int, size: str):
        self.tq = tq
        OUT_DIR.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
        self.files = self._write_inputs()
        rng = random.Random(seed)
        repeats = 1 if size == "tiny" else REPEATS
        handles = 20 if size == "tiny" else CHAIN_HANDLES
        self.ops = []
        for r in range(repeats):
            for kind, argv, check in self._templates(rng, handles):
                self.ops.append(self._op(kind, argv, check, r))
        rng.shuffle(self.ops)

        defect_argv = ["eval", "--algebra", "z2", "--term", chain_text(rng, DEFECT_HANDLES)]

        def check_defect(result):
            code, out, _ = result
            if code == 2:
                diagnostic(result)
            else:
                expect(code == 0 and _json(out) == scalar_matrix(2 ** DEFECT_HANDLES),
                       f"{DEFECT_HANDLES}-handle chain gave exit {code}")

        self.probes = [Probe(f"cli eval of a {DEFECT_HANDLES}-handle inline chain",
                             lambda: self._run(defect_argv), check_defect, RecursionError)]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.tq.cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    def _op(self, kind, argv, check, r) -> Op:
        return Op(kind, f"tqftkit {' '.join(argv)[:120]} #{r}", lambda: self._run(argv), check)

    def _write(self, name: str, payload) -> str:
        path = f"{self.dir}/{name}"
        with open(path, "w", encoding="utf-8") as fh:
            if isinstance(payload, str):
                fh.write(payload)
            else:
                json.dump(payload, fh)
        return path

    def _write_inputs(self) -> dict:
        tq = self.tq
        F, Fr = tq.frobenius, tq.fusion
        m5 = tq.algebras.milnor_ring(5)
        economy = {
            "dim": m5.dim,
            "basis": list(m5.basis_names),
            "mu": tq.exactlin.matrix_to_json(m5.mu),
            "eta": [str(m5.eta.entry(i, 0)) for i in range(m5.dim)],
            "pairing": tq.exactlin.matrix_to_json(tq.to_economy(m5).gram),
        }
        generic_sig = {
            "objects": ["a", "b"],
            "generators": {"f": {"src": ["a"], "tgt": ["b"]}, "g": {"src": ["b"], "tgt": ["a"]}},
            "relations": [],
        }
        self.f_rows = [[Fraction(1), Fraction(-2)], [Fraction(1, 3), Fraction(0)], [Fraction(2), Fraction(5, 7)]]
        self.g_rows = [[Fraction(1), Fraction(1, 2), Fraction(0)], [Fraction(-1), Fraction(3), Fraction(1, 5)]]
        generic_interp = {
            "dims": {"a": 2, "b": 3},
            "matrices": {
                "f": [[str(x) for x in row] for row in self.f_rows],
                "g": [[str(x) for x in row] for row in self.g_rows],
            },
        }
        bad_shape = dict(economy, mu=economy["mu"][:-1])
        return {
            "economy": self._write("milnor5_economy.json", economy),
            "full": self._write("center123_full.json",
                                F.algebra_to_json(tq.algebras.matrix_center_algebra([1, 2, 3]))),
            "pair": self._write("pair3.json", tq.dualpairs.dual_pair_to_json(tq.dualpairs.standard_pair(3))),
            "sig": self._write("generic_sig.json", generic_sig),
            "interp": self._write("generic_interp.json", generic_interp),
            "fib": self._write("fib.json", Fr.fusion_ring_to_json(Fr.fibonacci())),
            "ising": self._write("ising.json", Fr.fusion_ring_to_json(Fr.ising())),
            "vec_z5": self._write("vec_z5.json", Fr.fusion_ring_to_json(Fr.vec_z(5))),
            "truncated": self._write("truncated.json", json.dumps(economy)[:40]),
            "bad_shape": self._write("bad_shape.json", bad_shape),
        }

    def _templates(self, rng: random.Random, handles: int):
        """(kind, argv, check) for one copy of every command template."""
        f = self.files
        ok_axioms = {k: True for k in AXIOMS}
        s3_axioms = dict(ok_axioms, commutative=False)
        center = oracles.center_invariant([1, 2, 3])
        fib_word = rng.randint(2, 12)
        g_vec = rng.randint(0, 8)
        g_fib = rng.randint(0, 12)
        g_z3 = rng.randint(0, 12)
        g_center = rng.randint(0, 6)
        fg_len = rng.randint(1, 6)
        fg_text = " ; ".join(["f ; g"] * fg_len)
        gf = oracles.mat_mul(self.g_rows, self.f_rows)
        fg_want = oracles.identity_rows(2)
        for _ in range(fg_len):
            fg_want = oracles.mat_mul(gf, fg_want)
        chain_z2 = chain_text(rng, handles)
        chain_m3 = chain_text(rng, handles)
        recon_z2 = self.tq.render_term(random_term(self.tq, rng, max_width=2))
        recon_m4 = self.tq.render_term(random_term(self.tq, rng, max_width=2))
        good = chain_text(rng, 8).split(" ; ")
        bad_char = list(" ; ".join(good))
        bad_char.insert(rng.randrange(len(bad_char)), rng.choice("$#!?"))
        bad_syntax = list(good)
        bad_syntax.insert(rng.randrange(1, len(good)), "")

        def recon_ok(payload):
            expect(payload["agree"] is True and payload["direct"] == payload["reconstructed"],
                   "recon does not agree")

        def pair_ok(payload):
            b = [str(Fraction(int(i == j), n)) for i, n in enumerate((1, 2)) for j in range(2)]
            d = [str(n * int(i == j)) for i, n in enumerate((1, 2)) for j in range(2)]
            expect(payload == {"dimU": 2, "dimV": 2, "b": [[x] for x in b], "d": [d]},
                   f"reduced pair {payload}")

        return [
            ("check", ["check", "--algebra", "z3"], ok_lines([f"{k}: ok" for k in AXIOMS])),
            ("check", ["check", "--algebra", "z3", "--json"], ok_json(lambda p: expect(p == ok_axioms, str(p)))),
            ("check", ["check", "--algebra", f["economy"], "--json"],
             ok_json(lambda p: expect(p == ok_axioms, str(p)))),
            ("check", ["check", "--algebra", f["full"]], ok_lines([f"{k}: ok" for k in AXIOMS])),
            ("check", ["check", "--algebra", "s3", "--json"], ok_json(lambda p: expect(p == s3_axioms, str(p)))),
            ("check", ["check", "--algebra", "triangular"],
             outcome(1, lambda out: expect(out == "admits_frobenius_form: false\n", out))),
            ("eval", ["eval", "--algebra", "z2", "--term", chain_z2],
             ok_json(lambda p: expect(p == scalar_matrix(2 ** handles), "z2 chain value"))),
            ("eval", ["eval", "--algebra", "milnor:3", "--term", chain_m3, "--json"],
             ok_json(lambda p: expect(p == scalar_matrix(0), "milnor:3 chain value"))),
            ("eval", ["eval", "--sig", "bord1", "--algebra", f["pair"], "--term", "coev ; swap[pp,pm] ; ev"],
             ok_json(lambda p: expect(p == [["3"]], f"loop value {p}"))),
            ("eval", ["eval", "--sig", f["sig"], "--algebra", f["interp"], "--term", fg_text],
             ok_json(lambda p: expect(p == [[str(x) for x in row] for row in fg_want], f"(gf)^n = {p}"))),
            ("invariant", ["invariant", "--algebra", "z3", "--genus", str(g_z3)],
             ok_lines([str(Fraction(3) ** g_z3)])),
            ("invariant", ["invariant", "--algebra", "center:[1,2,3]", "--genus", str(g_center), "--json"],
             ok_json(lambda p: expect(p == {"genus": g_center, "value": str(center(g_center))}, str(p)))),
            ("invariant", ["invariant", "--algebra", f["economy"], "--genus", "1", "--json"],
             ok_json(lambda p: expect(p == {"genus": 1, "value": "4"}, str(p)))),
            ("relations", ["relations", "--algebra", "z3", "--json"],
             ok_json(lambda p: expect(p["ok"] is True and len(p["relations"]) == 11, "z3 relations"))),
            ("relations", ["relations", "--algebra", "s3"],
             outcome(1, lambda out: expect(out.count(": FAIL") == 2, out[:300]))),
            ("relations", ["relations", "--sig", "bord1", "--algebra", f["pair"], "--json"],
             ok_json(lambda p: expect(p["ok"] is True and len(p["relations"]) == 2, "bord1 relations"))),
            ("reduce", ["reduce", "--algebra", "center:[1,2]"], ok_json(pair_ok)),
            ("fusion", ["fusion", f["fib"], "--word", ",".join(["tau"] * fib_word)],
             ok_lines([str(oracles.fibonacci_hom_dimension(fib_word))])),
            ("fusion", ["fusion", f["ising"], "--word", "sigma,sigma,sigma,sigma", "--json"],
             ok_json(lambda p: expect(p["hom_dimension"] == 2, str(p)))),
            ("fusion", ["fusion", f["vec_z5"], "--genus", str(g_vec), "--json"],
             ok_json(lambda p: expect(p["value"] == str(5 ** g_vec), str(p)))),
            ("fusion", ["fusion", f["fib"], "--genus", str(g_fib)], ok_lines([str(oracles.fibonacci_invariant(g_fib))])),
            ("recon", ["recon", "--algebra", "z2", "--term", recon_z2, "--json"], ok_json(recon_ok)),
            ("recon", ["recon", "--algebra", "milnor:4", "--term", recon_m4],
             outcome(0, lambda out: expect(out.endswith("\nagree: true\n"), out[-200:]))),
            ("malformed", ["check", "--algebra", f["truncated"]], diagnostic),
            ("malformed", ["check", "--algebra", f["bad_shape"], "--json"], diagnostic),
            ("malformed", ["eval", "--algebra", "z2", "--term", "".join(bad_char)], diagnostic),
            ("malformed", ["eval", "--algebra", "z2", "--term", " ; ".join(bad_syntax)], diagnostic),
            ("malformed", ["eval", "--algebra", "z2", "--term", "pants ; pants"], diagnostic),
            ("malformed", ["eval", "--algebra", "z2", "--term", f"{' ; '.join(good)} ; handle"], diagnostic),
            ("malformed", ["check", "--algebra", "z3xz3"], diagnostic),
            ("malformed", ["check", "--algebra", f"{self.dir}/missing.json"], diagnostic),
        ]
