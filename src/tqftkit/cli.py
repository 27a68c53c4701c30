"""Command-line interface.

Subcommands: check, eval, invariant, relations, reduce, fusion, recon.
Algebra specs are built-in names (z2, z3, s3, milnor:d, center:[n1,...],
triangular) or paths to algebra JSON files.  Exit codes: 0 on success,
1 when a check / relation / reconstruction report fails, 2 on parse,
IO or shape errors (with a one-line diagnostic naming the input and
position) and, as a last resort, when an input exhausts memory or the
nesting depth.  All scalars print exactly as p/q.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache

from . import algebras, dualpairs, fusion, surfaces
from .evaluate import Interpretation, bend_value, check_relations, eval_term, reconstruct_map
from .exactlin import (
    ShapeError,
    integer_from_json,
    matrix_from_json,
    matrix_to_json,
    object_from_json,
    scalar_to_str,
)
from .frobenius import (
    AxiomReport,
    FrobeniusAlgebra,
    admits_frobenius_form,
    algebra_from_json,
    check_axioms,
)
from .terms import Signature, Term, TermError, parse_term, signature_from_json, typecheck

__all__ = ["main", "run"]


class CliError(Exception):
    """Input error: maps to exit code 2 with a one-line diagnostic."""


def _fail(context: str, message: str) -> "CliError":
    return CliError(f"{context}: {message}")


@contextmanager
def _blamed(context: str):
    """Report an input error raised inside the block as one naming ``context``."""
    try:
        yield
    except (ValueError, TermError) as exc:
        raise _fail(context, str(exc)) from exc


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _fail(path, f"cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _fail(path, f"not UTF-8 text at byte {exc.start}") from exc


def _load_json(path: str):
    text = _read(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(path, f"invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except ValueError as exc:  # an integer over the interpreter's digit limit
        raise _fail(path, str(exc)) from exc


def _load_algebra(spec: str) -> FrobeniusAlgebra:
    if os.path.exists(spec) or spec.endswith(".json"):
        obj = _load_json(spec)
        with _blamed(spec):
            return algebra_from_json(obj)
    with _blamed(spec):
        try:
            return algebras.builtin_algebra(spec)
        except KeyError:
            raise ValueError("unknown algebra (not a file, not a built-in name)") from None


def _load_interpretation(sig_spec: str, algebra_spec: str) -> Interpretation:
    if sig_spec == "bord2":
        alg = _load_algebra(algebra_spec)
        with _blamed(algebra_spec):
            return surfaces.frobenius_interpretation(alg)
    if sig_spec == "bord1":
        obj = _load_json(algebra_spec)
        with _blamed(algebra_spec):
            return dualpairs.dual_pair_from_json(obj).interpretation
    sig_obj = _load_json(sig_spec)
    with _blamed(sig_spec):
        sig = signature_from_json(sig_obj)
    obj = _load_json(algebra_spec)
    try:
        obj = object_from_json(obj, "top level")
        dims = {k: integer_from_json(v) for k, v in object_from_json(obj["dims"], "dims").items()}
        mats = {k: matrix_from_json(v) for k, v in object_from_json(obj["matrices"], "matrices").items()}
        return Interpretation(sig, dims, mats)
    except (KeyError, TypeError, ValueError) as exc:
        raise _fail(algebra_spec, f"bad interpretation: {exc}") from exc


def _load_term(spec: str, sig: Signature) -> Term:
    """The term a --term argument names, typechecked against ``sig``; its
    type is kept, so typechecking it again against ``sig`` walks nothing."""
    if os.path.exists(spec):
        text = _read(spec)
        context = spec
    else:
        text = spec
        context = "term"
    with _blamed(context):
        return parse_term(text, sig)


def _emit(payload, as_json: bool, text: str) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False) if as_json else text)


def _cmd_check(args) -> int:
    spec = args.algebra
    if spec == "triangular" and not os.path.exists(spec):
        dim, mu, eta = algebras.upper_triangular_algebra()
        ok = admits_frobenius_form(dim, mu, eta)
        _emit(
            {"algebra": spec, "admits_frobenius_form": ok},
            args.json,
            f"admits_frobenius_form: {str(ok).lower()}",
        )
        return 0 if ok else 1
    alg = _load_algebra(spec)
    report = check_axioms(alg)
    _emit(report.to_json(), args.json, report.describe())
    return 0 if report.is_frobenius else 1


def _cmd_eval(args) -> int:
    interp = _load_interpretation(args.sig, args.algebra)
    result = eval_term(_load_term(args.term, interp.sig), interp)
    print(json.dumps(matrix_to_json(result)))
    return 0


def _cmd_invariant(args) -> int:
    alg = _load_algebra(args.algebra)
    with _blamed(args.algebra):
        value = surfaces.surface_invariant(alg, args.genus)
    _emit({"genus": args.genus, "value": scalar_to_str(value)}, args.json, scalar_to_str(value))
    return 0


def _cmd_relations(args) -> int:
    if args.sig == "bord2":
        # bypass the commutativity gate so that failures are reported, not raised
        report = check_relations(_load_algebra(args.algebra).interpretation)
        if not AxiomReport.from_relations(report).is_frobenius:
            raise _fail(args.algebra, "not a Frobenius algebra; run 'check' for details")
    else:
        report = check_relations(_load_interpretation(args.sig, args.algebra))
    _emit(report.to_json(), args.json, report.describe())
    return 0 if report.ok else 1


def _cmd_reduce(args) -> int:
    alg = _load_algebra(args.algebra)
    with _blamed(args.algebra):
        pair = surfaces.reduce_along_circle(alg)
    print(json.dumps(dualpairs.dual_pair_to_json(pair)))
    return 0


def _cmd_fusion(args) -> int:
    obj = _load_json(args.ring)
    with _blamed(args.ring):
        ring = fusion.fusion_ring_from_json(obj)
    report = fusion.validate_fusion_ring(ring)
    if not report.ok:
        raise _fail(args.ring, f"invalid fusion ring: {report.failures[0][0]} at {report.failures[0][1]}")
    if args.word is not None:
        try:
            word = [ring.label_index(name.strip()) for name in args.word.split(",") if name.strip()]
        except KeyError as exc:
            raise _fail(args.ring, str(exc.args[0])) from exc
        value = fusion.hom_dimension(ring, word)
        _emit({"word": args.word, "hom_dimension": value}, args.json, str(value))
        return 0
    with _blamed(args.ring):
        value = surfaces.surface_invariant(fusion.grothendieck_frobenius(ring), args.genus)
    _emit({"genus": args.genus, "value": scalar_to_str(value)}, args.json, scalar_to_str(value))
    return 0


def _cmd_recon(args) -> int:
    interp = _load_interpretation("bord2", args.algebra)
    term = _load_term(args.term, interp.sig)
    src, tgt = typecheck(term, interp.sig)
    direct = eval_term(term, interp)
    rebuilt = reconstruct_map(bend_value(direct, src, interp), src, tgt, interp)
    agree = direct == rebuilt
    payload = {"direct": matrix_to_json(direct), "reconstructed": matrix_to_json(rebuilt), "agree": agree}
    _emit(
        payload,
        args.json,
        f"direct:        {json.dumps(payload['direct'])}\n"
        f"reconstructed: {json.dumps(payload['reconstructed'])}\n"
        f"agree: {str(agree).lower()}",
    )
    return 0 if agree else 1


@cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqftkit",
        description="Evaluate bordism-style term languages as exact linear maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="Frobenius axiom report for an algebra")
    p.add_argument("--algebra", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("eval", help="evaluate a term to its matrix")
    p.add_argument("--sig", default="bord2", help="bord1, bord2, or a signature JSON file")
    p.add_argument("--algebra", required=True)
    p.add_argument("--term", required=True, help="term file or inline DSL text")
    add_json(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("invariant", help="closed genus-g surface value")
    p.add_argument("--algebra", required=True)
    p.add_argument("--genus", type=int, required=True)
    add_json(p)
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("relations", help="evaluate every defining relation pair")
    p.add_argument("--sig", default="bord2")
    p.add_argument("--algebra", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("reduce", help="dual pair of the circle reduction")
    p.add_argument("--algebra", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("fusion", help="invariant-space dimensions of a fusion ring")
    p.add_argument("ring", help="fusion ring JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="comma-separated label names")
    group.add_argument("--genus", type=int, help="genus of the reduced surface invariant")
    add_json(p)
    p.set_defaults(func=_cmd_fusion)

    p = sub.add_parser("recon", help="compare direct evaluation with bend/reconstruct")
    p.add_argument("--algebra", required=True)
    p.add_argument("--term", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_recon)

    return parser


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help; keep its choice
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, TermError, ShapeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # last resort: the input was too large or too deep for this process
    except MemoryError:
        print("error: out of memory; the input is too large to evaluate", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the input is nested too deeply to process", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
