"""Command-line interface.

Subcommands: check, eval, invariant, relations, reduce, fusion, recon.
Algebra specs are built-in names (z2, z3, s3, milnor:d, center:[n1,...],
triangular) or paths to algebra JSON files.  Exit codes: 0 on success,
1 when a check / relation / reconstruction report fails, 2 on parse,
IO or shape errors (with a one-line diagnostic naming the input and
position).  All scalars print exactly as p/q.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import algebras, dualpairs, fusion, surfaces
from .evaluate import Interpretation, check_relations, eval_term, bend_state, reconstruct_map
from .exactlin import ShapeError, matrix_from_json, matrix_to_json, scalar_to_str
from .frobenius import (
    AxiomReport,
    FrobeniusAlgebra,
    admits_frobenius_form,
    algebra_from_json,
    check_axioms,
    circle_interpretation,
)
from .terms import Signature, TermError, parse_term, signature_from_json, typecheck

__all__ = ["main", "run"]


class CliError(Exception):
    """Input error: maps to exit code 2 with a one-line diagnostic."""


def _fail(context: str, message: str) -> "CliError":
    return CliError(f"{context}: {message}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _fail(path, f"cannot read: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise _fail(path, f"invalid JSON at line {exc.lineno} column {exc.colno}") from exc


def _load_algebra(spec: str) -> FrobeniusAlgebra:
    if os.path.exists(spec) or spec.endswith(".json"):
        obj = _load_json(spec)
        try:
            return algebra_from_json(obj)
        except (ValueError, ShapeError) as exc:
            raise _fail(spec, str(exc)) from exc
    try:
        return algebras.builtin_algebra(spec)
    except KeyError:
        raise _fail(spec, "unknown algebra (not a file, not a built-in name)") from None
    except ValueError as exc:
        raise _fail(spec, str(exc)) from exc


def _load_signature(spec: str) -> Signature:
    if spec == "bord1":
        return dualpairs.bord1_signature()
    if spec == "bord2":
        return surfaces.bord2_signature()
    obj = _load_json(spec)
    try:
        return signature_from_json(obj)
    except (ValueError, TermError) as exc:
        raise _fail(spec, str(exc)) from exc


def _load_interpretation(sig_spec: str, algebra_spec: str) -> Interpretation:
    if sig_spec == "bord2":
        alg = _load_algebra(algebra_spec)
        try:
            return surfaces.frobenius_interpretation(alg)
        except ValueError as exc:
            raise _fail(algebra_spec, str(exc)) from exc
    if sig_spec == "bord1":
        obj = _load_json(algebra_spec)
        try:
            pair = dualpairs.dual_pair_from_json(obj)
            return dualpairs.dual_pair_interpretation(pair)
        except (ValueError, ShapeError) as exc:
            raise _fail(algebra_spec, str(exc)) from exc
    sig = _load_signature(sig_spec)
    obj = _load_json(algebra_spec)
    try:
        dims = {k: int(v) for k, v in obj["dims"].items()}
        mats = {k: matrix_from_json(v) for k, v in obj["matrices"].items()}
        return Interpretation(sig, dims, mats)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _fail(algebra_spec, f"bad interpretation: {exc}") from exc


def _load_term(spec: str, sig: Signature):
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _fail(spec, f"cannot read: {exc.strerror or exc}") from exc
        context = spec
    else:
        text = spec
        context = "term"
    try:
        return parse_term(text, sig)
    except TermError as exc:
        raise _fail(context, str(exc)) from exc


def _emit(payload, as_json: bool, text: str | None = None) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        print(text if text is not None else payload)


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
    term = _load_term(args.term, interp.sig)
    result = eval_term(term, interp)
    print(json.dumps(matrix_to_json(result)))
    return 0


def _cmd_invariant(args) -> int:
    alg = _load_algebra(args.algebra)
    try:
        value = surfaces.surface_invariant(alg, args.genus)
    except ValueError as exc:
        raise _fail(args.algebra, str(exc)) from exc
    _emit({"genus": args.genus, "value": scalar_to_str(value)}, args.json, scalar_to_str(value))
    return 0


def _cmd_relations(args) -> int:
    if args.sig == "bord2":
        # bypass the commutativity gate so that failures are reported, not raised
        report = check_relations(circle_interpretation(_load_algebra(args.algebra)))
        if not AxiomReport.from_relations(report).is_frobenius:
            raise _fail(args.algebra, "not a Frobenius algebra; run 'check' for details")
    else:
        report = check_relations(_load_interpretation(args.sig, args.algebra))
    _emit(report.to_json(), args.json, report.describe())
    return 0 if report.ok else 1


def _cmd_reduce(args) -> int:
    alg = _load_algebra(args.algebra)
    try:
        pair = surfaces.reduce_along_circle(alg)
    except ValueError as exc:
        raise _fail(args.algebra, str(exc)) from exc
    print(json.dumps(dualpairs.dual_pair_to_json(pair)))
    return 0


def _cmd_fusion(args) -> int:
    obj = _load_json(args.ring)
    try:
        ring = fusion.fusion_ring_from_json(obj)
    except ValueError as exc:
        raise _fail(args.ring, str(exc)) from exc
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
    try:
        alg = fusion.grothendieck_frobenius(ring)
    except ValueError as exc:
        raise _fail(args.ring, str(exc)) from exc
    value = surfaces.surface_invariant(alg, args.genus)
    _emit({"genus": args.genus, "value": scalar_to_str(value)}, args.json, scalar_to_str(value))
    return 0


def _cmd_recon(args) -> int:
    interp = _load_interpretation("bord2", args.algebra)
    term = _load_term(args.term, interp.sig)
    src, tgt = typecheck(term, interp.sig)
    direct = eval_term(term, interp)
    state = bend_state(term, interp)
    rebuilt = reconstruct_map(state, src, tgt, interp)
    agree = direct == rebuilt
    payload = {
        "direct": matrix_to_json(direct),
        "reconstructed": matrix_to_json(rebuilt),
        "agree": agree,
    }
    _emit(
        payload,
        args.json,
        "direct:        "
        + json.dumps(matrix_to_json(direct))
        + "\nreconstructed: "
        + json.dumps(matrix_to_json(rebuilt))
        + f"\nagree: {str(agree).lower()}",
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TermError, ShapeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
