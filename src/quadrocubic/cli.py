"""Command-line surface and report serialization.

Commands:
    verify        run the whole pipeline and report the verdict
    enumerate     run the candidate scan and print survivors
    eval          evaluate an intersection monomial expression
    exclude-case2 replay the nine-dimensional exclusion chain

Exit codes: 0 on success / positive verdict, 1 on a negative or refuted
verdict, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .classify import (
    VerificationReport,
    enumerate_candidates,
    exclude_case2,
    scan_backend,
    verify_main_theorem,
)
from .parser import ParseError, parse_expr
from .evaluate import eval_expr
from .ringeval import DegreeMismatch


def _plain(value):
    """Recursively convert report values to JSON-stable primitives.

    Integers stay integers, rationals render as 'p/q' in lowest terms,
    everything exotic renders through str(); key order is insertion
    order, which is fixed by construction."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [_plain(v) for v in sorted(value)]
    return str(value)


def report_document(report: VerificationReport, config: dict) -> dict:
    return {
        "meta": {"version": __version__, "backend": scan_backend(), "config": _plain(config)},
        "steps": [
            {"id": s.id, "status": s.status, "witness": _plain(s.witness)}
            for s in report.steps
        ],
        "survivors": [list(s.as_tuple()) for s in report.survivors],
        "conclusion": report.conclusion,
    }


def render_text(document: dict) -> str:
    lines = [f"quadrocubic {document['meta']['version']} "
             f"(scan backend: {document['meta']['backend']})"]
    for step in document["steps"]:
        lines.append(f"[{step['status']}] {step['id']}")
    lines.append(f"survivors: {document['survivors']}")
    lines.append(f"conclusion: {document['conclusion']}")
    return "\n".join(lines) + "\n"


def _emit(document: dict, as_json: bool, path: str | None):
    text = json.dumps(document, indent=2) + "\n" if as_json else render_text(document)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadrocubic",
        description="Exact-arithmetic classification of rank-2 double blow-ups "
                    "of projective space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification pipeline")
    p_verify.add_argument("--n-max", type=int, default=200)
    p_verify.add_argument("--ineq-max", type=int, default=100000)
    p_verify.add_argument("--no-axiom-hc", action="store_true",
                          help="disable the imported multiplicity-one criterion")
    p_verify.add_argument("--threads", type=int, default=1)
    p_verify.add_argument("--report", metavar="PATH")
    p_verify.add_argument("--json", action="store_true")

    p_enum = sub.add_parser("enumerate", help="run the candidate scan")
    p_enum.add_argument("--n-max", type=int, default=200)
    p_enum.add_argument("--a-max", type=int, default=None)
    p_enum.add_argument("--no-axiom-hc", action="store_true")
    p_enum.add_argument("--json", action="store_true")

    p_eval = sub.add_parser("eval", help="evaluate an intersection expression")
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--m", type=int, required=True)
    p_eval.add_argument("--deg", required=True,
                        help="center degree: an integer, d1, or d2")
    p_eval.add_argument("expr")

    p_excl = sub.add_parser("exclude-case2", help="replay the exclusion chain")
    p_excl.add_argument("--json", action="store_true")
    return parser


def _usage_error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    if args.command == "verify":
        try:
            report = verify_main_theorem(
                n_max=args.n_max,
                ineq_max=args.ineq_max,
                use_hc_axiom=not args.no_axiom_hc,
                workers=args.threads,
            )
        except ValueError as exc:
            return _usage_error(exc)
        config = {"n_max": args.n_max, "ineq_max": args.ineq_max,
                  "hc_axiom": not args.no_axiom_hc, "threads": args.threads}
        _emit(report_document(report, config), args.json, args.report)
        return 0 if report.conclusion == "quadro-cubic unique" else 1

    if args.command == "enumerate":
        try:
            survivors = enumerate_candidates(
                args.n_max, a_max_override=args.a_max,
                use_hc_axiom=not args.no_axiom_hc,
            )
        except ValueError as exc:
            return _usage_error(exc)
        if args.json:
            doc = {"n_max": args.n_max, "survivors": [list(s.as_tuple()) for s in survivors]}
            sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        else:
            for s in survivors:
                print(f"n={s.n} a={s.a} c={s.c} d={s.d} m1={s.m1} m2={s.m2}")
            print(f"{len(survivors)} survivor(s) for n <= {args.n_max}")
        return 0

    if args.command == "eval":
        deg = args.deg if args.deg in ("d1", "d2") else None
        if deg is None:
            try:
                deg = int(args.deg)
            except ValueError:
                print(f"error: --deg must be an integer, d1, or d2, got {args.deg!r}",
                      file=sys.stderr)
                return 2
        try:
            ast = parse_expr(args.expr)
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            result = eval_expr(ast, args.n, args.m, deg)
        except (DegreeMismatch, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(result)
        return 0

    if args.command == "exclude-case2":
        witness = exclude_case2()
        doc = {
            "alpha": witness.alpha,
            "beta_candidates": sorted(witness.beta_candidates),
            "d2_bound": str(witness.d2_bound),
            "contradiction": witness.contradiction,
            "chain": [list(s) for s in witness.steps],
        }
        if args.json:
            sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        else:
            for step_id, detail in witness.steps:
                print(f"[{step_id}] {detail}")
            print(f"contradiction: {witness.contradiction}")
        return 0

    return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
