"""Command-line surface and report serialization.

Commands:
    verify        run the whole pipeline and report the verdict
    enumerate     run the candidate scan and print survivors
    eval          evaluate an intersection monomial expression
    exclude-case2 replay the nine-dimensional exclusion chain

Exit codes: 0 on success / positive verdict, 1 on a negative or refuted
verdict or a failed check, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .classify import enumerate_candidates, exclude_case2, verify_main_theorem
from .parser import ParseError, clip, parse_expr, quote
from .evaluate import eval_expr

# The longest message of a usage error that argparse reports, in bytes.
MESSAGE_MAX = 200


def report_document(report: dict, config: dict) -> dict:
    """The `verify --json` document: "meta", then verify_main_theorem's report."""
    return {"meta": {"version": __version__, "config": config}, **report}


def _listed(values: list) -> str:
    return ", ".join(map(str, values)) or "none"


def render_text(document: dict) -> str:
    lines = [f"quadrocubic {document['meta']['version']}"]
    for step in document["steps"]:
        lines.append(f"[{step['status']}] {step['id']}")
        w = step["witness"]
        if step["status"] == "fail":
            lines.append(f"    {w['error']}")
        elif step["id"] == "a1-inequality-range":
            (lo, hi), (low_lo, low_hi) = w["range"], w["low_range"]
            lines.append(f"    range {lo}..{hi}, fails throughout by the stride-{w['stride']} "
                         f"lemma; low range {low_lo}..{low_hi}, fails at: "
                         f"{_listed(w['fails_in_low_range'])} "
                         f"(the paper states it holds on all of {low_lo}..{low_hi})")
        elif step["id"] == "theorem-2case":
            cover = w["coverage"]
            lo, hi = cover["a_ge_2_base"]
            lines.append(f"    a = 1: {cover['a1']}; a >= 2: {cover['a_ge_2']}, "
                         f"base n = {lo}..{hi} scanned")
    lines.append(f"survivors: {document['survivors']}")
    lines.append(f"conclusion: {document['conclusion']}")
    return "\n".join(lines) + "\n"


def _emit(document: dict, as_json: bool):
    sys.stdout.write(json.dumps(document, indent=2) + "\n" if as_json else render_text(document))


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        self.argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        """A bad option is a usage error: one line on stderr, exit 2. An
        argument, or the value after its '=', that `quote` clips or that
        holds a character it escapes (a newline) is echoed as `quote` gives
        it. A message still longer than MESSAGE_MAX bytes (a list of
        unrecognized arguments) is cut to that length, "..." included."""
        for arg in self.argv:
            for text in (arg, arg.partition("=")[2]):
                if quote(text) != repr(text) or not text.isprintable():
                    message = message.replace(repr(text), quote(text)).replace(text, quote(text))
        if len(message.encode()) > MESSAGE_MAX:
            message = message.encode()[:MESSAGE_MAX - 3].decode(errors="ignore") + "..."
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadrocubic",
        description="Exact-arithmetic classification of rank-2 double blow-ups "
                    "of projective space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification pipeline")
    p_verify.add_argument("--n-max", type=int, default=200)
    p_verify.add_argument("--ineq-max", type=int, default=100000)
    p_verify.add_argument("--threads", type=int, default=1)
    p_verify.add_argument("--json", action="store_true")

    p_enum = sub.add_parser("enumerate", help="run the candidate scan")
    p_enum.add_argument("--n-max", type=int, default=200)
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


def _error(message: object, code: int = 2) -> int:
    """Print one error line; return the exit code, 2 (usage) or 1 (failed check)."""
    print(f"error: {message}", file=sys.stderr)
    return code


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse reads "--n=--" as an empty list, not as a missing value
        for name, value in vars(args).items():
            if value == []:
                parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
        if args.command == "verify" and args.threads < 1:
            parser.error(f"argument --threads: need K >= 1, got {clip(args.threads)}")
    except SystemExit as exc:
        return 2 if exc.code else 0

    if args.command == "verify":
        try:
            report = verify_main_theorem(
                n_max=args.n_max, ineq_max=args.ineq_max, workers=args.threads
            )
        except ValueError as exc:
            return _error(exc)
        config = {"n_max": args.n_max, "ineq_max": args.ineq_max, "threads": args.threads}
        _emit(report_document(report, config), args.json)
        return 0 if report["conclusion"] == "quadro-cubic unique" else 1

    if args.command == "enumerate":
        try:
            survivors = enumerate_candidates(args.n_max)
        except ValueError as exc:
            return _error(exc)
        except RuntimeError as exc:  # a kernel survivor the predicates refuse
            return _error(exc, 1)
        if args.json:
            doc = {"n_max": args.n_max, "survivors": [list(s) for s in survivors]}
            sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        else:
            for n, a, c, d, m1, m2 in survivors:
                print(f"n={n} a={a} c={c} d={d} m1={m1} m2={m2}")
            print(f"{len(survivors)} survivor(s) for n <= {args.n_max}")
        return 0

    if args.command == "eval":
        deg = args.deg
        if deg not in ("d1", "d2"):
            try:
                deg = int(deg)
            except ValueError:  # not an integer, or one longer than the int-string limit
                digits = args.deg.strip().lstrip("+-")
                if digits.isdecimal() and 0 < sys.get_int_max_str_digits() < len(digits):
                    return _error(f"--deg is too long: a {len(digits)}-digit integer")
                deg = 0
            if deg <= 0:
                return _error(
                    f"--deg must be a positive integer, d1, or d2, got {quote(args.deg)}")
        if not 1 <= args.m <= args.n - 2:
            return _error(f"need 1 <= m <= n-2, got n={clip(args.n)}, m={clip(args.m)}")
        try:
            ast = parse_expr(args.expr)
        except ParseError as exc:
            return _error(exc)
        try:
            # a DegreeMismatch and the expander's budgets are ValueErrors
            form = eval_expr(ast, args.n, args.m, deg)
        except ValueError as exc:
            return _error(exc, 1)
        try:
            text = str(form)
        except ValueError:  # a coefficient past the interpreter's int-string limit
            return _error(f"the value has more than {sys.get_int_max_str_digits()} digits", 1)
        print(text)
        return 0

    if args.command == "exclude-case2":
        try:
            witness = exclude_case2()
        except RuntimeError as exc:  # an ExclusionFailure
            return _error(exc, 1)
        if args.json:
            sys.stdout.write(json.dumps(witness, indent=2) + "\n")
        else:
            for step_id, detail in witness["chain"]:
                print(f"[{step_id}] {detail}")
            print(f"contradiction: {witness['contradiction']}")
        return 0

    return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
