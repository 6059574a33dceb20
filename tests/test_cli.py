"""Tests for the command-line interface and report serialization."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadrocubic
from quadrocubic import classify, cli
from quadrocubic.cli import run_cli
from quadrocubic.parser import MAX_NESTING


def _python(*args, timeout=30):
    """Run `python *args` in a fresh interpreter with the package's source
    on its path."""
    src = str(Path(quadrocubic.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=timeout)


def _cli(*argv, timeout=30):
    """Run `python -m quadrocubic *argv` as _python does."""
    return _python("-m", "quadrocubic", *argv, timeout=timeout)


def test_eval_first_system_expression(capsys):
    code = run_cli(["eval", "--n", "9", "--m", "4", "--deg", "d2", "(2H-E)^9"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "512 - 2016*d2 + 672*u6 - 144*u7 + 18*u8 - u9"


def test_eval_third_system_expression(capsys):
    code = run_cli(["eval", "--n", "9", "--m", "4", "--deg", "d2", "(2H-E)^7 (5H-3E)^2"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "3200 - 15540*d2 + 5390*u6 - 1201*u7 + 156*u8 - 9*u9"


def test_eval_trivial_and_single_monomial(capsys):
    assert run_cli(["eval", "--n", "9", "--m", "4", "--deg", "d2", "H^9"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run_cli(["eval", "--n", "9", "--m", "4", "--deg", "d2", "H^4 E^5"]) == 0
    assert capsys.readouterr().out.strip() == "d2"


def test_eval_integer_degree(capsys):
    assert run_cli(["eval", "--n", "9", "--m", "4", "--deg", "5", "H^4 E^5"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_eval_degree_symbols_inside_the_expression(capsys):
    # n = 4, m = 2, deg 3: H^4 = 1, H^3 E = 0, H^2 E^2 = -3, then u3, u4, so
    # (H - E)^4 = 1 + 6*(-3) - 4*u3 + u4 and the whole is
    # d1 - d2*(-17 - 4*u3 + u4)
    code = run_cli(["eval", "--n", "4", "--m", "2", "--deg", "3", "d1 H^4 - d2 (H - E)^4"])
    assert code == 0
    assert capsys.readouterr().out == "d1 + 17*d2 + (4*d2)*u3 + (-d2)*u4\n"


def test_eval_prints_the_rows_exclude_case2_solves(monkeypatch, capsys):
    solve_unknowns = classify.solve_unknowns
    solved = []

    def recording_solve(equations):
        solved.extend(equations)
        return solve_unknowns(equations)

    monkeypatch.setattr(classify, "solve_unknowns", recording_solve)
    classify.exclude_case2()
    assert len(solved) == 4
    for k, (form, _) in enumerate(solved):
        expr = f"(2H - E)^{9 - k} (5H - 3E)^{k}"
        assert run_cli(["eval", "--n", "9", "--m", "4", "--deg", "d2", expr]) == 0
        assert capsys.readouterr().out == f"{form}\n"


def test_eval_degree_mismatch_is_verdict_failure(capsys):
    code = run_cli(["eval", "--n", "9", "--m", "4", "--deg", "d2", "(2H-E)^8"])
    captured = capsys.readouterr()
    assert code == 1
    assert "degree" in captured.err


def test_eval_parse_error_is_usage_error(capsys):
    code = run_cli(["eval", "--n", "9", "--m", "4", "--deg", "d2", "(2H-E^2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "column" in captured.err


@pytest.mark.parametrize("expr, message", [
    ("H^100000000", "base of positive degree"),
    ("2^100000000 H^9", "scalar base"),
    ("H^20 - H^20 + H^9", "base of positive degree"),
])
def test_eval_power_above_n_is_rejected_at_once(expr, message):
    proc = _cli("eval", "--n", "9", "--m", "4", "--deg", "2", expr)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


def test_eval_names_the_first_faulty_term_as_written(capsys):
    # a sum expands its terms in written order, subtracted ones too
    assert run_cli(["eval", "--n", "9", "--m", "4", "--deg", "2", "H^9 - H^10 - H^11"]) == 1
    assert capsys.readouterr().err == (
        "error: exponent 10 exceeds n = 9 on a base of positive degree\n")


def test_enumerate_huge_n_max_runs_in_bounded_time():
    # the lemmas of scan.visits leave only the base 4..18 to scan, so the
    # stated range costs nothing; a scan of every n would never end
    proc = _cli("enumerate", "--json", "--n-max", "1000000000000")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "n_max": 10**12, "survivors": [[4, 1, 3, 2, 2, 1], [9, 1, 3, 2, 6, 4]]}


def test_verify_huge_n_max_with_pool_runs_in_bounded_time():
    # verify scans the base 4..18 whatever --n-max states, and --threads
    # splits only the base
    proc = _cli("verify", "--threads", "2", "--n-max", "1000000000000")
    assert proc.returncode == 0
    assert proc.stdout.endswith("conclusion: quadro-cubic unique\n")


def test_package_import_leaves_out_the_process_pool():
    # no module of the package imports an executor
    proc = _python("-c", "import sys, quadrocubic.cli; "
                   "print('concurrent.futures.process' in sys.modules)")
    assert proc.stdout == "False\n"


_THREADS_SCRIPT = """
import contextlib, io, json, sys
from quadrocubic.cli import run_cli

def document(threads):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_cli(["verify", "--json", "--threads", threads]) == 0
    return json.loads(out.getvalue())

two = document("2")
loaded = sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules)
print(json.dumps({"loaded": loaded, "two": two, "one": document("1")}))
"""


def test_verify_with_threads_starts_no_process():
    # --threads splits the scan into chunks run in turn: nothing loads a
    # process or thread pool, and the document is the serial one
    proc = _python("-c", _THREADS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    assert out["two"]["meta"]["config"].pop("threads") == 2
    assert out["one"]["meta"]["config"].pop("threads") == 1
    assert out["two"] == out["one"]


def test_package_import_leaves_out_dataclasses():
    # the records are hand-written classes; `dataclasses` would also load
    # inspect, ast, dis and tokenize at every start
    proc = _python("-c", "import sys, quadrocubic.cli; print('dataclasses' in sys.modules)")
    assert proc.stdout == "False\n"


def test_package_import_leaves_out_fractions():
    # all arithmetic is in integers; `fractions` would also load `decimal`
    proc = _python("-c", "import sys, quadrocubic.cli; "
                   "print('fractions' in sys.modules, 'decimal' in sys.modules)")
    assert proc.stdout == "False False\n"


@pytest.mark.parametrize("n, expr, out, err", [
    (10000, "(H+E)^10000", "", "term pairs"),
    (120, "(H+E+d1+d2)^120", "", "term pairs"),
    (1000000000, "H^1000000000", "1\n", ""),
    (10000000000, "2^10000000000 H^10000000000", "", "bits"),
], ids=["two-terms", "four-terms", "one-term", "coefficient"])
def test_eval_large_power_ends_in_bounded_time(n, expr, out, err):
    # each took from 25 s to past a minute when a power was one product per
    # factor; squaring makes H^(10^9) about 30 products, and the term-pair
    # budget refuses the products of the others before they start. Squaring
    # 2 on its way to a 10^10-bit coefficient ended in a MemoryError; the
    # coefficient budget refuses it at 2^(2^17)
    proc = _cli("eval", "--n", str(n), "--m", "1", "--deg", "1", expr, timeout=10)
    assert proc.stdout == out
    if err:
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert err in proc.stderr
    else:
        assert proc.returncode == 0 and proc.stderr == ""


def test_eval_term_pair_budget_is_checked_before_multiplying(monkeypatch, capsys):
    # (H+E)^2 (H+E)^2 ends in one product of 3 by 3 terms: refused with a
    # budget of 8 pairs, evaluated with a budget of 9
    from quadrocubic import evaluate

    monkeypatch.setattr(evaluate, "MAX_TERM_PAIRS", 8)
    argv = ["eval", "--n", "4", "--m", "2", "--deg", "d1", "(H+E)^2 (H+E)^2"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a product of 3 by 3 terms exceeds the budget "
                            "of 8 term pairs\n")
    monkeypatch.setattr(evaluate, "MAX_TERM_PAIRS", 9)
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == "1 - 6*d1 + 4*u3 + u4\n"


def test_eval_term_pair_budget_is_far_above_the_case2_system(monkeypatch):
    from quadrocubic import evaluate

    pairs, bits, mul = [], [], evaluate._mul

    def counting(p, q, n):
        pairs.append(len(p) * len(q))
        bits.append(max(map(abs, p.values())).bit_length()
                    + max(map(abs, q.values())).bit_length())
        return mul(p, q, n)

    monkeypatch.setattr(evaluate, "_mul", counting)
    classify._case2_system()
    assert max(pairs) == 28 and 1000 * max(pairs) <= evaluate.MAX_TERM_PAIRS
    assert max(bits) == 16 and 1000 * max(bits) <= evaluate.MAX_COEFFICIENT_BITS


def test_eval_coefficient_budget_is_checked_before_multiplying(monkeypatch, capsys):
    # 5^3 7^3 H^4 ends in one product of 5^3 * 7^3 = 42875, 16 bits, by the
    # 1 of H^4, 1 bit: refused with a budget of 16 bits, evaluated with 17
    from quadrocubic import evaluate

    monkeypatch.setattr(evaluate, "MAX_COEFFICIENT_BITS", 16)
    argv = ["eval", "--n", "4", "--m", "2", "--deg", "1", "5^3 7^3 H^4"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a product of coefficients of 16 and 1 bits exceeds "
                            "the budget of 16 bits\n")
    monkeypatch.setattr(evaluate, "MAX_COEFFICIENT_BITS", 17)
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == "42875\n"


def test_verify_large_ineq_max_runs_in_bounded_time():
    # the inequality above 18 is settled by a lemma, so the stated range
    # costs nothing; evaluating it value by value would take days
    proc = _cli("verify", "--json", "--n-max", "9", "--ineq-max", "1000000000000")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["conclusion"] == "quadro-cubic unique"
    step = next(s for s in doc["steps"] if s["id"] == "a1-inequality-range")
    assert step["status"] == "pass"
    assert step["witness"]["range"] == [19, 10**12]


@pytest.mark.parametrize("expr, degree", [
    (" ".join(["(H+E)^9"] * 40), 18),
    (" ".join(["(H+E)^9"] * 80), 18),
    ("((((H+E)^9)^9)^9)^9", 18),
    ("(H^9)(H^9) - (H^9)(H^9) + H^9", 18),
    ("(1+H)(H^9) - (1+H)(H^9) + H^9", 10),
    (" ".join(["(1+H+E)^9"] * 10), 18),
    ("(H^2+E^2)^7", 10),
], ids=["40-factors", "80-factors", "nested-power", "cancelling", "cancelling-top-part",
        "degree-0-part", "power-of-degree-2"])
def test_eval_product_above_n_is_rejected_before_expansion(expr, degree):
    # 40 and 80 factors used to take seconds to expand before the final
    # degree check, nested powers longer, and factors with a degree-0 part
    # about 9 s; a cancelling product is rejected too
    proc = _cli("eval", "--n", "9", "--m", "4", "--deg", "2", expr)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: expected homogeneous degree 9, found a product of degree {degree}\n")


@pytest.mark.parametrize("depth", [300, 5000])
def test_eval_nesting_past_the_bound_is_usage_error(depth, capsys):
    expr = "(" * depth + "H^3" + ")" * depth
    assert run_cli(["eval", "--n", "3", "--m", "1", "--deg", "1", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    column = MAX_NESTING + 1
    assert captured.err == (f"error: column {column}: expected at most {MAX_NESTING} "
                            f"nested groups, found '(' at depth {column}\n")


def test_eval_at_the_nesting_bound(capsys):
    expr = "(" * MAX_NESTING + "H^3" + ")" * MAX_NESTING
    assert run_cli(["eval", "--n", "3", "--m", "1", "--deg", "1", expr]) == 0
    assert capsys.readouterr().out == "1\n"


@pytest.mark.parametrize("n, expr, value", [
    (3, " + ".join(["H^3"] * 1500), "1500"),
    (1500, "*".join(["H"] * 1500), "1"),
], ids=["sum", "product"])
def test_eval_long_sum_or_product(n, expr, value, capsys):
    # the parser reads each into one tuple of 1500 terms or factors
    assert run_cli(["eval", "--n", str(n), "--m", "1", "--deg", "1", expr]) == 0
    assert capsys.readouterr().out == value + "\n"


def test_eval_overlong_literal_is_usage_error(capsys, int_str_limit):
    code = run_cli(["eval", "--n", "9", "--m", "4", "--deg", "2", "H^" + "9" * 5000])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: column 3: expected shorter integer, found 5000-digit integer\n"


def test_eval_value_too_long_to_print_is_evaluation_failure(capsys, int_str_limit):
    big = "9" * 3000
    for n, expr in ((9, f"{big} {big} H^9"), (50000, "2^50000 H^50000")):
        code = run_cli(["eval", "--n", str(n), "--m", "1", "--deg", "1", expr])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        # in the CLI's words, not the interpreter's
        assert captured.err == "error: the value has more than 4300 digits\n"


def test_eval_bad_deg_argument(capsys):
    code = run_cli(["eval", "--n", "9", "--m", "4", "--deg", "d3", "H^9"])
    assert code == 2
    assert "--deg" in capsys.readouterr().err


def test_usage_error_without_command(capsys):
    assert run_cli([]) == 2
    assert run_cli(["frobnicate"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["verify", "--n-max", "5"], "need n_max >= 9"),
    (["enumerate", "--n-max", "3"], "need n_max >= 4"),
])
def test_range_below_floor_is_usage_error(argv, message, capsys):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    # the multiplicity-one criterion is not imported, so there is no
    # switch for it
    (["verify", "--no-axiom-hc"], "unrecognized arguments: --no-axiom-hc"),
    (["enumerate", "--no-axiom-hc"], "unrecognized arguments: --no-axiom-hc"),
    (["verify", "--n-max", "x"], "argument --n-max: invalid int value: 'x'"),
    (["eval", "--m", "2", "--deg", "2", "H^4"], "the following arguments are required: --n"),
    ([], "the following arguments are required: command"),
    # the scan's base does not depend on --n-max, but the stated range
    # must still reach the second case
    (["verify", "--n-max", "8"], "need n_max >= 9: n_max is the stated range, and it "
                                 "must reach the second case at n = 9; got 8"),
    # the scan is split into K chunks, so K must be positive
    (["verify", "--threads", "0"], "argument --threads: need K >= 1, got 0"),
    (["verify", "--threads", "-3"], "argument --threads: need K >= 1, got -3"),
    # a --deg past the int-string limit is named by its length, not echoed
    (["eval", "--n", "9", "--m", "4", "--deg", "9" * 5000, "H^9"],
     "--deg is too long: a 5000-digit integer"),
    # any other long argument is echoed as its first 80 characters and its length
    (["eval", "--n", "9", "--m", "4", "--deg", "x" * 5000, "H^9"],
     f"--deg must be a positive integer, d1, or d2, got '{'x' * 80}'... (5000 characters)"),
    (["eval", "--n", "9", "--m", "4", "--deg", "2", "H" * 5000],
     f"column 1: expected 'H' or 'E' or 'd1' or 'd2', found '{'H' * 80}'... (5000 characters)"),
    # and so is a long argument in argparse's own errors, also after '='
    (["eval", "--n", "x" * 5000, "--m", "4", "--deg", "2", "H^9"],
     f"argument --n: invalid int value: '{'x' * 80}'... (5000 characters)"),
    (["enumerate", "--n-max", "x" * 5000],
     f"argument --n-max: invalid int value: '{'x' * 80}'... (5000 characters)"),
    (["verify", "--threads=" + "x" * 5000],
     f"argument --threads: invalid int value: '{'x' * 80}'... (5000 characters)"),
    (["x" * 5000], f"argument command: invalid choice: '{'x' * 80}'... (5000 characters) "
                   "(choose from 'verify', 'enumerate', 'eval', 'exclude-case2')"),
    (["enumerate", "extra", "x" * 5000],
     f"unrecognized arguments: extra '{'x' * 80}'... (5000 characters)"),
    # an integer of more than 80 digits is echoed as its leading digits and
    # its digit count, in 80 characters
    (["verify", "--threads", "-" + "9" * 4000],
     f"argument --threads: need K >= 1, got -{'9' * 62}... (4000 digits)"),
])
def test_bad_option_is_one_line_usage_error(argv, message, capsys, int_str_limit):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


NINES = "9" * 4000
CLIPPED = f"{'9' * 63}... (4000 digits)"


@pytest.mark.parametrize("argv, code, message", [
    (["verify", "--n-max", "-" + NINES], 2, "need n_max >= 9: n_max is the stated range, and it "
                                            f"must reach the second case at n = 9; got -{CLIPPED[1:]}"),
    (["enumerate", "--n-max", "-" + NINES], 2, f"need n_max >= 4, got -{CLIPPED[1:]}"),
    (["eval", "--n", "9", "--m", NINES, "--deg", "1", "H"], 2,
     f"need 1 <= m <= n-2, got n=9, m={CLIPPED}"),
    # the expander's messages
    (["eval", "--n", NINES, "--m", "1", "--deg", "1", "H"], 1,
     f"expected homogeneous degree {CLIPPED}, found degree 1"),
    (["eval", "--n", "5", "--m", "1", "--deg", "1", "H^" + NINES], 1,
     f"exponent {CLIPPED} exceeds n = 5 on a base of positive degree"),
    # an integer of 80 digits is echoed whole
    (["enumerate", "--n-max", "-" + "9" * 80], 2, f"need n_max >= 4, got -{'9' * 80}"),
])
def test_long_integer_is_echoed_clipped(argv, code, message, capsys, int_str_limit):
    assert run_cli(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    # argparse reads a value of "--" after "=" as an empty list
    (["verify", "--n-max=--"], "argument --n-max: expected one argument"),
    (["eval", "--n", "9", "--m", "4", "--deg=--", "H^9"], "argument --deg: expected one argument"),
    # a newline in an echoed argument is escaped, so the error stays one line
    (["verify", "a\nb"], "unrecognized arguments: 'a\\nb'"),
    # escapes and wide characters count towards the clip in bytes
    (["verify", "--n-max", "\x01" * 100],
     f"argument --n-max: invalid int value: {chr(1) * 20!r}... (100 characters)"),
    (["enumerate", "--n-max", "\U00020000" * 100],
     f"argument --n-max: invalid int value: {chr(0x20000) * 20!r}... (100 characters)"),
    # a list of long unrecognized arguments is cut at MESSAGE_MAX bytes
    (["enumerate", "x" * 100, "y" * 100, "z" * 100],
     f"unrecognized arguments: {'x' * 80!r}... (100 characters) {'y' * 80!r}... "
     [:cli.MESSAGE_MAX - 3] + "..."),
])
def test_bad_argument_is_one_short_line(argv, message, capsys):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_removed_option_ends_without_traceback():
    proc = _cli("verify", "--no-axiom-hc")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: unrecognized arguments: --no-axiom-hc\n"


@pytest.mark.parametrize("n, m, deg, message", [
    ("-5", "2", "3", "need 1 <= m <= n-2, got n=-5, m=2"),
    ("4", "3", "3", "need 1 <= m <= n-2, got n=4, m=3"),
    ("4", "0", "3", "need 1 <= m <= n-2, got n=4, m=0"),
    ("4", "2", "0", "--deg must be a positive integer, d1, or d2, got '0'"),
    ("4", "2", "-3", "--deg must be a positive integer, d1, or d2, got '-3'"),
])
def test_eval_bad_chart_or_degree_is_usage_error(n, m, deg, message, capsys):
    # checked before the expression is parsed: the expression is malformed
    assert run_cli(["eval", "--n", n, "--m", m, "--deg", deg, "H^4 +"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_module_entry_point_runs_the_command():
    proc = _cli("verify", "--n-max", "9", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "conclusion: quadro-cubic unique" in proc.stdout


def test_enumerate_text(capsys):
    code = run_cli(["enumerate", "--n-max", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n=4 a=1 c=3 d=2 m1=2 m2=1" in out
    assert "1 survivor(s)" in out


def test_enumerate_json(capsys):
    code = run_cli(["enumerate", "--n-max", "60", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["survivors"] == [[4, 1, 3, 2, 2, 1], [9, 1, 3, 2, 6, 4]]


def test_enumerate_a_max(capsys):
    # every survivor has a = 1, so a cap on a changed no output and the
    # option is gone: passing it is a usage error
    assert run_cli(["enumerate", "--a-max", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unrecognized arguments: --a-max 1\n"


def test_verify_report(capsys):
    # the report goes to stdout only; the option that wrote it to a file
    # is gone, and passing it is a usage error
    assert run_cli(["verify", "--report", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unrecognized arguments: --report x\n"


def test_verify_json_document(capsys):
    code = run_cli(["verify", "--n-max", "9", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert list(doc) == ["meta", "steps", "survivors", "conclusion"]
    assert list(doc["meta"]) == ["version", "config"]
    assert doc["conclusion"] == "quadro-cubic unique"
    assert doc["survivors"] == [[4, 1, 3, 2, 2, 1]]
    assert doc["meta"]["config"]["n_max"] == 9
    assert {s["id"]: s["status"] for s in doc["steps"]}["theorem-2case"] == "pass"


def test_verify_text_output(capsys):
    code = run_cli(["verify", "--n-max", "9"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == f"quadrocubic {quadrocubic.__version__}"
    assert "[pass] theorem-2case" in out
    assert "conclusion: quadro-cubic unique" in out
    assert ("[pass] theorem-2case\n"
            "    a = 1: all n, by the closed-form lemma; a >= 2: all n, by the gate lemma "
            "and the inequality above n = 18, base n = 4..18 scanned\n") in out
    assert ("[pass] a1-inequality-range\n"
            "    range 19..100000, fails throughout by the stride-4 lemma; low range 4..18, "
            "fails at: 15, 16 "
            "(the paper states it holds on all of 4..18)\n") in out


def test_verify_threads(capsys):
    code = run_cli(["verify", "--n-max", "20", "--threads", "2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["conclusion"] == "quadro-cubic unique"


def test_exclude_case2_text(capsys):
    code = run_cli(["exclude-case2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "contradiction: 49 > 31" in out
    assert "[modular-elimination]" in out


def test_exclude_case2_json(capsys):
    code = run_cli(["exclude-case2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["alpha"] == 1
    assert doc["beta_candidates"] == [7, 17, 119]
    assert doc["d2_bound"] == "32"
    assert doc["contradiction"] == "49 > 31"


def test_exclude_case2_document_is_the_verify_witness(capsys):
    assert run_cli(["exclude-case2", "--json"]) == 0
    excl = json.loads(capsys.readouterr().out)
    assert run_cli(["verify", "--n-max", "9", "--json"]) == 0
    steps = {s["id"]: s for s in json.loads(capsys.readouterr().out)["steps"]}
    assert steps["case2-exclusion"]["witness"] == excl
    assert list(excl) == ["alpha", "beta_candidates", "d2_bound", "contradiction", "chain"]

