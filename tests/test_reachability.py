"""Every function under src/quadrocubic is reached by a command.

The commands below run in-process under `sys.setprofile`, which notes
each function the interpreter enters. A function that none of them enters
serves only the tests, and belongs in `tests/` or nowhere. The few
exceptions are in ALLOWED, each with its reason.
"""

import inspect
import io
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import quadrocubic
from quadrocubic.cli import run_cli

PKG = Path(quadrocubic.__file__).resolve().parent

EVAL = ["eval", "--n", "9", "--m", "4", "--deg"]

# argv, exit code
COMMANDS = [
    (["verify"], 0),
    (["verify", "--json"], 0),
    (["verify", "--threads", "2", "--n-max", "35", "--json"], 0),
    (["enumerate"], 0),
    (["enumerate", "--json"], 0),
    (["exclude-case2"], 0),
    (["exclude-case2", "--json"], 0),
    (["verify", "--frobnicate"], 2),
    # every kind of node, a symbolic and an integral degree
    (EVAL + ["d2", "(2H-E)^8 (5H-3E) + d1 H^9 - 2 d2*H^9"], 0),
    (EVAL + ["3", "-2H^5 E^4 + (H+E)^2 H^7"], 0),
    # each error path of `eval`
    (EVAL + ["0", "H^9"], 2),  # --deg
    (["eval", "--n", "9", "--m", "8", "--deg", "2", "H^9"], 2),  # the chart
    (EVAL + ["2", "H^("], 2),  # a parse error
    (EVAL + ["2", "H^8"], 1),  # the degree of the sum
    (EVAL + ["2", "H^20"], 1),  # an exponent above n on a base of positive degree
    (EVAL + ["2", "2^20 H^9"], 1),  # ... and on a scalar base
    (EVAL + ["2", "(H^2)^5"], 1),  # the degree of a power
    (EVAL + ["2", "H^5 H^5"], 1),  # the degree of a product
    (["eval", "--n", "23", "--m", "1", "--deg", "1", "(H+E+d1+d2)^23"], 1),  # term pairs
    (["eval", "--n", "10000000000", "--m", "1", "--deg", "1",
      "2^10000000000 H^10000000000"], 1),  # coefficient bits
    (["eval", "--n", "50000", "--m", "1", "--deg", "1", "2^50000 H^50000"], 1),  # digits
]

# The functions no command enters, each with its reason. A failed check
# needs no entry: the package raises only ValueError and RuntimeError, and
# parser._syntax_error builds the parse error above.
ALLOWED = {
    # the console script's entry point, which calls run_cli
    "cli.main",
    # the name of the scan kernel, which perfbench/run.py's machine_facts
    # records beside each benchmark run; the report no longer states it
    "classify.scan_backend",
    # perfbench's eval oracle (perfbench/evalgen.py) builds each expected
    # value from table entries with LinearForm's + and scale; no command
    # adds or scales a form (tests/test_poly.py checks the oracle's calls)
    "ringeval.LinearForm.__add__",
    "ringeval.LinearForm.scale",
}


def _defined() -> dict:
    """(module, first line) -> qualified name of every function, method
    and nested function in the package's source."""
    names = {}
    for path in sorted(PKG.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                    continue  # a comprehension or a lambda is part of its function
                name = prefix + const.co_name
                if const.co_flags & inspect.CO_NEWLOCALS:  # not a class body
                    names[path.stem, const.co_firstlineno] = f"{path.stem}.{name}"
                    stack.append((const, name + ".<locals>."))
                else:
                    stack.append((const, name + "."))
    return names


def _entered() -> set:
    """(module, first line) of every package function the commands enter."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, code in COMMANDS:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert run_cli(argv) == code, argv
    finally:
        sys.setprofile(previous)
    paths = {c.co_filename: Path(c.co_filename).resolve() for c in codes}
    return {(paths[c.co_filename].stem, c.co_firstlineno)
            for c in codes if paths[c.co_filename].parent == PKG}


def test_every_function_is_reached_by_a_command(int_str_limit):
    defined = _defined()
    entered = _entered()
    missed = sorted(name for key, name in defined.items() if key not in entered)
    assert sorted(set(missed) - ALLOWED) == [], "reached by no command"
    # the allowlist names only functions that exist and that no command reaches
    assert sorted(ALLOWED - set(missed)) == []
