"""Seeded argv fuzz: every command ends in a known exit code, with at most
one short stderr line and no traceback.

The argv lists come from a fixed seed, so a failure reproduces. They
cover every command and option, with huge, negative, empty, unicode and
`=`-joined values, and expressions with long tokens and superscripts.
"""

import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout

from quadrocubic.cli import run_cli
from quadrocubic.parser import ECHO_MAX

SEED = 2409
RUNS = 700

# The longest error line, in bytes. argparse's messages are cut at
# cli.MESSAGE_MAX = 200 bytes, but the program's own may echo two integers
# of ECHO_MAX digits in full ("exponent ... exceeds n = ..."), in lines of
# up to 224 bytes; a longer integer is clipped to ECHO_MAX characters.
LINE_MAX = 230

# seconds; every command here takes milliseconds
TIME_MAX = 2.0

HUGE = "9" * 4000
WILD_INTS = ["0", "-1", "+12", "0009", "1_000", " 5 ", "9" * ECHO_MAX, "9" * (ECHO_MAX + 1),
             HUGE, "-" + HUGE, "9" * 5000, "-0" + HUGE, "-9_" + HUGE, " -" + HUGE, "٣", "５"]
JUNK = ["", "x", "é", "²", "五", "\U00020000" * 100, "é" * 200, "\x01" * 100, "a\nb",
        "'" * 100, "\\" * 100, "x" * 5000, "-", "--", "="]
# --threads only splits a serial loop into chunks, but its values stay modest
WILD = {"--threads": ["0", "-1", "-" + HUGE, " -" + HUGE, "-0" + HUGE, "x", "", "--"],
        "--deg": ["0", "-3", "d3", "9" * 100, "9" * 5000, "٣"] + JUNK,
        "--report": ["missing/report.json", ".", "missing/" + "x" * 300,
                     "missing/" + "y/" * 2000, "é" * 100, "a\nb"]}
SANE = {"--n-max": lambda rng: str(rng.randint(4, 60)),
        "--ineq-max": lambda rng: str(rng.choice([0, 1000, 100000, 200000])),
        "--threads": lambda rng: str(rng.randint(1, 3)),
        "--report": lambda rng: "report.json",
        "--n": lambda rng: str(rng.randint(3, 12)),
        "--m": lambda rng: str(rng.randint(1, 3)),
        "--deg": lambda rng: rng.choice(["d1", "d2", "1", "3"])}
OPTIONS = {"verify": ["--n-max", "--ineq-max", "--threads", "--report", "--json"],
           "enumerate": ["--n-max", "--json"],
           "eval": ["--n", "--m", "--deg"],
           "exclude-case2": ["--json"]}
COMMANDS = ["verify", "enumerate", "eval", "eval", "eval", "exclude-case2", "", "bogus",
            "é" * 100]
TOKENS = ["H", "E", "d1", "d2", "(", ")", "+", "-", "*", "^", " ", "2", "-3", "^2",
          "^9", "^⁹", "²", "H²", "^" + HUGE, "^" + "9" * 5000, "7" * 200, "9" * 5000,
          "H" * 300, "Ĥ" * 300, "#", "(2H-E)", "(H+E)^3", "d1^" + "9" * 90, "^-1", "x", "é"]


def _value(rng, option, wild):
    if rng.random() < wild:
        return rng.choice(WILD.get(option, WILD_INTS + JUNK))
    return SANE[option](rng)


def _expr(rng, n):
    """An expression of degree n in H and E, some with junk around it, or
    a run of tokens."""
    if rng.random() < 0.6 and n.isdecimal() and len(n) <= ECHO_MAX + 1:
        k = rng.randint(0, int(n))
        text = rng.choice([f"H^{n}", f"(2H-E)^{n}", f"d1 H^{n} - 3E^{n}",
                           f"(2H-E)^{k} (5H-3E)^{int(n) - k}", f"(H+E+d1)^{n}"])
        return text if rng.random() < 0.8 else text + rng.choice(TOKENS)
    return "".join(rng.choice(TOKENS) for _ in range(rng.randint(0, 6)))


def _argv(rng):
    command = rng.choice(COMMANDS)
    argv = [command] if command else []
    wild = rng.choice([0, 0.2, 0.5])  # the share of values not drawn from SANE
    values = {}
    for option in OPTIONS.get(command, []):
        if rng.random() < (0.98 if command == "eval" else 0.5):
            if option == "--json":
                argv.append(option)
                continue
            value = values[option] = _value(rng, option, wild)
            argv += [f"{option}={value}"] if rng.random() < 0.3 else [option, value]
    if command == "eval" and rng.random() < 0.95:
        argv.append(_expr(rng, values.get("--n", "")))
    for _ in range(rng.choice([0, 0, 0, 1, 2, 3]) if wild else 0):  # unknown options, extras
        argv.append(rng.choice(["--frob", "--n-max", "extra", "-x", "--json=1"] + JUNK))
    return argv


def test_seeded_argv_fuzz_ends_in_one_short_line(tmp_path, monkeypatch, int_str_limit):
    monkeypatch.chdir(tmp_path)  # where --report writes
    rng = random.Random(SEED)
    seen = set()
    for _ in range(RUNS):
        argv = _argv(rng)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(argv)
        elapsed = time.perf_counter() - start
        err = err.getvalue()
        assert code in (0, 1, 2), argv
        assert (code == 0) == (err == ""), (argv, err)
        if err:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), \
                (argv, err)
            assert len(err.encode()) <= LINE_MAX, (argv, err)
            assert "Traceback" not in err
        assert elapsed < TIME_MAX, argv
        seen.add((argv[0] if argv else None, code))
    # every command ran, and ended each way it can
    assert {("verify", 0), ("verify", 2), ("enumerate", 0), ("enumerate", 2), ("eval", 0),
            ("eval", 1), ("eval", 2), ("exclude-case2", 0), ("exclude-case2", 2)} <= seen
