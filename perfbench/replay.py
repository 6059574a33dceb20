"""Traced runs of the program's own `verify`, `enumerate`,
`exclude-case2` and `eval` paths.

Nothing here re-implements the program: a traced run calls `cli.run_cli`
itself. Before the call, span-timing wrappers replace the layer functions
in the namespaces the program looks them up in (`classify` for the
pipeline's layers, `cli` for parsing, evaluation and serialization), and
the originals are put back afterwards. Layers are wrapped by name, the
private ones too (`_check_lattice_symbolics`, `_scan_range`, `_attribute`),
so a rename breaks the benchmark loudly. `enumerate_candidates` and
`exclude_case2` are wrapped in both namespaces: `verify_main_theorem` finds
them in `classify`, the `enumerate` and `exclude-case2` commands in `cli`.

Two layers of `verify_main_theorem` are inline loops with no function of
their own. The inequality range runs from the first call of
`a1_inequality_holds` to the first call of `a1_ratio_stride_increases`,
and the stride probe from there to the call of `enumerate_candidates`.
Each of those first-call wrappers puts the original back at once, so the
rest of the loop runs unwrapped.

Pool workers are forked with the wrappers in place. A worker times its scan
chunk and writes the times to a pipe; the parent reads them when
`enumerate_candidates` returns. perf_counter is the system-wide monotonic
clock on Linux, so the times line up with the parent's spans.

Run as a script, this file traces one `verify` command in a fresh
interpreter and prints one JSON line: exit code, spans, layer counts and
the report document. Usage (from the repository root, with `src` on
PYTHONPATH):

    python3 perfbench/replay.py verify --json [--n-max N] [--threads K] ...
"""

from __future__ import annotations

import functools
import io
import json
import os
import sys
import time
from contextlib import ExitStack, contextmanager, redirect_stdout
from dataclasses import asdict

from quadrocubic import classify, cli
from quadrocubic.ringeval import LinearForm

from spans import Tracer


def spanned(tr: Tracer, name: str, fn, after=None):
    """`fn` inside a span called `name`; `after` sees each result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tr.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    return wrapper


def replace(stack: ExitStack, owner, name: str, make):
    """Replace `owner.name` by `make(original)` until the stack closes."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    stack.callback(setattr, owner, name, original)


@contextmanager
def eval_layers(tr: Tracer):
    """Time parsing, evaluation and formatting inside `cli.run_cli`."""
    with ExitStack() as stack:
        replace(stack, cli, "parse_expr", lambda f: spanned(tr, "parser.parse", f))
        replace(stack, cli, "eval_expr", lambda f: spanned(tr, "evaluate.eval", f))
        replace(stack, LinearForm, "__str__", lambda f: spanned(tr, "ringeval.format", f))
        yield


def _drain(fd: int) -> list[bytes]:
    chunks = []
    while True:
        try:
            chunk = os.read(fd, 65536)
        except BlockingIOError:
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks).splitlines()


def trace_command(argv: list[str], tr: Tracer) -> tuple[int, str, dict]:
    """Run `cli.run_cli(argv)`, a `verify`, `enumerate` or `exclude-case2`
    command, with the pipeline's layers timed: (exit code, its standard
    output, layer counts)."""
    counts = {"scan.survivors": 0, "classify.attributed": 0}
    marks: dict[str, float] = {}
    parent_pid = os.getpid()
    read_fd, write_fd = os.pipe()
    os.set_blocking(read_fd, False)

    def first_call(mark: str, owner, name: str):
        """Note the first call's time, then put the original back."""
        def make(original):
            def once(*args):
                marks[mark] = time.perf_counter()
                setattr(owner, name, original)
                return original(*args)

            return once

        return make

    def timed_scan(scan_range):
        @functools.wraps(scan_range)
        def wrapper(*args):
            start = time.perf_counter()
            raw = scan_range(*args)
            end = time.perf_counter()
            if os.getpid() == parent_pid:
                tr.add("scan.scan_chunk", start, end)
                counts["scan.survivors"] += len(raw)
            else:  # a pool worker
                os.write(write_fd, json.dumps([start, end, len(raw)]).encode() + b"\n")
            return raw

        return wrapper

    def traced_enumerate(enumerate_candidates):
        @functools.wraps(enumerate_candidates)
        def wrapper(*args, **kwargs):
            marks["enumerate"] = time.perf_counter()
            with tr.span("classify.enumerate") as index:
                survivors = enumerate_candidates(*args, **kwargs)
            for line in _drain(read_fd):
                start, end, found = json.loads(line)
                tr.add("scan.scan_chunk", start, end, parent=index)
                counts["scan.survivors"] += found
            return survivors

        return wrapper

    def count(key, value):
        counts[key] = counts.get(key, 0) + value

    out = io.StringIO()
    try:
        with ExitStack() as stack:
            replace(stack, classify, "_check_lattice_symbolics", lambda f: spanned(
                tr, "lattice.symbolics", f, lambda w: count("lattice.checked", w["checked"])))
            replace(stack, classify, "a1_inequality_holds",
                    first_call("ineq", classify, "a1_inequality_holds"))
            replace(stack, classify, "a1_ratio_stride_increases",
                    first_call("probe", classify, "a1_ratio_stride_increases"))
            for owner in (classify, cli):
                replace(stack, owner, "enumerate_candidates", traced_enumerate)
                replace(stack, owner, "exclude_case2",
                        lambda f: spanned(tr, "classify.exclusion", f))
            replace(stack, classify, "_scan_range", timed_scan)
            replace(stack, classify, "_attribute", lambda f: spanned(
                tr, "classify.attribute", f, lambda _: count("classify.attributed", 1)))
            replace(stack, classify, "derive_case2_betti",
                    lambda f: spanned(tr, "betti.replay", f))
            replace(stack, classify, "solve_unknowns",
                    lambda f: spanned(tr, "ringeval.solve", f))
            replace(stack, cli, "report_document", lambda f: spanned(tr, "cli.serialize", f))
            replace(stack, cli, "_emit", lambda f: spanned(tr, "cli.serialize", f))
            with redirect_stdout(out):
                rc = cli.run_cli(argv)
    finally:
        os.close(read_fd)
        os.close(write_fd)

    text = out.getvalue()
    if argv[0] != "verify":
        return rc, text, counts
    missing = {"ineq", "probe", "enumerate"} - set(marks)
    if missing:
        raise RuntimeError(f"verify no longer reaches the traced layers: {sorted(missing)}")
    tr.add("classify.ineq_range", marks["ineq"], marks["probe"])
    tr.add("classify.stride_probe", marks["probe"], marks["enumerate"])
    counts["cli.report_bytes"] = len(text.encode())
    return rc, text, counts


def computed_counts(document: dict) -> dict:
    """Counts computed from the inequality range the report states."""
    step = next(s for s in document["steps"] if s["id"] == "a1-inequality-range")
    hi = step["witness"]["range"][1]
    return {
        "classify.ineq_values": hi - 18,
        # operand size of the probe's last cross multiplication
        "classify.stride_probe_max_bits": (classify._a1_rhs(hi) * (hi - 3) ** 2).bit_length(),
    }


def main(argv: list[str]) -> int:
    tr = Tracer()
    rc, text, counts = trace_command(argv, tr)
    document = json.loads(text)
    counts.update(computed_counts(document))
    print(json.dumps({"rc": rc, "spans": [asdict(s) for s in tr.spans],
                      "counts": counts, "document": document}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
