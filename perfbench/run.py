#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the quadrocubic CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives the program in a closed loop: each operation starts when
the previous one has finished. An operation is a `verify` process on the
`verify-*` workloads, and one in-process command of a seeded stream on
`pipeline-stream` (pipelinegen.py) and `eval-stream` (evalgen.py).
`--trace 0` measures the end-to-end metrics;
`--trace 1` is a separate run that alternates untraced operations with
traced runs of the program (replay.py) and reports per-layer self times
and counts.
Every operation's output is checked. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it holds the machine facts. Spans are written to
perfbench/out/ at the end of a traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout, suppress
from dataclasses import asdict, dataclass
from pathlib import Path

from pipelinegen import verify_document_ok
from spans import Span, Tracer, self_times, top_level_total

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

VERIFY_WORKLOADS = {
    "verify-default": ["verify", "--json"],
    "verify-pool": ["verify", "--json", "--threads", "2"],
    "ineq-wide": ["verify", "--json", "--n-max", "9", "--ineq-max", "200000"],
}
PIPELINE_WORKLOAD = "pipeline-stream"
EVAL_WORKLOAD = "eval-stream"
WORKLOADS = [*VERIFY_WORKLOADS, PIPELINE_WORKLOAD, EVAL_WORKLOAD]
EVAL_STREAM_SIZE = 1000
SETUP_SAMPLES = 9
TRIM_SHARE = 0.2


def trimmed_mean(samples) -> float:
    """Mean of the samples left after dropping TRIM_SHARE of them at each end."""
    ordered = sorted(samples)
    k = int(len(ordered) * TRIM_SHARE)
    return statistics.fmean(ordered[k:len(ordered) - k])


# How a command's repetitions within one run are summarised. The choice
# was made by measurement (perfbench/README.md, "Noise on this host"): a
# `verify` command at its default size runs for seconds, and the trimmed
# mean of its repetitions moved less from run to run than their median or
# their fastest; a stream's commands run for milliseconds, and each
# command's fastest repetition moved least.
VERIFY_SUMMARY = trimmed_mean
STREAM_SUMMARY = min
# every child is killed by then, so a run ends within the 180 s allowed
RUN_DEADLINE_S = 170.0

CLI_CODE = ("import sys; from quadrocubic.cli import main; "
            "sys.argv[0] = 'quadrocubic'; main()")
# one pass over a command stream in a fresh interpreter: argv lists in on
# stdin, [exit code, stdout, stderr] of each command out on stdout
STREAM_CHILD_CODE = """\
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from quadrocubic.cli import run_cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run_cli(argv)
    results.append([rc, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
}
PER_LAYER_UNITS = {
    "scan.scan_s": "s", "scan.candidates": "count", "scan.candidates_per_s": "1/s",
    "scan.survivors": "count",
    "classify.pool_imbalance": "ratio", "classify.pool_overhead_s": "s",
    "classify.attribute_s": "s", "classify.attributed": "count",
    "classify.ineq_range_s": "s", "classify.ineq_values": "count",
    "classify.stride_probe_s": "s", "classify.stride_probe_max_bits": "bits",
    "lattice.symbolics_s": "s", "lattice.checked": "count",
    "betti.replay_s": "s", "classify.exclusion_s": "s", "ringeval.solve_s": "s",
    "cli.serialize_s": "s", "cli.report_bytes": "bytes",
    "parser.parse_s": "s", "parser.rejected": "count",
    "evaluate.eval_s": "s", "evaluate.rejected": "count", "ringeval.format_s": "s",
    "trace.unattributed_s": "s", "trace.overhead_s": "s",
}
# per-layer self time metric <- span name
SPAN_METRICS = {
    "scan.scan_s": "scan.scan_chunk",
    "classify.attribute_s": "classify.attribute",
    "classify.ineq_range_s": "classify.ineq_range",
    "classify.stride_probe_s": "classify.stride_probe",
    "lattice.symbolics_s": "lattice.symbolics",
    "betti.replay_s": "betti.replay",
    "classify.exclusion_s": "classify.exclusion",
    "ringeval.solve_s": "ringeval.solve",
    "cli.serialize_s": "cli.serialize",
    "parser.parse_s": "parser.parse",
    "evaluate.eval_s": "evaluate.eval",
    "ringeval.format_s": "ringeval.format",
}


@dataclass
class Child:
    rc: int | None  # None when killed at the deadline
    stdout: str
    wall: float
    cpu: float


class Run:
    """One benchmark run: the closed loop's clock and its tallies."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.started = time.perf_counter()
        self.window_start = self.started
        self.attempted = 0
        self.failed = 0

    def start_window(self):
        self.window_start = time.perf_counter()

    def another(self, last_duration: float) -> bool:
        """Whether one more operation of about `last_duration` fits the window."""
        return time.perf_counter() - self.window_start + last_duration <= self.seconds

    def tally(self, ok: bool):
        self.attempted += 1
        self.failed += not ok

    def child(self, cmd: list[str], stdin: str | None = None) -> Child:
        """Run a child in its own process group; kill the group at the deadline."""
        timeout = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - self.started))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(stdin, timeout=timeout)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
            rc = None
        except BaseException:  # interrupted or terminated: leave nothing running
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return Child(rc, out, wall, cpu)


def machine_facts() -> dict:
    from quadrocubic.classify import scan_backend

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scan_backend": scan_backend(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def verify_output_ok(child: Child) -> bool:
    if child.rc != 0:
        return False
    try:
        return verify_document_ok(json.loads(child.stdout))
    except (json.JSONDecodeError, AttributeError, KeyError, TypeError):
        return False


def tail(samples: list[float]) -> float:
    """p99 when at least ten samples lie beyond it, otherwise the median."""
    ordered = sorted(samples)
    k = math.ceil(0.99 * len(ordered)) - 1
    if len(ordered) - 1 - k >= 10:
        return ordered[k]
    return statistics.median(ordered)


def setup_sample(run: Run) -> float:
    """Wall time of a fresh interpreter importing the package."""
    child = run.child([sys.executable, "-c", "import quadrocubic"])
    if child.rc != 0:
        raise RuntimeError("import quadrocubic failed")
    return child.wall


def repeat(run: Run, op) -> tuple[list, float]:
    """Call `op` in a closed loop until the window is used up: (its results,
    setup_s). One set-up is timed before each call, so that set-up time is
    sampled across the whole run, and at least SETUP_SAMPLES times; an
    unmeasured import first fills the bytecode cache."""
    setup_sample(run)
    run.start_window()
    results, setup = [], []
    while True:
        setup.append(setup_sample(run))
        start = time.perf_counter()
        results.append(op())
        if not run.another(time.perf_counter() - start):
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(run))
    return results, statistics.median(setup)


def scan_candidates(n_max: int) -> int:
    """(n, m1, m2) triples the scan visits after the cohomology gate."""
    total = 0
    for n in range(4, n_max + 1):
        for m1 in range(2, n - 1):
            m2_hi = m1 - 1
            if 4 * m1 >= 3 * n - 2:
                m2_hi = min(m2_hi, n - m1 - 2)
            total += max(0, m2_hi)
    return total


def end_to_end(latencies, cpus, summary, setup_s, peak_rss_kb) -> dict:
    """End-to-end metrics of one run.

    `latencies` and `cpus` hold, for each distinct command of the
    workload, its wall and CPU time in every repetition; `summary` turns
    one command's repetitions into one figure. `wall_s` and `cpu_s` sum
    those figures over the commands: the time of one pass over them.
    """
    per_command = [summary(reps) for reps in latencies]
    wall = sum(per_command)
    return {
        "wall_s": wall,
        "cpu_s": sum(summary(reps) for reps in cpus),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb / 1024,
        "ops_per_s": len(per_command) / wall,
        "op_p50_ms": statistics.median(per_command) * 1e3,
        "op_tail_ms": tail(per_command) * 1e3,
    }


# ---------------------------------------------------------------- verify


def verify_untraced(run: Run, argv: list[str]) -> Child:
    child = run.child([sys.executable, "-c", CLI_CODE, *argv])
    run.tally(verify_output_ok(child))
    return child


def run_verify(run: Run, argv: list[str]) -> dict:
    children, setup_s = repeat(run, lambda: verify_untraced(run, argv))
    walls = [c.wall for c in children]
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return end_to_end([walls], [[c.cpu for c in children]], VERIFY_SUMMARY, setup_s, peak)


def scan_layers(spans, counts: dict, n_maxes: list[int]) -> dict:
    """Per-layer metrics of one traced operation of one or more commands:
    self times, counts, and the scan's and the pool's figures. `n_maxes`
    holds the n_max of each command that scans."""
    own = self_times(spans)
    out = {metric: own.get(name, 0.0) for metric, name in SPAN_METRICS.items()}
    out.update(counts)
    out["scan.candidates"] = sum(scan_candidates(n) for n in n_maxes)
    out["classify.pool_imbalance"] = out["classify.pool_overhead_s"] = 0.0
    for i, span in enumerate(spans):
        if span.name != "classify.enumerate":
            continue
        inside = [c for c in spans if c.parent == i]
        chunks = [c.end - c.start for c in inside if c.name == "scan.scan_chunk"]
        out["classify.pool_imbalance"] = max(out["classify.pool_imbalance"],
                                             max(chunks) / statistics.mean(chunks))
        if len(chunks) > 1:  # enumerate_candidates ran the pool
            attribute = sum(c.end - c.start for c in inside if c.name == "classify.attribute")
            out["classify.pool_overhead_s"] += span.end - span.start - max(chunks) - attribute
    out["_top_level_s"] = top_level_total(spans)
    return out


def trace_verify(run: Run, argv: list[str], all_spans: list) -> dict:
    from quadrocubic.cli import build_parser

    n_max = build_parser().parse_args(argv).n_max
    untraced, traced, layers = [], [], []

    def pair():
        untraced_wall = verify_untraced(run, argv).wall
        child = run.child([sys.executable, str(HERE / "replay.py"), *argv])
        try:
            result = json.loads(child.stdout.splitlines()[-1])
            ok = child.rc == 0 and result["rc"] == 0 and verify_document_ok(result["document"])
        except (IndexError, json.JSONDecodeError, KeyError, TypeError):
            ok = False
        run.tally(ok)
        if ok:
            untraced.append(untraced_wall)
            traced.append(child.wall)
            spans = [Span(**{**s, "run": len(layers)}) for s in result["spans"]]
            all_spans.extend(spans)
            layers.append(scan_layers(spans, result["counts"], [n_max]))

    repeat(run, pair)
    return layer_summary(layers, untraced, traced, VERIFY_SUMMARY)


# --------------------------------------------------------------- streams


def cpu_time() -> float:
    """User+sys time of this process and of its reaped children (pool workers)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def stream_pass(run: Run, stream, invoke) -> tuple[list[float], list[float]]:
    """One pass over the stream: each command's (wall times, CPU times)."""
    out, err = io.StringIO(), io.StringIO()
    latencies, cpus = [], []
    with redirect_stdout(out), redirect_stderr(err):
        for case in stream:
            c0, t0 = cpu_time(), time.perf_counter()
            rc = invoke(list(case.argv))
            latencies.append(time.perf_counter() - t0)
            cpus.append(cpu_time() - c0)
            run.tally(case.ok(rc, out.getvalue(), err.getvalue()))
            for buf in (out, err):
                buf.seek(0)
                buf.truncate()
    return latencies, cpus


def stream_child_pass(run: Run, stream) -> int:
    """One untimed pass over the stream in a fresh interpreter, every
    output checked: the peak resident set of the children, in KiB."""
    child = run.child([sys.executable, "-c", STREAM_CHILD_CODE],
                      stdin=json.dumps([case.argv for case in stream]))
    try:
        results = json.loads(child.stdout)
    except json.JSONDecodeError:
        results = []
    if child.rc != 0 or len(results) != len(stream):
        run.tally(False)
    for case, (rc, out, err) in zip(stream, results):
        run.tally(case.ok(rc, out, err))
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def run_stream(run: Run, stream) -> dict:
    from quadrocubic.cli import run_cli

    passes, setup_s = repeat(run, lambda: stream_pass(run, stream, run_cli))
    latencies, cpus = zip(*passes)
    peak = stream_child_pass(run, stream)
    return end_to_end(list(zip(*latencies)), list(zip(*cpus)), STREAM_SUMMARY, setup_s, peak)


def trace_pipeline(run: Run, stream, all_spans: list) -> dict:
    from quadrocubic.cli import build_parser, run_cli
    from replay import computed_counts, trace_command

    parser = build_parser()
    n_maxes = [parser.parse_args(list(case.argv)).n_max
               for case in stream if case.argv[0] in ("verify", "enumerate")]
    untraced, traced, layers = [], [], []

    def pair():
        untraced.append(sum(stream_pass(run, stream, run_cli)[0]))
        tracer, counts, wall = Tracer(run=len(layers)), Counter(), 0.0
        for case in stream:
            start = time.perf_counter()
            rc, out, found = trace_command(list(case.argv), tracer)
            wall += time.perf_counter() - start
            ok = case.ok(rc, out, "")
            run.tally(ok)
            if ok and case.argv[0] == "verify":  # the stream's only verify command
                found.update(computed_counts(json.loads(out)))
            counts.update(found)
        traced.append(wall)
        all_spans.extend(tracer.spans)
        layers.append(scan_layers(tracer.spans, counts, n_maxes))

    repeat(run, pair)
    return layer_summary(layers, untraced, traced, STREAM_SUMMARY)


def trace_eval(run: Run, stream, all_spans: list) -> dict:
    from quadrocubic.cli import run_cli
    from replay import eval_layers

    untraced, traced, layers = [], [], []

    def pair():
        untraced.append(sum(stream_pass(run, stream, run_cli)[0]))
        tracer, codes = Tracer(run=len(layers)), []

        def traced_cli(argv):
            codes.append(run_cli(argv))
            return codes[-1]

        with eval_layers(tracer):
            traced.append(sum(stream_pass(run, stream, traced_cli)[0]))
        all_spans.extend(tracer.spans)
        own = self_times(tracer.spans)
        op = {metric: own.get(name, 0.0) for metric, name in SPAN_METRICS.items()}
        op["parser.rejected"] = codes.count(2)
        op["evaluate.rejected"] = codes.count(1)
        op["_top_level_s"] = top_level_total(tracer.spans)
        layers.append(op)

    repeat(run, pair)
    return layer_summary(layers, untraced, traced, STREAM_SUMMARY)


def layer_summary(layers: list[dict], untraced: list[float], traced: list[float],
                  summary) -> dict:
    """Per-layer metrics: `summary` over the traced operations, as for the
    end-to-end times. The two trace metrics are differences within each
    pair of back-to-back operations, then their median."""
    if not layers:
        return {name: 0.0 for name in PER_LAYER_UNITS}
    out = {name: summary([op.get(name, 0) for op in layers]) for name in PER_LAYER_UNITS}
    if out["scan.scan_s"]:
        out["scan.candidates_per_s"] = out["scan.candidates"] / out["scan.scan_s"]
    out["trace.unattributed_s"] = statistics.median(
        u - op["_top_level_s"] for u, op in zip(untraced, layers))
    out["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    return out


# ------------------------------------------------------------------ main


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 argv: list[str] | None = None,
                 stream_size: int = EVAL_STREAM_SIZE) -> tuple[dict, dict, list]:
    """Run one workload: (result object, machine facts, spans). `argv` and
    `stream_size` override the workload's input size (the tests use the
    smallest). Modules that import quadrocubic are imported late, after
    `main` has found the sources."""
    run = Run(seconds)
    facts = machine_facts()
    spans: list = []
    if name == EVAL_WORKLOAD:
        from evalgen import make_stream

        stream = make_stream(seed, stream_size)
        values = trace_eval(run, stream, spans) if trace else run_stream(run, stream)
    elif name == PIPELINE_WORKLOAD:
        from pipelinegen import make_stream

        stream = make_stream(seed)
        values = trace_pipeline(run, stream, spans) if trace else run_stream(run, stream)
    else:
        argv = argv or VERIFY_WORKLOADS[name]
        values = trace_verify(run, argv, spans) if trace else run_verify(run, argv)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, facts, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running child is killed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "quadrocubic" / "__init__.py").is_file():
        print(f"error: no quadrocubic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result, facts, spans = run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"facts": facts, "spans": [asdict(s) for s in spans]}))
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
