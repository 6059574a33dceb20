"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import pipelinegen
from evalgen import make_stream
from replay import computed_counts, eval_layers, trace_command
from spans import Span, Tracer, self_times, top_level_total

from quadrocubic import classify, cli
from quadrocubic.evaluate import eval_expr
from quadrocubic.parser import parse_expr
from quadrocubic.ringeval import LinearForm

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# the smallest inputs that still reach the verdict
SMALL_ARGV = {
    "verify-default": ["verify", "--json", "--n-max", "9"],
    "verify-pool": ["verify", "--json", "--n-max", "9", "--threads", "2"],
    "ineq-wide": ["verify", "--json", "--n-max", "9", "--ineq-max", "100001"],
}


def test_oracle_agrees_with_eval_expr(capsys):
    stream = make_stream(seed=2024, size=300)
    kinds = {case.kind for case in stream}
    assert kinds == {"valid", "malformed", "wrong-degree"}
    for case in stream:
        _, _, n, _, m, _, deg, text = case.argv
        if case.kind == "valid":
            value = eval_expr(parse_expr(text), int(n), int(m),
                              deg if deg in ("d1", "d2") else int(deg))
            assert str(value) + "\n" == case.expected_out, case.argv
        else:
            assert cli.run_cli(list(case.argv)) == case.expected_rc, case.argv
            assert capsys.readouterr().out == ""


def test_stream_is_seeded():
    assert make_stream(5, 50) == make_stream(5, 50)
    assert make_stream(5, 50) != make_stream(6, 50)


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union 1..6 is covered once
        Span("leaf", 2.0, 3.0, 1, 0),
        Span("a", 7.0, 8.0, 0, 0),  # a second call of the same layer adds up
        Span("other", 20.0, 21.0, None, 0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"root": 4.0, "a": 3.0, "b": 3.0, "leaf": 1.0, "other": 1.0})
    assert top_level_total(spans) == pytest.approx(11.0)


def test_tracer_nests_spans():
    tr = Tracer(run=3)
    with tr.span("outer") as outer:
        with tr.span("inner"):
            pass
        tr.add("timed-elsewhere", 0.0, 0.0)
    assert [s.parent for s in tr.spans] == [None, outer, outer]
    assert all(s.run == 3 and s.end >= s.start for s in tr.spans[:2])


@pytest.mark.parametrize("workload", ["verify-default", "verify-pool"])
def test_traced_verify_is_the_program_run(workload, capsys):
    argv = SMALL_ARGV[workload]
    originals = dict(vars(classify)), dict(vars(cli))
    tr = Tracer()
    rc, text, counts = trace_command(argv, tr)
    assert (dict(vars(classify)), dict(vars(cli))) == originals
    assert cli.run_cli(argv) == rc == 0
    assert capsys.readouterr().out == text
    assert run.verify_document_ok(json.loads(text))
    assert counts["scan.survivors"] == counts["classify.attributed"] == 2
    assert counts["lattice.checked"] == 97
    assert counts["cli.report_bytes"] == len(text.encode())
    assert computed_counts(json.loads(text))["classify.ineq_values"] == 100000 - 18
    names = {s.name for s in tr.spans}
    assert names >= set(run.SPAN_METRICS.values()) - {
        "parser.parse", "evaluate.eval", "ringeval.format"}
    chunks = [s for s in tr.spans if s.name == "scan.scan_chunk"]
    # the pool splits 4..9 into two chunks, timed inside the workers
    assert len(chunks) == (2 if workload == "verify-pool" else 1)
    enumerate_index = next(i for i, s in enumerate(tr.spans) if s.name == "classify.enumerate")
    assert all(c.parent == enumerate_index for c in chunks)


@pytest.mark.parametrize("argv, spans", [
    (["enumerate", "--json", "--n-max", "12"],
     ["classify.enumerate", "scan.scan_chunk", "classify.attribute", "classify.attribute"]),
    (["exclude-case2", "--json"], ["classify.exclusion", "ringeval.solve"]),
])
def test_traced_command_runs_the_program_and_restores_it(argv, spans, capsys):
    originals = dict(vars(classify)), dict(vars(cli))
    tr = Tracer()
    rc, text, counts = trace_command(argv, tr)
    assert (dict(vars(classify)), dict(vars(cli))) == originals
    assert cli.run_cli(argv) == rc == 0
    assert capsys.readouterr().out == text
    assert pipelinegen.PipelineCase(tuple(argv)).ok(rc, text, "")
    assert [s.name for s in tr.spans] == spans


def test_pipeline_stream_is_seeded_and_checked(capsys):
    stream = pipelinegen.make_stream(3)
    assert stream == pipelinegen.make_stream(3) != pipelinegen.make_stream(4)
    commands = [case.argv[0] for case in stream]
    assert {c: commands.count(c) for c in commands} == {
        "enumerate": 30, "exclude-case2": 2, "verify": 1}
    for case in stream:
        if case.argv[0] != "verify":  # verify is checked by the smoke run
            assert case.ok(cli.run_cli(list(case.argv)), capsys.readouterr().out, "")
    # a scan that lost the second case, or a failed command, is caught
    case = pipelinegen.PipelineCase(("enumerate", "--json", "--n-max", "12"))
    assert not case.ok(0, json.dumps({"n_max": 12, "survivors": [pipelinegen.CASE1]}), "")
    assert not case.ok(1, json.dumps({"n_max": 12, "survivors": pipelinegen.EXPECTED_TWO_CASE}), "")


def test_scan_layers_finds_the_pool_by_its_chunks():
    spans = [
        Span("classify.enumerate", 0.0, 5.0, None, 0),  # the pool: two chunks
        Span("scan.scan_chunk", 0.5, 4.5, 0, 0),
        Span("scan.scan_chunk", 0.5, 2.5, 0, 0),
        Span("classify.attribute", 4.6, 4.8, 0, 0),
        Span("classify.enumerate", 6.0, 7.0, None, 0),  # serial: one chunk
        Span("scan.scan_chunk", 6.0, 6.9, 4, 0),
    ]
    out = run.scan_layers(spans, {}, [9, 12])
    assert out["classify.pool_imbalance"] == pytest.approx(4.0 / 3.0)
    assert out["classify.pool_overhead_s"] == pytest.approx(5.0 - 4.0 - 0.2)
    assert out["scan.candidates"] == run.scan_candidates(9) + run.scan_candidates(12)
    assert out["_top_level_s"] == pytest.approx(6.0)


def test_traced_eval_runs_the_program_and_restores_it(capsys):
    originals = cli.parse_expr, cli.eval_expr, LinearForm.__str__
    tr = Tracer()
    with eval_layers(tr):
        assert cli.run_cli(["eval", "--n", "4", "--m", "1", "--deg", "2", "H^4"]) == 0
        assert cli.run_cli(["eval", "--n", "4", "--m", "1", "--deg", "2", "H^("]) == 2
    assert (cli.parse_expr, cli.eval_expr, LinearForm.__str__) == originals
    assert [s.name for s in tr.spans] == [
        "parser.parse", "evaluate.eval", "ringeval.format", "parser.parse"]
    assert capsys.readouterr().out.count("\n") == 1


def test_scan_candidates_counts_gated_triples():
    naive = sum(
        1
        for n in range(4, 31)
        for m1 in range(2, n - 1)
        for m2 in range(1, m1)
        if not (4 * m1 >= 3 * n - 2 and m2 > n - m1 - 2)
    )
    assert run.scan_candidates(30) == naive


def test_trace_metrics_are_taken_within_each_pair():
    # the host slows down from pair to pair; within each pair the traced
    # operation takes 0.1 s longer, and 0.5 s of the untraced one lies
    # outside the top-level spans
    untraced, traced = [1.0, 2.0, 3.0], [1.1, 2.1, 3.1]
    layers = [{"_top_level_s": u - 0.5} for u in untraced]
    out = run.layer_summary(layers, untraced, traced, min)
    assert out["trace.overhead_s"] == pytest.approx(0.1)
    assert out["trace.unattributed_s"] == pytest.approx(0.5)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1000)]) == 989.0
    assert run.tail([1.0, 2.0, 30.0]) == 2.0


def test_trimmed_mean_drops_the_ends():
    # five samples: one is dropped at each end, so the hiccup does not count
    assert run.trimmed_mean([100.0, 1.0, 2.0, 3.0, 4.0]) == 3.0
    assert run.trimmed_mean([5.0]) == 5.0


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    result, facts, spans = run.run_workload(
        workload, seed=1, seconds=0, trace=trace,
        argv=SMALL_ARGV.get(workload), stream_size=40,
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert set(facts) >= {"nproc", "python", "platform", "scan_backend", "loadavg_at_start"}
    assert bool(spans) == trace
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
