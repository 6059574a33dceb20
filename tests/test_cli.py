"""Tests for the command-line interface and report serialization."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadrocubic
from quadrocubic.cli import run_cli


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


def test_module_entry_point_runs_the_command():
    src = str(Path(quadrocubic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "quadrocubic", "verify", "--n-max", "9"],
        env=env, capture_output=True, text=True, timeout=120,
    )
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
    code = run_cli(["enumerate", "--n-max", "30", "--a-max", "0", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["survivors"] == []


def test_verify_json_document(capsys):
    code = run_cli(["verify", "--n-max", "9", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert list(doc) == ["meta", "steps", "survivors", "conclusion"]
    assert doc["conclusion"] == "quadro-cubic unique"
    assert doc["survivors"] == [[4, 1, 3, 2, 2, 1]]
    assert doc["meta"]["config"]["n_max"] == 9
    assert {s["id"]: s["status"] for s in doc["steps"]}["theorem-2case"] == "pass"


def test_verify_text_output(capsys):
    code = run_cli(["verify", "--n-max", "9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass] theorem-2case" in out
    assert "conclusion: quadro-cubic unique" in out


def test_verify_report_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = run_cli(["verify", "--n-max", "9", "--json", "--report", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(path.read_text())
    assert doc["conclusion"] == "quadro-cubic unique"


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
