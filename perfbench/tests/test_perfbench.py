"""Self-tests of the benchmark: tiny runs of every workload.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "wide-coarse": dict(n=6, m=12, open_questions=10, instances=3),
    "fine-dep": dict(n=6, m=10, open_questions=10, instances=3),
    "http-oracle": dict(n=5, m=4, open_questions=8, instances=2),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "SETUP_PROBES", 1)
    for name, sizes in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(
            workloads.WORKLOADS[name], **sizes))
    return tmp_path


def run_bench(capsys, name, trace, *extra):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.05",
                     "--trace", str(trace), *extra]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def declared(kind):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", run.NAMES)
def test_every_metric_is_reported_with_its_unit(tiny, capsys, name):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = run_bench(capsys, name, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == declared(kind)
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())
        assert any(line.strip().startswith("failed_frac") for line in lines)
    assert list(tiny.glob(f"{name}-seed3-trace1-spans.jsonl"))


def test_oracle_calls_repeat_for_a_seed(tiny, capsys):
    first = run_bench(capsys, "fine-dep", 0)[1]["metrics"]["oracle_calls"]
    again = run_bench(capsys, "fine-dep", 0)[1]["metrics"]["oracle_calls"]
    assert first == again


def test_held_out_stream_is_recorded(tiny, capsys):
    assert run_bench(capsys, "fine-dep", 0, "--held-out")[1]["correct"]
    meta = json.loads((tiny / "fine-dep-heldout3-trace0.json").read_text())
    assert meta["meta"]["seedStream"] == "held-out"


def flipped(problem):
    spec = problem.spec
    return {q: spec.max_score + spec.min_score - v
            for q, v in problem.ground_truth.items()}


@pytest.mark.parametrize("name", ["fine-dep", "http-oracle"])
def test_wrong_oracle_table_is_caught(tiny, capsys, monkeypatch, name):
    monkeypatch.setattr(workloads, "oracle_answers", flipped)
    lines, result = run_bench(capsys, name, 0)
    assert not result["correct"] and result["failed"] > 0
    frac = next(line for line in lines
                if line.strip().startswith("failed_frac"))
    assert float(frac.split()[1]) > 0


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "fine-dep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
