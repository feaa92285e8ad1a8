"""Exit codes and printed output of the command line interface."""

import csv
import json
import shutil
from pathlib import Path

import pytest

from topkset.cli import entrypoint

F1_DIR = str(Path(__file__).resolve().parent.parent / "datasets" / "f1")


def run(argv, capsys):
    code = entrypoint(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_default_policy(capsys):
    code, out, _ = run(["solve", "--dataset", F1_DIR, "--k", "3"], capsys)
    assert code == 0
    assert "winner: {HNY, HYN, MLN}" in out
    assert "oracleCalls: 1" in out
    assert "perTaskNanos: {" in out


def test_solve_baseline_policy(capsys):
    code, out, _ = run(["solve", "--dataset", F1_DIR, "--k", "3",
                        "--policy", "baseline"], capsys)
    assert code == 0
    assert "oracleCalls: 4" in out


def test_solve_writes_trace(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    code, out, _ = run(["solve", "--dataset", F1_DIR, "--k", "3",
                        "--trace", str(trace)], capsys)
    assert code == 0
    assert f"trace: {trace}" in out
    last = json.loads(trace.read_text().splitlines()[-1])
    assert last["winner"] == ["HNY", "HYN", "MLN"]


def test_missing_dataset_dir(tmp_path, capsys):
    code, _, err = run(["solve", "--dataset", str(tmp_path / "nope"),
                        "--k", "3"], capsys)
    assert code == 2
    assert "error:" in err


def test_k_mismatching_explicit_candidates(capsys):
    code, _, err = run(["solve", "--dataset", F1_DIR, "--k", "2"], capsys)
    assert code == 2
    assert "not a 2-set" in err


def test_unknown_policy(capsys):
    code, _, err = run(["solve", "--dataset", F1_DIR, "--k", "3",
                        "--policy", "greedy"], capsys)
    assert code == 2
    assert "error:" in err


def test_exhausted_call_budget(capsys):
    code, _, err = run(["solve", "--dataset", F1_DIR, "--k", "3",
                        "--max-calls", "0"], capsys)
    assert code == 3
    assert "no provable winner within 0 oracle calls" in err


def test_llm_oracle_needs_a_config(capsys):
    code, _, err = run(["solve", "--dataset", F1_DIR, "--k", "3",
                        "--oracle", "llm"], capsys)
    assert code == 2
    assert "--llm-config" in err


def test_llm_oracle_round_trip(tmp_path, capsys, chat_server):
    chat_server.default_reply = "1.0"
    cfg = tmp_path / "llm.json"
    cfg.write_text(json.dumps({"endpointUrl": chat_server.url}))
    code, out, _ = run(["solve", "--dataset", F1_DIR, "--k", "3",
                        "--oracle", "llm", "--llm-config", str(cfg)], capsys)
    assert code == 0
    assert "winner: {HNY, HYN, MLN}" in out
    assert len(chat_server.requests) == 1
    # The one question asked is div(MLN, HYN); its entities' context
    # from entities.csv reaches the prompt, no other entity's does.
    prompt = chat_server.requests[0]["body"]["messages"][0]["content"]
    with open(Path(F1_DIR) / "entities.csv", encoding="utf-8") as fh:
        context = {r["id"]: r["contextText"] for r in csv.DictReader(fh)}
    for entity, text in context.items():
        assert (text in prompt) == (entity in ("MLN", "HYN")), entity


def _llm_baseline_run(tmp_path, capsys, chat_server, *extra):
    """Baseline solve of f1 through the chat stub, no retries, traced.

    Baseline asks rel(HNY), div(HYN, MLN), div(MLN, SHN), div(MLN, WLD)
    in that order. Returns the exit code, stderr and the trace lines."""
    cfg = tmp_path / "llm.json"
    cfg.write_text(json.dumps({"endpointUrl": chat_server.url,
                               "maxRetries": 0}))
    trace = tmp_path / "run.jsonl"
    code, _, err = run(["solve", "--dataset", F1_DIR, "--k", "3",
                        "--policy", "baseline", "--oracle", "llm",
                        "--llm-config", str(cfg), "--trace", str(trace),
                        *extra], capsys)
    return code, err, [json.loads(x) for x in trace.read_text().splitlines()]


def test_oracle_failure_trace_keeps_the_paid_answers(tmp_path, capsys,
                                                     chat_server):
    # The second call fails; the first answer was already paid for.
    chat_server.script = [(200, {"choices": [{"message": {"content": "1"}}]}),
                          (500, "boom")]
    code, err, lines = _llm_baseline_run(tmp_path, capsys, chat_server)
    assert code == 3
    assert "HTTP 500" in err
    assert len(chat_server.requests) == 2
    *steps, summary = lines
    assert [s["question"] for s in steps] == [
        {"construct": "rel", "args": ["HNY"]}]
    assert summary["status"] == "oracle_error"
    assert "winner" not in summary
    assert summary["oracleCalls"] == 1
    assert summary["answered"] == [
        {"construct": "rel", "args": ["HNY"], "response": 1.0}]
    assert set(summary["perTaskNanos"]) == \
        {"bounds", "probability", "selection", "oracle"}


def test_call_limit_trace_ends_with_a_status_line(tmp_path, capsys,
                                                  chat_server):
    code, err, lines = _llm_baseline_run(tmp_path, capsys, chat_server,
                                         "--max-calls", "2")
    assert code == 3
    assert "no provable winner within 2 oracle calls" in err
    *steps, summary = lines
    assert summary["status"] == "limit"
    assert "winner" not in summary
    assert summary["oracleCalls"] == 2
    assert summary["answered"] == [
        {"construct": "rel", "args": ["HNY"], "response": 0.5},
        {"construct": "div", "args": ["HYN", "MLN"], "response": 0.5}]
    assert [s["question"] for s in steps] == [
        {k: a[k] for k in ("construct", "args")} for a in summary["answered"]]


@pytest.mark.parametrize("text, message", [
    ('{"endpointUrl": "http://localhost:9",', "cannot read LLM config"),
    ('["http://localhost:9"]', "is not a JSON object"),
    ('{"model": "judge-1"}', "lacks 'endpointUrl'"),
    ('{"endpointUrl": 9}', "endpointUrl 9 is not a string"),
    ('{"endpointUrl": "http://localhost:9", "timeout": "soon"}',
     "timeout 'soon' is not a positive number"),
    ('{"endpointUrl": "http://localhost:9", "timeout": 0}',
     "timeout 0 is not a positive number"),
    ('{"endpointUrl": "http://localhost:9", "maxRetries": "many"}',
     "maxRetries 'many' is not a nonnegative integer"),
    ('{"endpointUrl": "http://localhost:9", "maxRetries": -1}',
     "maxRetries -1 is not a nonnegative integer"),
    ('{"endpointUrl": "http://localhost:9", "temperature": "warm"}',
     "temperature 'warm' is not a number"),
], ids=["invalid-json", "not-an-object", "no-endpoint", "endpoint-type",
        "timeout-text", "timeout-zero", "retries-text", "retries-negative",
        "temperature-text"])
def test_bad_llm_config_is_a_validation_error(tmp_path, capsys, text,
                                              message):
    cfg = tmp_path / "llm.json"
    cfg.write_text(text)
    code, _, err = run(["solve", "--dataset", F1_DIR, "--k", "3",
                        "--oracle", "llm", "--llm-config", str(cfg)], capsys)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("name, message", [
    ("spec.json", "cannot read scoring spec"),
    ("entities.csv", "has no entities.csv"),
    ("rel.csv", "missing score file rel.csv"),
])
def test_dataset_missing_a_required_file(tmp_path, capsys, name, message):
    ds = tmp_path / "ds"
    shutil.copytree(F1_DIR, ds)
    (ds / name).unlink()
    code, _, err = run(["solve", "--dataset", str(ds), "--k", "3"], capsys)
    assert code == 2
    assert message in err and name in err


def test_query_txt_that_is_a_directory(tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(F1_DIR, ds)
    (ds / "query.txt").unlink()
    (ds / "query.txt").mkdir()
    code, _, err = run(["solve", "--dataset", str(ds), "--k", "3"], capsys)
    assert code == 2
    assert "cannot read query.txt" in err


def test_candidates_csv_that_is_not_utf8(tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(F1_DIR, ds)
    (ds / "candidates.csv").write_bytes(b"HNY,MLN,\xff\xfe\n")
    code, _, err = run(["solve", "--dataset", str(ds), "--k", "3"], capsys)
    assert code == 2
    assert "cannot read candidates.csv" in err


def test_non_numeric_score_is_a_validation_error(tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(F1_DIR, ds)
    with open(ds / "rel.csv", "a", encoding="utf-8") as fh:
        fh.write("HNY,abc,0\n")
    code, _, err = run(["solve", "--dataset", str(ds), "--k", "3"], capsys)
    assert code == 2
    assert "rel.csv line 7: score 'abc' for rel(HNY) is not a number" in err


def test_spec_beyond_the_exact_lattice_asks_nothing(tmp_path, capsys,
                                                    chat_server):
    """rel weight 1e16 at step 0.5: a 3-set reaches 6e16 quanta of 1/2."""
    ds = tmp_path / "ds"
    shutil.copytree(F1_DIR, ds)
    spec = json.loads((ds / "spec.json").read_text())
    spec["constructs"][0]["weight"] = 1e16
    (ds / "spec.json").write_text(json.dumps(spec))
    cfg = tmp_path / "llm.json"
    cfg.write_text(json.dumps({"endpointUrl": chat_server.url}))
    code, _, err = run(["solve", "--dataset", str(ds), "--k", "3",
                        "--oracle", "llm", "--llm-config", str(cfg)], capsys)
    assert code == 2
    assert "2**53" in err
    assert chat_server.requests == []


def test_arity_three_construct_asks_nothing(tmp_path, capsys, chat_server):
    ds = tmp_path / "ds"
    shutil.copytree(F1_DIR, ds)
    spec = json.loads((ds / "spec.json").read_text())
    spec["constructs"].append({"name": "trio", "arity": 3})
    (ds / "spec.json").write_text(json.dumps(spec))
    cfg = tmp_path / "llm.json"
    cfg.write_text(json.dumps({"endpointUrl": chat_server.url}))
    code, _, err = run(["solve", "--dataset", str(ds), "--k", "3",
                        "--oracle", "llm", "--llm-config", str(cfg)], capsys)
    assert code == 2
    assert "constructs of arity 3 are not supported" in err
    assert chat_server.requests == []


def test_unwritable_trace_path_asks_nothing(tmp_path, capsys, chat_server):
    cfg = tmp_path / "llm.json"
    cfg.write_text(json.dumps({"endpointUrl": chat_server.url}))
    trace = tmp_path / "missing" / "t.jsonl"
    code, out, err = run(["solve", "--dataset", F1_DIR, "--k", "3",
                          "--oracle", "llm", "--llm-config", str(cfg),
                          "--trace", str(trace)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write trace {trace}: ")
    assert "Traceback" not in err
    assert "winner" not in out
    assert chat_server.requests == []


@pytest.mark.parametrize("drop_candidates, argv, message", [
    (True, ["--k", "2", "--candidates", "-1"],
     "candidate cap must be >= 1, got -1"),
    (False, ["--k", "3", "--candidates", "0"],
     "candidate cap must be >= 1, got 0"),
    (False, ["--k", "3", "--candidates", "-1"],
     "candidate cap must be >= 1, got -1"),
    (False, ["--k", "3", "--max-calls", "-1"],
     "max_calls must be >= 0, got -1"),
], ids=["enumerated-cap-negative", "listed-cap-zero", "listed-cap-negative",
        "max-calls-negative"])
def test_bad_cap_or_budget_asks_nothing(tmp_path, capsys, chat_server,
                                        drop_candidates, argv, message):
    ds = tmp_path / "ds"
    shutil.copytree(F1_DIR, ds)
    if drop_candidates:
        (ds / "candidates.csv").unlink()
    cfg = tmp_path / "llm.json"
    cfg.write_text(json.dumps({"endpointUrl": chat_server.url}))
    code, out, err = run(["solve", "--dataset", str(ds), *argv,
                          "--oracle", "llm", "--llm-config", str(cfg)],
                         capsys)
    assert code == 2
    assert message in err
    assert "winner" not in out
    assert chat_server.requests == []


def test_gen_then_solve(tmp_path, capsys):
    out_dir = tmp_path / "synth"
    code, out, _ = run(["gen", "--n", "5", "--k", "2", "--seed", "3",
                        "--unknown", "4", "--out", str(out_dir)], capsys)
    assert code == 0
    assert f"dataset: {out_dir}" in out
    code, out, _ = run(["solve", "--dataset", str(out_dir), "--k", "2"],
                       capsys)
    assert code == 0
    assert "winner: {" in out


def test_gen_rejects_n_below_k(tmp_path, capsys):
    code, _, err = run(["gen", "--n", "2", "--k", "3",
                        "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "need n >= k" in err


@pytest.mark.parametrize("command", ["gen", "experiment"])
def test_negative_unknown_count_is_a_validation_error(tmp_path, capsys,
                                                      command):
    if command == "gen":
        argv = ["gen", "--n", "5", "--k", "2", "--unknown", "-1",
                "--out", str(tmp_path / "synth")]
    else:
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "kList": [2], "candidateCountList": [4],
            "policies": ["random"], "trials": 1, "unknownCount": -1}))
        argv = ["experiment", "--config", str(cfg),
                "--out", str(tmp_path / "results")]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "got -1" in err


@pytest.mark.parametrize("override, message", [
    # One candidate keeps the n-for-M search finite even for k=0; with
    # more it would never return.
    ({"kList": [0], "candidateCountList": [1]}, "k must be >= 1, got 0"),
    ({"candidateCountList": [0]}, "candidate count must be >= 1, got 0"),
    ({"unknownCount": -1}, "got -1"),
    ({"gridStep": 0.3}, "grid_step must divide the score range"),
    ({"workers": 0}, "workers must be >= 1, got 0"),
], ids=["k-zero", "count-zero", "unknown-negative", "step-off-range",
        "workers-zero"])
def test_bad_experiment_config_fails_before_touching_out(tmp_path, capsys,
                                                         override, message):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "kList": [2], "candidateCountList": [4], "policies": ["random"],
        "trials": 1, **override}))
    out_dir = tmp_path / "results"
    code, _, err = run(["experiment", "--config", str(cfg),
                        "--out", str(out_dir)], capsys)
    assert code == 2
    assert message in err
    assert not out_dir.exists()


def test_experiment_command(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "kList": [2], "candidateCountList": [4],
        "policies": ["entrred-ind", "random"],
        "trials": 1, "unknownCount": 3}))
    out_dir = tmp_path / "results"
    code, out, _ = run(["experiment", "--config", str(cfg),
                        "--out", str(out_dir)], capsys)
    assert code == 0
    for name in ("runs", "summary", "ratios"):
        assert name in out
        assert (out_dir / f"{name}.csv").exists()


def test_experiment_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kList": []}))
    code, _, err = run(["experiment", "--config", str(cfg),
                        "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert "error:" in err


def test_help_exits_cleanly(capsys):
    assert entrypoint(["--help"]) == 0
