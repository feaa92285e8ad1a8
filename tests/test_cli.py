"""Exit codes and printed output of the command line interface."""

import csv
import hashlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import topkset
from topkset import LlmOracleConfig, ValidationError
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


def test_llm_config_alone_picks_the_llm_oracle(tmp_path, capsys,
                                               chat_server):
    """Without `--llm-config` the ground truth must cover every question;
    with it alone, and no `--oracle` flag, the LLM answers the open ones
    and finds the table run's winner."""
    ds = tmp_path / "f1-open"
    shutil.copytree(F1_DIR, ds)
    for name in ("rel.csv", "div.csv"):
        with open(ds / name, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        with open(ds / name, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(
                [*r[:-2], "" if r[-1] == "0" else r[-2], r[-1]] for r in rows)
    code, _, err = run(["solve", "--dataset", str(ds), "--k", "3"], capsys)
    assert code == 2
    assert "table oracle needs a score" in err
    table = run(["solve", "--dataset", F1_DIR, "--k", "3"], capsys)[1]
    chat_server.default_reply = "1.0"
    cfg = tmp_path / "llm.json"
    cfg.write_text(json.dumps({"endpointUrl": chat_server.url}))
    code, out, _ = run(["solve", "--dataset", str(ds), "--k", "3",
                        "--llm-config", str(cfg)], capsys)
    assert code == 0
    winner = [x for x in out.splitlines() if x.startswith("winner: ")]
    assert winner == [x for x in table.splitlines()
                      if x.startswith("winner: ")]
    assert len(chat_server.requests) == 1
    code, _, err = run(["solve", "--dataset", str(ds), "--k", "3",
                        "--oracle", "llm", "--llm-config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("error: No such option '--oracle'")


def test_llm_oracle_round_trip(tmp_path, capsys, chat_server):
    chat_server.default_reply = "1.0"
    cfg = tmp_path / "llm.json"
    cfg.write_text(json.dumps({"endpointUrl": chat_server.url}))
    code, out, _ = run(["solve", "--dataset", F1_DIR, "--k", "3",
                        "--llm-config", str(cfg)], capsys)
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
                        "--policy", "baseline",
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
        {"bounds", "probability", "selection", "oracle", "trace"}


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


def test_ctrl_c_exits_130_and_keeps_the_paid_answer(tmp_path, capsys,
                                                    interrupt_estimate):
    """A KeyboardInterrupt in the second estimate, after one paid answer
    and before its step: click turns it into Abort, the CLI prints one
    error line and exits 130, and the trace still lists the answer."""
    ds = tmp_path / "ds"
    assert run(["gen", "--n", "8", "--k", "3", "--seed", "3", "--unknown",
                "20", "--out", str(ds)], capsys)[0] == 0
    interrupt_estimate(2)
    trace = tmp_path / "t.jsonl"
    code, out, err = run(["solve", "--dataset", str(ds), "--k", "3",
                          "--candidates", "40", "--policy", "entrred-ind",
                          "--trace", str(trace)], capsys)
    assert code == 130
    assert err.strip() == "error: interrupted"
    assert out == ""
    [summary] = [json.loads(x) for x in trace.read_text().splitlines()]
    assert summary["status"] == "exception"
    assert summary["exception"] == "KeyboardInterrupt"
    assert summary["oracleCalls"] == 1
    assert len(summary["answered"]) == 1


# The LlmOracleConfig field each llm.json key sets.
LLM_FIELDS = {"endpointUrl": "endpoint_url", "apiKeyEnvVar": "api_key_env",
              "model": "model", "promptTemplate": "prompt_template",
              "timeout": "timeout_s", "maxRetries": "max_retries",
              "temperature": "temperature"}


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
    ('{"endpointUrl": "http://localhost:9", "maxRetries": 2.5}',
     "maxRetries 2.5 is not a nonnegative integer"),
    ('{"endpointUrl": "http://localhost:9", "maxRetries": true}',
     "maxRetries True is not a nonnegative integer"),
    ('{"endpointUrl": "http://localhost:9", "timeout": true}',
     "timeout True is not a positive number"),
    ('{"endpointUrl": "http://localhost:9", "temperature": "warm"}',
     "temperature 'warm' is not a number"),
    ('{"endpointUrl": "http://localhost:9", "timeout": NaN}',
     "timeout nan is not a positive number"),
    ('{"endpointUrl": "http://localhost:9", "timeout": 0.0}',
     "timeout 0.0 is not a positive number"),
    ('{"endpointUrl": "http://localhost:9", "timeout": Infinity}',
     "timeout inf is not a positive number"),
    ('{"endpointUrl": "http://localhost:9", "temperature": Infinity}',
     "temperature inf is not a number"),
    ('{"endpointUrl": "http://localhost:9", "timeout": 1e10}',
     "timeout 10000000000.0 is not a positive number"),
    ('{"endpointUrl": "http://localhost:9", "maxRetry": 0, "timeOut": 1}',
     "unknown key 'maxRetry'; expected one of endpointUrl, "),
], ids=["invalid-json", "not-an-object", "no-endpoint", "endpoint-type",
        "timeout-text", "timeout-zero", "retries-text", "retries-negative",
        "retries-fraction", "retries-bool", "timeout-bool",
        "temperature-text", "timeout-nan", "timeout-zero-float",
        "timeout-infinite", "temperature-infinite", "timeout-oversized",
        "key-unknown"])
def test_bad_llm_config_is_a_validation_error(tmp_path, capsys, text,
                                              message):
    cfg = tmp_path / "llm.json"
    cfg.write_text(text)
    code, _, err = run(["solve", "--dataset", F1_DIR, "--k", "3",
                        "--llm-config", str(cfg)], capsys)
    assert code == 2
    assert message in err
    try:
        fields = json.loads(text)
    except ValueError:
        return
    if isinstance(fields, dict) and "endpointUrl" in fields \
            and set(fields) <= set(LLM_FIELDS):
        # Built in code from the same values, the config checks them itself
        # (a key that names no field has no form in code).
        with pytest.raises(ValidationError, match=re.escape(message)):
            LlmOracleConfig(**{LLM_FIELDS[k]: v for k, v in fields.items()})



@pytest.mark.parametrize("url", ["http://", "localhost:9/v1", "ftp://x/y"])
def test_url_no_request_can_go_to_exits_2(tmp_path, capsys, url):
    """Caught when the oracle is built: no retry and no backoff."""
    cfg = tmp_path / "llm.json"
    cfg.write_text(json.dumps({"endpointUrl": url, "maxRetries": 1}))
    code, _, err = run(["solve", "--dataset", F1_DIR, "--k", "3",
                        "--llm-config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith(f"error: endpointUrl {url!r} ")


def test_llm_timeout_at_the_ceiling_reaches_the_oracle(tmp_path, capsys,
                                                      chat_server):
    """The longest timeout the config accepts still reaches the socket
    layer and makes a request."""
    chat_server.default_reply = "1.0"
    cfg = tmp_path / "llm.json"
    cfg.write_text(json.dumps({"endpointUrl": chat_server.url,
                               "timeout": threading.TIMEOUT_MAX}))
    code, out, err = run(["solve", "--dataset", F1_DIR, "--k", "3",
                          "--llm-config", str(cfg)],
                         capsys)
    assert (code, err) == (0, "")
    assert "oracleCalls: 1" in out.splitlines()
    assert len(chat_server.requests) == 1


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
                        "--llm-config", str(cfg)], capsys)
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
                        "--llm-config", str(cfg)], capsys)
    assert code == 2
    assert "constructs of arity 3 are not supported" in err
    assert chat_server.requests == []


@pytest.mark.parametrize("template, message", [
    ("{entityA} only: {query}", "lacks {entityB} needed for arity 2"),
    ("{entityA}{entityB} {nope}", "does not format: KeyError 'nope'"),
], ids=["no-entityB", "unknown-name"])
def test_bad_prompt_template_asks_nothing(tmp_path, capsys, chat_server,
                                          template, message):
    cfg = tmp_path / "llm.json"
    cfg.write_text(json.dumps({"endpointUrl": chat_server.url,
                               "promptTemplate": template}))
    code, _, err = run(["solve", "--dataset", F1_DIR, "--k", "3",
                        "--llm-config", str(cfg)], capsys)
    assert code == 2
    assert message in err
    assert chat_server.requests == []


def _set_spec_number(spec: dict, case: str) -> None:
    if case == "step":
        spec["step"] = math.inf
    elif case == "weight":
        spec["constructs"][0]["weight"] = math.inf
    else:
        spec["range"] = [0.0, math.inf]


@pytest.mark.parametrize("case, message", [
    ("gen-inf", "grid_step inf is not finite"),
    ("gen-nan", "grid_step nan is not finite"),
    ("step", "grid_step inf is not finite"),
    ("weight", "construct rel: weight inf is not finite"),
    ("range", "max_score inf is not finite"),
    ("experiment", "grid_step inf is not finite"),
], ids=["gen-inf", "gen-nan", "step", "weight", "range", "experiment"])
def test_non_finite_spec_number_exits_2(tmp_path, capsys, case, message):
    """JSON's `Infinity` reads as a float; it is bad input, not a crash."""
    out_dir = tmp_path / "out"
    if case.startswith("gen"):
        argv = ["gen", "--n", "4", "--k", "2", "--step", case[4:],
                "--out", str(out_dir)]
    elif case == "experiment":
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "kList": [2], "candidateCountList": [4], "policies": ["random"],
            "trials": 1, "gridStep": math.inf}))
        argv = ["experiment", "--config", str(cfg), "--out", str(out_dir)]
    else:
        ds = tmp_path / "ds"
        shutil.copytree(F1_DIR, ds)
        spec = json.loads((ds / "spec.json").read_text())
        _set_spec_number(spec, case)
        (ds / "spec.json").write_text(json.dumps(spec))
        argv = ["solve", "--dataset", str(ds), "--k", "3"]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert message in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_unwritable_trace_path_asks_nothing(tmp_path, capsys, chat_server):
    cfg = tmp_path / "llm.json"
    cfg.write_text(json.dumps({"endpointUrl": chat_server.url}))
    trace = tmp_path / "missing" / "t.jsonl"
    code, out, err = run(["solve", "--dataset", F1_DIR, "--k", "3",
                          "--llm-config", str(cfg),
                          "--trace", str(trace)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write trace {trace}: ")
    assert "Traceback" not in err
    assert "winner" not in out
    assert chat_server.requests == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_trace_write_that_fails_exits_2(capsys):
    """/dev/full opens, and its first step line fails with ENOSPC."""
    code, out, err = run(["solve", "--dataset", F1_DIR, "--k", "3",
                          "--trace", "/dev/full"], capsys)
    assert code == 2
    assert err == "error: cannot write trace /dev/full: No space left on device\n"
    assert out == ""


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
                          "--llm-config", str(cfg)],
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


def test_gen_then_solve_at_k_1(tmp_path, capsys):
    """At k = 1 the binary construct asks nothing, so gen writes div.csv
    with only its header; the dataset loads with its full ground truth
    and every policy solves it to the best entity."""
    out_dir = tmp_path / "k1"
    assert run(["gen", "--n", "5", "--k", "1", "--out", str(out_dir)],
               capsys)[0] == 0
    assert (out_dir / "div.csv").read_text() == "entityA,entityB,score,known\n"
    problem = topkset.load_problem(out_dir, 1, require_ground_truth=True)
    best = max(problem.ground_truth.values())
    for policy in topkset.Policy:
        code, out, _ = run(["solve", "--dataset", str(out_dir), "--k", "1",
                            "--policy", policy.value], capsys)
        assert code == 0
        winner = re.search(r"^winner: \{(\w+)\}$", out, re.M).group(1)
        assert problem.ground_truth[topkset.Question("rel", (winner,))] \
            == best


# The first 16 hex digits of the sha256 of every file `gen` writes.
GEN_DIGESTS = {
    "--seed 0 --n 6 --k 3 --step 0.5": {
        "candidates.csv": "d197ad5d53380f84", "div.csv": "a85a44deafe5ad91",
        "entities.csv": "29f720ad253df2c8", "query.txt": "fd772ee72b4ae11d",
        "rel.csv": "fc730a71035afa05", "spec.json": "5ab3ede3bb8c7e73"},
    "--seed 5 --n 7 --k 3 --step 0.1 --unknown 6": {
        "candidates.csv": "e5ad142f8842df2c", "div.csv": "2971e3d83eb45a3d",
        "entities.csv": "d4ef970ec2e8add9", "query.txt": "9827fb78acf81c21",
        "rel.csv": "057c77cda5445043", "spec.json": "34ccff72e1f8540c"},
    "--seed 2 --n 6 --k 3 --step 1e-6 --unknown 4": {
        "candidates.csv": "d197ad5d53380f84", "div.csv": "5fce764a3f92b691",
        "entities.csv": "29f720ad253df2c8", "query.txt": "251af45fb5b9304b",
        "rel.csv": "5c6cf78e7906b815", "spec.json": "fae755340e939d2f"},
    "--seed 9 --n 5 --k 2 --step 0.25 --unknown 0 --candidates 6": {
        "candidates.csv": "060834735fb8da12", "div.csv": "3d60235dc2a77b75",
        "entities.csv": "15cfb9788bcedc07", "query.txt": "7d6b8985cb2fd2f3",
        "rel.csv": "db5468fe183d3819", "spec.json": "ebe3792cabc07e41"},
}


@pytest.mark.parametrize("args", GEN_DIGESTS)
def test_gen_writes_the_same_bytes(tmp_path, capsys, args):
    """A seed makes the same dataset, byte for byte, at every step."""
    assert run(["gen", *args.split(), "--out", str(tmp_path)],
               capsys)[0] == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in tmp_path.iterdir()} == GEN_DIGESTS[args]


def test_dep_support_over_the_limit_asks_nothing(tmp_path, capsys,
                                                 chat_server):
    """At step 1e-4 a 2-set's support has 30001 points: the default
    policy exits 2 before any request and before the trace exists; the
    other policies solve the same dataset."""
    ds = tmp_path / "fine"
    assert run(["gen", "--n", "4", "--k", "2", "--step", "0.0001",
                "--out", str(ds)], capsys)[0] == 0
    cfg = tmp_path / "llm.json"
    cfg.write_text(json.dumps({"endpointUrl": chat_server.url}))
    trace = tmp_path / "t.jsonl"
    code, out, err = run(["solve", "--dataset", str(ds), "--k", "2",
                          "--llm-config", str(cfg),
                          "--trace", str(trace)], capsys)
    assert code == 2
    assert err.startswith("error: entrred-dep ")
    assert "30001 points, above the limit of 10000" in err
    assert "Traceback" not in err
    assert "winner" not in out
    assert chat_server.requests == []
    assert not trace.exists()
    for policy in ("entrred-ind", "random", "baseline"):
        code, out, _ = run(["solve", "--dataset", str(ds), "--k", "2",
                            "--policy", policy], capsys)
        assert code == 0
        assert "winner: {" in out


def _in_700_mb(*argv):
    """A `topkset` command in a child process under a 700 MB address-space
    cap set on that process only."""
    return _in_child(
        "resource.setrlimit(resource.RLIMIT_AS, (700 << 20, 700 << 20))",
        *argv)


def _in_child(setup, *argv):
    """A `topkset` command in a child process that first runs `setup`, one
    line that may use `resource` and `signal`."""
    code = "\n".join(("import resource, signal, sys", setup,
                      "from topkset.cli import entrypoint",
                      "sys.exit(entrypoint(sys.argv[1:]))"))
    src = str(Path(topkset.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120)


def test_candidate_count_over_the_limit_exits_2_in_little_memory(tmp_path):
    """A candidates.csv of all M=9880 3-sets of 40 entities: its M x M
    state would not fit, and `solve` exits 2 before building it."""
    ds = tmp_path / "big"
    ds.mkdir()
    shutil.copy(Path(F1_DIR) / "spec.json", ds)
    entities = [f"E{i:03d}" for i in range(40)]
    (ds / "entities.csv").write_text("id\n" + "".join(f"{e}\n"
                                                      for e in entities))
    (ds / "candidates.csv").write_text("".join(
        ",".join(c) + "\n" for c in itertools.combinations(entities, 3)))
    trace = tmp_path / "t.jsonl"
    out = _in_700_mb("solve", "--dataset", str(ds), "--k", "3",
                           "--trace", str(trace))
    assert out.returncode == 2, out.stderr
    assert re.match(r"error: 9880 candidates, above the limit of \d+ per "
                    r"solve; cap the list with --candidates$", out.stderr)
    assert "Traceback" not in out.stderr
    assert out.stdout == ""
    assert not trace.exists()


def test_too_many_k_sets_exit_2_before_any_is_listed(tmp_path):
    """500 entities hold 20 708 500 3-sets, too many to list in 700 MB:
    without candidates.csv or a cap, loading counts them and exits 2."""
    ds = tmp_path / "wide"
    ds.mkdir()
    shutil.copy(Path(F1_DIR) / "spec.json", ds)
    (ds / "entities.csv").write_text(
        "id\n" + "".join(f"E{i:03d}\n" for i in range(500)))
    trace = tmp_path / "t.jsonl"
    out = _in_700_mb("solve", "--dataset", str(ds), "--k", "3",
                           "--trace", str(trace))
    assert out.returncode == 2, out.stderr
    assert re.match(r"error: 20708500 candidates, above the limit of \d+ "
                    r"per solve; cap the list with --candidates$", out.stderr)
    assert "Traceback" not in out.stderr
    assert out.stdout == ""
    assert not trace.exists()
    # A cap lets the listing through to the next check.
    out = _in_700_mb("solve", "--dataset", str(ds), "--k", "3",
                           "--candidates", "100")
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: missing score file rel.csv")


def test_gen_refuses_more_k_sets_than_one_solve_takes(tmp_path, capsys):
    """`gen` counts the k-sets before listing any, and refuses what
    `solve` would refuse: listing the 20 708 500 3-sets of 500 entities
    ends in a `MemoryError` under 700 MB."""
    out_dir = tmp_path / "wide"
    start = time.perf_counter()
    out = _in_700_mb("gen", "--n", "500", "--k", "3", "--out", str(out_dir))
    assert time.perf_counter() - start < 5
    assert out.returncode == 2, out.stderr
    assert re.match(r"error: 20708500 candidates, above the limit of \d+ "
                    r"per solve; cap the list with --candidates$", out.stderr)
    assert "Traceback" not in out.stderr
    assert out.stdout == ""
    assert not out_dir.exists()
    # The largest uncapped 3-set list under the limit is still written.
    assert run(["gen", "--n", "32", "--k", "3", "--out", str(out_dir)],
               capsys)[0] == 0
    rows = (out_dir / "candidates.csv").read_text().splitlines()
    assert len(rows) == 4960


def test_k_sets_that_ask_too_many_questions_exit_2_creating_nothing(
        tmp_path):
    """One 2000-set asks 2 001 000 questions; building them ended in a
    `MemoryError` under 700 MB after about 13 s. `gen` and `experiment`
    refuse the set before they create their output directory."""
    out_dir = tmp_path / "bigk"
    message = (r"a 2000-set asks 2001000 questions, above the limit of \d+ "
               r"per candidate; use a smaller k$")
    start = time.perf_counter()
    out = _in_700_mb("gen", "--n", "3000", "--k", "2000", "--candidates",
                     "1", "--out", str(out_dir))
    assert time.perf_counter() - start < 5
    assert out.returncode == 2, out.stderr
    assert re.match("error: " + message, out.stderr)
    assert "Traceback" not in out.stderr
    assert not out_dir.exists()
    config = tmp_path / "bigk.json"
    config.write_text(json.dumps({"kList": [2000], "candidateCountList": [1],
                                  "policies": ["random"]}))
    out = _in_700_mb("experiment", "--config", str(config), "--out",
                     str(out_dir))
    assert out.returncode == 2, out.stderr
    assert re.match(f"error: malformed experiment config {re.escape(str(config))}: "
                    + message, out.stderr)
    assert "Traceback" not in out.stderr
    assert not out_dir.exists()


def test_gen_into_a_path_that_cannot_be_created(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / "x"
    code, out, err = run(["gen", "--n", "4", "--k", "2",
                          "--out", str(out_dir)], capsys)
    assert code == 2
    assert re.match(f"error: cannot write dataset {re.escape(str(out_dir))}"
                    f": .+\n$", err)
    assert "Traceback" not in err
    assert out == ""


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
    ({"kList": [2.5]}, "kList 2.5 is not an integer"),
    ({"candidateCountList": [True]}, "candidateCountList True is not an "
                                     "integer"),
    ({"candidateCountList": "4"}, "candidateCountList '4' is not a list"),
    ({"policies": "random"}, "policies 'random' is not a list"),
    ({"gridStep": True}, "gridStep True is not a number"),
    ({"trials": 1.9}, "trials 1.9 is not an integer"),
    ({"trials": True}, "trials True is not an integer"),
    ({"seedBase": 0.5}, "seedBase 0.5 is not an integer"),
    ({"unknownCount": 3.5}, "unknownCount 3.5 is not an integer"),
    ({"workers": 1.5}, "workers 1.5 is not an integer"),
    ({"policies": ["random", "entrred-dep"], "gridStep": 1e-4},
     "support of 30001 points, above the limit of 10000"),
    ({"trial": 1}, "unknown key 'trial'; expected one of kList, "),
    ({"kList": [3], "candidateCountList": [9880]},
     "candidate count 9880 is above the limit of "),
], ids=["k-zero", "count-zero", "unknown-negative", "step-off-range",
        "workers-zero", "k-fraction", "count-bool", "count-not-a-list",
        "policies-not-a-list", "step-bool", "trials-fraction", "trials-bool",
        "seed-fraction", "unknown-fraction", "workers-fraction",
        "dep-support-over-limit", "key-unknown", "count-over-limit"])
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
    assert f"error: malformed experiment config {cfg}: " in err
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


def test_experiment_write_that_fails_exits_2(tmp_path):
    """With no file space (RLIMIT_FSIZE 0, SIGXFSZ ignored) the write probe,
    an empty file, passes, and then runs.csv cannot be written: exit 2 with
    an error naming it, and no traceback."""
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "kList": [2], "candidateCountList": [4], "policies": ["random"],
        "trials": 1, "unknownCount": 3}))
    out_dir = tmp_path / "results"
    out = _in_child(
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
        "resource.setrlimit(resource.RLIMIT_FSIZE, (0, 0))",
        "experiment", "--config", str(cfg), "--out", str(out_dir))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith(
        f"error: cannot write {out_dir / 'runs.csv'}: ")
    assert "Traceback" not in out.stderr


def test_experiment_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kList": []}))
    code, _, err = run(["experiment", "--config", str(cfg),
                        "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert "error:" in err


def test_help_exits_cleanly(capsys):
    assert entrypoint(["--help"]) == 0
