"""Benchmark for the topkset engine: seeded workloads, exact-winner checks.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of wide-coarse, fine-dep, http-oracle, or `all`,
which runs each in its own process. `--trace 0` measures the end-to-end
metrics with tracing off; `--trace 1` is a separate traced run that
prints the per-layer metrics and writes the span dump. `--held-out`
draws the inputs from a second seed stream, kept for checking a claim
on inputs not used while the change was written. Results, spans and the
per-layer table go to perfbench/out/. The last line of standard output
is one JSON object: correct, attempted, failed and metrics, whose
names and units are those BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("wide-coarse", "fine-dep", "http-oracle")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="draw inputs from the held-out seed stream")
    return ap.parse_args(argv)


def git_commit() -> str:
    # Stop git at the checkout root, so that a checkout without .git
    # reports "unknown" instead of the commit of an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seedStream": "held-out" if args.held_out else "dev",
            "seconds": args.seconds, "trace": args.trace,
            "commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def declared(kind: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_one(args) -> int:
    import workloads

    tag = (f"{args.workload}-{'heldout' if args.held_out else 'seed'}"
           f"{args.seed}-trace{args.trace}")
    meta = metadata(args)
    work = OUT / f"work-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        outcome = workloads.run_workload(args.workload, args.seed,
                                         args.seconds, bool(args.trace),
                                         work, args.held_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = outcome.tally
    failed = len(tally.failures)
    units = declared("per_layer" if args.trace else "end_to_end")
    if set(units) != set(outcome.metrics):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(outcome.metrics))}")
    metrics = {name: {"value": outcome.metrics[name], "unit": unit}
               for name, unit in units.items()}

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    d = outcome.details
    print(f"  {'failed_frac':<28} {d['failed_frac']:>14.6g} frac"
          f"  ({failed} of {tally.attempted} solves)")
    print(f"  samples={d['samples']} distinct solves, {d['solves']} timed; "
          f"solve_s.tail is p{d['tail_percentile']}")
    print("  oracle_calls by policy: " + ", ".join(
        f"{p}={c:.4g}" for p, c in d["oracle_calls_by_policy"].items()))
    print("  busy_s per solve from per_task_nanos: " + ", ".join(
        f"{layer}={s:.4g}" for layer, s in d["busy_s"].items()))
    for reason in tally.failures[:10]:
        print(f"  FAILED {reason}")

    OUT.mkdir(exist_ok=True)
    result = {"meta": meta, "metrics": metrics, "details": d,
              "failures": tally.failures[:100]}
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n",
                                     encoding="utf-8")
    if outcome.tracer is not None:
        outcome.tracer.write_spans(OUT / f"{tag}-spans.jsonl")
        (OUT / f"{tag}-layers.txt").write_text("".join(
            f"{name} {m['value']:.6g} {m['unit']}\n"
            for name, m in metrics.items()), encoding="utf-8")
        print(f"  spans: {OUT / (tag + '-spans.jsonl')}")

    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.held_out:
            cmd.append("--held-out")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "topkset" / "__init__.py").is_file():
        print(f"error: no topkset sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
