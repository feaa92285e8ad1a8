"""The benchmark's workloads: seeded inputs, set-up and the measured loops.

Each workload generates a seeded pool of synthetic instances, writes each
as a dataset directory, loads them back with `load_problem` and solves
every (instance, policy) job once, then keeps cycling through the jobs
until the run's time is up. Timings are per-job medians over those
passes, so the sample count and the tail percentile depend only on the
workload, and counts such as oracle calls repeat exactly for a seed.

Time metrics are normalised by the speed probe in speed.py, run before
each job; raw values go to the result file. A run pins its process to
one CPU, so that probe and solve run on the same core: the host's cores
drift in speed independently.

Every solve is checked: it fails if it raises, if its winner's exact
score is below the maximum (computed here from the generated ground
truth, not by the program), or if its `per_task_nanos` layers add up to
more than its wall time.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import requests

from topkset import (Construct, LlmOracle, LlmOracleConfig, Policy, Problem,
                     Question, ScoringSpec, TableOracle, generate_synthetic,
                     load_problem, solve, write_bundle)
from speed import Speed
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 5
# The per_task_nanos buckets every solve reports.
BUCKETS = ("bounds", "probability", "selection", "oracle")
# The stub parses the first three prompt lines: query text, construct
# and entity ids. Pinned here so that work on the engine's default
# prompt cannot break the stub.
PROMPT_TEMPLATE = "{query}\n{construct}\n{entityA}{entityB}\n"


@dataclass(frozen=True)
class PoolWorkload:
    """A seeded pool of synthetic instances, each solved under every policy."""

    name: str
    n: int
    m: int
    step: float
    open_questions: int
    policies: tuple
    instances: int
    http: bool = False
    k: int = 3


WORKLOADS = {w.name: w for w in (
    # M^2 pair work in pruning, the winner check and qef_score dominates.
    PoolWorkload("wide-coarse", n=10, m=100, step=0.5, open_questions=28,
                 policies=(Policy.ENTRRED_IND,), instances=56),
    # prob_dep's pairwise double sum grows with the fine grid.
    PoolWorkload("fine-dep", n=8, m=30, step=0.125, open_questions=24,
                 policies=(Policy.ENTRRED_DEP,), instances=64),
    # The only workload where the oracle layer (prompt, HTTP, parsing)
    # takes the largest share.
    PoolWorkload("http-oracle", n=6, m=10, step=0.5, open_questions=21,
                 policies=tuple(Policy), instances=32, http=True),
)}


def scoring_spec(step: float) -> ScoringSpec:
    return ScoringSpec((Construct("rel", 1, definition="relevance to the query"),
                        Construct("div", 2, definition="pairwise diversity")),
                       0.0, 1.0, step)


def oracle_answers(problem: Problem) -> dict:
    """The table the oracle answers from: the generated ground truth."""
    return dict(problem.ground_truth)


def best_scores(problem: Problem) -> tuple[dict, float]:
    """Exact total per candidate (by members) from the ground truth, and the max."""
    truth = problem.ground_truth
    totals = {}
    for c in problem.candidates:
        total = 0.0
        for con in problem.spec.constructs:
            groups = itertools.combinations(c.members, con.arity)
            total += con.weight * sum(truth[Question(con.name, g)]
                                      for g in groups)
        totals[c.members] = total
    return totals, max(totals.values())


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have been waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def tail_of(values) -> tuple[int, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    if len(xs) <= 10:
        return 100, xs[-1]
    i = len(xs) - 11
    return 100 * (i + 1) // len(xs), xs[i]


def probe_setup(job: dict) -> float:
    """Median of SETUP_PROBES cold set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             json.dumps({"src": str(SRC), **job})],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


@dataclass
class Job:
    policy: str
    calls: int = 0
    walls: list = field(default_factory=list)
    engine_ns: list = field(default_factory=list)
    raw_walls: list = field(default_factory=list)


@dataclass
class Tally:
    """Solves attempted and failed, and the samples of the ones that passed."""

    jobs: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    layer_ns: dict = field(default_factory=lambda: dict.fromkeys(BUCKETS, 0))
    wall_ns: int = 0
    solves: int = 0

    def fail(self, key, reason: str) -> None:
        self.attempted += 1
        self.failures.append(f"{key}: {reason}")

    def record(self, key, policy: str, wall: int, layers: dict, calls: int,
               reason: Optional[str] = None, scale: float = 1.0) -> None:
        if reason is None and sum(layers.values()) > wall:
            reason = "per_task_nanos layers exceed the solve's wall time"
        if reason is not None:
            self.fail(key, reason)
            return
        self.attempted += 1
        self.solves += 1
        self.wall_ns += wall
        for layer in BUCKETS:
            self.layer_ns[layer] += layers[layer]
        job = self.jobs.setdefault(key, Job(policy, calls))
        job.walls.append(wall * scale)
        job.engine_ns.append((wall - layers["oracle"]) * scale)
        job.raw_walls.append(wall)

    def median_wall_sum(self) -> float:
        return sum(statistics.median(j.walls) for j in self.jobs.values())

    def end_to_end(self, elapsed: "Elapsed", setup_s: float) -> tuple[dict, dict]:
        """The end-to-end metrics, and details the report prints beside them."""
        jobs = list(self.jobs.values())
        walls = [statistics.median(j.walls) / 1e9 for j in jobs] or [0.0]
        calls = sum(j.calls for j in jobs)
        pct, tail = tail_of(walls)
        by_policy: dict[str, list] = {}
        for j in jobs:
            by_policy.setdefault(j.policy, []).append(j.calls)
        metrics = {
            "solve_s.p50": statistics.median(walls),
            "solve_s.tail": tail,
            "solves_per_s": self.solves / elapsed.scaled,
            "oracle_calls": calls / max(len(jobs), 1),
            "engine_ms_per_call": sum(statistics.median(j.engine_ns)
                                      for j in jobs) / 1e6 / max(calls, 1),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        raw = [statistics.median(j.raw_walls) / 1e9 for j in jobs] or [0.0]
        details = {
            "raw": {"solve_s.p50": statistics.median(raw),
                    "solve_s.tail": tail_of(raw)[1],
                    "solves_per_s": self.solves / elapsed.raw},
            "speed_scale": statistics.median(elapsed.scales),
            "busy_s": {layer: ns / 1e9 / max(self.solves, 1)
                       for layer, ns in self.layer_ns.items()},
            "samples": len(jobs),
            "solves": self.solves,
            "tail_percentile": pct,
            "failed_frac": len(self.failures) / max(self.attempted, 1),
            "oracle_calls_by_policy": {p: statistics.mean(c)
                                       for p, c in sorted(by_policy.items())},
        }
        return metrics, details


@dataclass
class Elapsed:
    """Time spent in measured items, raw and speed-normalised, in seconds."""

    raw: float = 0.0
    scaled: float = 0.0
    scales: list = field(default_factory=list)


def measure(items: list, run_item: Callable, seconds: float) -> Elapsed:
    """Run every item once, then cycle through them until `seconds` pass.

    Each item is preceded by a speed probe and called as
    run_item(item, scale); the probes are not counted as elapsed time.
    """
    speed = Speed()
    elapsed = Elapsed()
    start = time.perf_counter()
    for done, item in enumerate(itertools.cycle(items)):
        if done >= len(items) and time.perf_counter() - start >= seconds:
            break
        scale = speed.scale()
        t0 = time.perf_counter()
        run_item(item, scale)
        took = time.perf_counter() - t0
        elapsed.raw += took
        elapsed.scaled += took * scale
    elapsed.scales = speed.scales
    return elapsed


def per_layer(untraced: Tally, cpu_s: float, wall_s: float, load_s: float,
              tracer: Tracer, overhead: float) -> dict:
    """Per-layer metrics.

    Busy times, shares and CPU figures come from the untraced passes
    (per_task_nanos), counts and self times from the traced solves.
    """
    n = max(untraced.solves, 1)
    s = tracer.summary()
    estimates = s.get("estimates", 0)
    pdfs = s.get("uniform_pdf", 0)
    asks = s["ask_ms"] or [0.0]
    out = {}
    for layer in BUCKETS:
        out[f"{layer}.busy_s"] = untraced.layer_ns[layer] / 1e9 / n
        out[f"{layer}.share"] = untraced.layer_ns[layer] / max(untraced.wall_ns, 1)
    for layer in ("probability", "selection", "oracle", "model", "engine"):
        out[f"{layer}.self_s"] = s[f"{layer}.self_s"]
    out.update({
        "bounds.score_bounds_calls": s.get("score_bounds", 0),
        "bounds.pair_cuts": s.get("elimination_cut", 0),
        "bounds.pruned_frac": s.get("pruned_frac", 0),
        "probability.estimates": estimates,
        "probability.read_ratio": s.get("estimates_read", 0) / estimates
        if estimates else 0.0,
        "probability.pdf_comparisons": s.get("geq_probability", 0)
        + s.get("geq_probability_naive", 0),
        "probability.support_points": s.get("support_points", 0) / pdfs
        if pdfs else 0.0,
        "selection.qef_calls": s.get("qef_score", 0),
        "oracle.latency_ms.p50": statistics.median(asks),
        "oracle.latency_ms.tail": tail_of(asks)[1],
        "oracle.retries": s.get("retries", 0),
        "oracle.errors": s.get("ask.errors", 0),
        "model.record_s": s["record_s"],
        "model.record_calls": s.get("record.calls", 0),
        "model.questions_of_calls": s.get("questions_of", 0),
        "engine.iterations": s.get("entropy.calls", 0),
        "harness.load_problem_s": load_s,
        "harness.cpu_util": cpu_s / wall_s,
        "harness.row_wall_per_cpu": untraced.wall_ns / 1e9 / cpu_s
        if cpu_s else 0.0,
        "tracing.overhead": overhead,
    })
    return out


@dataclass
class Outcome:
    tally: Tally
    metrics: dict
    details: dict
    tracer: Optional[Tracer] = None


def run_measured(items: list, run_item: Callable, seconds: float, trace: bool,
                 setup_s: float, load_s: float) -> Outcome:
    """Timed: cycle through `items` for `seconds`, report end-to-end metrics.

    Traced: untraced passes over the first third of the time give busy
    times, CPU figures and the wall times to compare against; traced
    passes, with this module's `solve` as the root span, fill the rest and
    give the per-layer metrics.
    """
    if not trace:
        tally = Tally()
        elapsed = measure(items, lambda it, sc: run_item(it, tally, sc),
                          seconds)
        return Outcome(tally, *tally.end_to_end(elapsed, setup_s))
    untraced = Tally()
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    elapsed = measure(items, lambda it, sc: run_item(it, untraced, sc),
                      seconds / 3)
    cpu_s, wall_s = cpu_seconds() - cpu0, time.perf_counter() - t0
    traced = Tally()
    with Tracer() as tracer:
        tracer.install(sys.modules[__name__])
        measure(items, lambda it, sc: run_item(it, traced, sc),
                seconds - wall_s)
    overhead = traced.median_wall_sum() / max(untraced.median_wall_sum(), 1)
    metrics = per_layer(untraced, cpu_s, wall_s, load_s, tracer, overhead)
    untraced.attempted += traced.attempted
    untraced.failures += traced.failures
    _, details = untraced.end_to_end(elapsed, setup_s)
    return Outcome(untraced, metrics, details, tracer)


class Stub:
    """The chat-completion stub in its own process; stopped on exit."""

    def __init__(self, tables: dict, work: Path):
        path = work / "stub_tables.json"
        path.write_text(json.dumps(tables), encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub_server.py"), str(path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("stub server did not start")
        self.url = f"http://127.0.0.1:{port}/v1/chat/completions"

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Stub":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def stub_tables(problems: list, answers: list) -> dict:
    return {p.query_text: {f"{q.construct}|{' and '.join(q.args)}": v
                           for q, v in a.items()}
            for p, a in zip(problems, answers)}


def run_pool(wl: PoolWorkload, rng: random.Random, seconds: float,
             trace: bool, work: Path) -> Outcome:
    seeds = [rng.getrandbits(31) for _ in range(wl.instances)]
    generated = [generate_synthetic(wl.n, wl.k, candidate_cap=wl.m, seed=s,
                                    spec=scoring_spec(wl.step),
                                    unknown_count=wl.open_questions)
                 for s in seeds]
    dirs = [write_bundle(p, work / f"inst-{i:03d}")
            for i, p in enumerate(generated)]
    setup_s = probe_setup({"k": wl.k, "datasets": [str(d) for d in dirs]})
    t0 = time.perf_counter()
    problems = [load_problem(d, wl.k, require_ground_truth=True) for d in dirs]
    load_s = (time.perf_counter() - t0) / len(dirs)
    truths = [best_scores(p) for p in generated]
    answers = [oracle_answers(p) for p in generated]

    with contextlib.ExitStack() as stack:
        if wl.http:
            stub = stack.enter_context(Stub(stub_tables(generated, answers),
                                            work))
            session = stack.enter_context(requests.Session())
            session.trust_env = False
            cfg = LlmOracleConfig(stub.url, prompt_template=PROMPT_TEMPLATE,
                                  timeout_s=10.0)
            oracles = [LlmOracle(cfg, p.spec, query_text=p.query_text,
                                 session=session) for p in problems]
        else:
            oracles = [TableOracle(a) for a in answers]

        def run_job(job, tally: Tally, scale: float) -> None:
            i, policy = job
            t0 = time.perf_counter_ns()
            try:
                # Looked up at call time: traced runs swap in a root span.
                result = sys.modules[__name__].solve(
                    problems[i], policy, oracles[i], seed=seeds[i])
            except Exception as exc:  # a raising solve counts as failed
                tally.fail(job, repr(exc))
                return
            wall = time.perf_counter_ns() - t0
            totals, best = truths[i]
            got = totals[result.winner.members]
            tally.record(job, policy.value, wall, result.per_task_nanos,
                         result.oracle_calls,
                         f"winner scores {got}, the maximum is {best}"
                         if got < best - 1e-9 else None, scale)

        jobs = [(i, p) for i in range(len(problems)) for p in wl.policies]
        # Traced runs take every third job, so that untraced and traced
        # passes both fit in about one run's time.
        return run_measured(jobs[::3] if trace else jobs, run_job, seconds,
                            trace, setup_s, load_s)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path, held_out: bool = False) -> Outcome:
    """Run one workload; its inputs depend only on name, seed and stream."""
    stream = "held-out" if held_out else "dev"
    rng = random.Random(f"{name}/{stream}/{seed}")
    wl = WORKLOADS[name]
    work.mkdir(parents=True, exist_ok=True)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return run_pool(wl, rng, seconds, trace, work)
    finally:
        os.sched_setaffinity(0, allowed)
