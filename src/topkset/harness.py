"""Dataset I/O, synthetic instance generation and the experiment runner.

A dataset directory holds:

- spec.json: constructs, score range, grid step, aggregation
- entities.csv: id,displayName,contextText
- one <construct>.csv per construct: arity-many entity columns, then
  score (may be empty when unknown and no ground truth exists) and a
  known flag marking initially revealed scores: 1 or true for known,
  0 or false for hidden (any case, spaces ignored); a missing column or
  empty cell means known
- query.txt: free query text (optional)
- candidates.csv: optional explicit candidate rows; absent means all
  k-subsets in lexicographic order

Experiments solve seeded synthetic instances across policies and write
per-run, summary and ratio CSVs.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .bounds import Incidence
from .engine import Clock, Policy, enumerate_candidates, solve
from .model import (Candidate, Construct, KnownStore, Problem, Question,
                    ScoringSpec, ValidationError, lattice_floats,
                    question_universe)
from .oracle import TableOracle

ENTITY_COLUMNS = ("id", "displayName", "contextText")
KNOWN_FLAGS = {"": True, "1": True, "true": True, "0": False, "false": False}


def _read(path: Path, parse, newline: Optional[str] = None):
    """parse(open text file), with any failure to read it as a
    ValidationError naming the file."""
    try:
        with open(path, newline=newline, encoding="utf-8") as fh:
            return parse(fh)
    except FileNotFoundError:
        raise ValidationError(f"dataset {path.parent} has no {path.name}") \
            from None
    except (OSError, ValueError, csv.Error) as exc:
        raise ValidationError(f"cannot read {path.name}: {exc}") from None


def _read_rows(path: Path, reader=csv.DictReader) -> list:
    return _read(path, lambda fh: list(reader(fh)), newline="")


def load_spec(path: Path) -> ScoringSpec:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read scoring spec {path}: {exc}")
    try:
        constructs = tuple(
            Construct(c["name"], int(c["arity"]),
                      float(c.get("weight", 1.0)), c.get("definition", ""))
            for c in raw["constructs"])
        lo, hi = raw["range"]
        return ScoringSpec(constructs, float(lo), float(hi),
                           float(raw["step"]),
                           raw.get("aggregation", "sum"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed scoring spec {path}: {exc}")


def load_problem(dataset_dir: str | Path, k: int,
                 candidate_cap: Optional[int] = None,
                 require_ground_truth: bool = False) -> Problem:
    """Read and validate a dataset directory into a Problem.

    Binary score rows are symmetrized; the same pair listed twice with
    different scores is a conflict. With `require_ground_truth` every
    question over the candidate set must carry a score, which is what a
    table-oracle run needs.
    """
    root = Path(dataset_dir)
    spec = load_spec(root / "spec.json")

    erows = _read_rows(root / "entities.csv")
    entities: list[str] = []
    display: dict[str, str] = {}
    context: dict[str, str] = {}
    for r in erows:
        eid = (r.get("id") or "").strip()
        if not eid:
            raise ValidationError("entity row without id")
        if eid in display:
            raise ValidationError(f"duplicate entity id {eid!r}")
        entities.append(eid)
        display[eid] = (r.get("displayName") or eid).strip()
        context[eid] = (r.get("contextText") or "").strip()
    if not entities:
        raise ValidationError("entities.csv has no rows")

    cand_file = root / "candidates.csv"
    if cand_file.exists():
        candidates = _load_candidates(cand_file, k, set(entities), candidate_cap)
    else:
        candidates = enumerate_candidates(entities, k, cap=candidate_cap)

    knowns = KnownStore()
    ground_truth: dict[Question, float] = {}
    for con in spec.constructs:
        path = root / f"{con.name}.csv"
        if not path.exists():
            raise ValidationError(f"missing score file {path.name} "
                                  f"for construct {con.name!r}")
        rows = _read_rows(path)
        if not rows:
            raise ValidationError(f"score file {path.name} has no rows")
        for line, r in enumerate(rows, start=2):
            q = _row_question(con, r, set(entities), path.name)
            score_text = (r.get("score") or "").strip()
            flag = (r.get("known") or "").strip().lower()
            if flag not in KNOWN_FLAGS:
                raise ValidationError(
                    f"{path.name} line {line}: known flag {r['known']!r} "
                    "is not 1, 0, true or false")
            known = KNOWN_FLAGS[flag]
            if score_text == "":
                if known:
                    raise ValidationError(
                        f"{path.name}: known row for {q} lacks a score")
                continue
            try:
                v = float(score_text)
            except ValueError:
                raise ValidationError(
                    f"{path.name} line {line}: score {score_text!r} for {q} "
                    "is not a number") from None
            if spec.grid_index(v) is None:
                raise ValidationError(
                    f"{path.name} line {line}: score {v} for {q} is off-grid")
            if q in ground_truth and ground_truth[q] != v:
                raise ValidationError(
                    f"{path.name}: conflicting scores for {q}: "
                    f"{ground_truth[q]} vs {v}")
            ground_truth[q] = v
            if known:
                knowns = knowns.record(spec, q, v)

    if require_ground_truth:
        for q in question_universe(spec, candidates):
            if q not in ground_truth:
                raise ValidationError(
                    f"table oracle needs a score for {q} but none was given")

    query_file = root / "query.txt"
    query_text = _read(query_file, lambda fh: fh.read()).strip() \
        if query_file.exists() else ""

    return Problem(tuple(entities), spec, k, candidates, knowns,
                   ground_truth, query_text, context)


def _load_candidates(path: Path, k: int, entity_pool: set,
                     cap: Optional[int]) -> tuple[Candidate, ...]:
    if cap is not None and cap < 1:
        raise ValidationError(f"candidate cap must be >= 1, got {cap}")
    out: list[Candidate] = []
    for row in _read_rows(path, csv.reader):
        members = tuple(x.strip() for x in row if x.strip())
        if not members:
            continue
        if len(members) != k:
            raise ValidationError(
                f"candidates.csv row {members} is not a {k}-set")
        for e in members:
            if e not in entity_pool:
                raise ValidationError(
                    f"candidates.csv references unknown entity {e!r}")
        out.append(Candidate(len(out), members))
        if cap is not None and len(out) >= cap:
            break
    if not out:
        raise ValidationError("candidates.csv has no rows")
    return tuple(out)


def _row_question(con: Construct, row: dict, entity_pool: set,
                  fname: str) -> Question:
    if con.arity == 1:
        cols = ("entity",)
    else:
        cols = ("entityA", "entityB")
    args = []
    for col in cols:
        e = (row.get(col) or "").strip()
        if not e:
            raise ValidationError(f"{fname}: row missing column {col!r}")
        if e not in entity_pool:
            raise ValidationError(f"{fname}: unknown entity id {e!r}")
        args.append(e)
    return Question(con.name, tuple(args))


def default_spec(grid_step: float = 0.5) -> ScoringSpec:
    return ScoringSpec(
        constructs=(Construct("rel", 1, definition="relevance to the query"),
                    Construct("div", 2, definition="pairwise diversity")),
        min_score=0.0, max_score=1.0, grid_step=grid_step)


def generate_synthetic(n: int, k: int, candidate_cap: Optional[int] = None,
                       seed: int = 0, spec: Optional[ScoringSpec] = None,
                       unknown_count: Optional[int] = None,
                       known_fraction: float = 0.0) -> Problem:
    """Seeded random instance: grid-valued ground truth over all questions.

    `unknown_count` leaves exactly that many questions unrevealed (the
    rest become initially known); otherwise each question is revealed
    independently with probability `known_fraction`.
    """
    if n < k:
        raise ValidationError("need n >= k")
    if unknown_count is not None and unknown_count < 0:
        raise ValidationError(
            f"unknown question count must be >= 0, got {unknown_count}")
    spec = spec or default_spec()
    entities = tuple(f"E{i:03d}" for i in range(n))
    candidates = enumerate_candidates(entities, k, cap=candidate_cap)
    universe = question_universe(spec, candidates)
    rng = random.Random(seed)
    grid = spec.grid_values()
    ground_truth = {q: rng.choice(grid) for q in universe}
    if unknown_count is not None:
        u = min(unknown_count, len(universe))
        hidden = set(rng.sample(range(len(universe)), u))
        revealed = [i for i in range(len(universe)) if i not in hidden]
    else:
        revealed = [i for i in range(len(universe))
                    if rng.random() < known_fraction]
    knowns = KnownStore()
    for i in revealed:
        q = universe[i]
        knowns = knowns.record(spec, q, ground_truth[q])
    return Problem(entities, spec, k, candidates, knowns, ground_truth,
                   query_text=f"synthetic n={n} k={k} seed={seed}")


def write_bundle(problem: Problem, out_dir: str | Path) -> Path:
    """Write a Problem back out as a dataset directory."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    spec = problem.spec
    (root / "spec.json").write_text(json.dumps({
        "constructs": [{"name": c.name, "arity": c.arity, "weight": c.weight,
                        "definition": c.definition} for c in spec.constructs],
        "range": [spec.min_score, spec.max_score],
        "step": spec.grid_step,
        "aggregation": spec.aggregation,
    }, indent=2) + "\n", encoding="utf-8")

    with open(root / "entities.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(ENTITY_COLUMNS)
        for e in problem.entities:
            w.writerow([e, e, problem.entity_context.get(e, "")])

    universe = question_universe(spec, problem.candidates)
    gt = problem.ground_truth or {}
    for con in spec.constructs:
        with open(root / f"{con.name}.csv", "w", newline="",
                  encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["entity", "score", "known"] if con.arity == 1
                       else ["entityA", "entityB", "score", "known"])
            for q in universe:
                if q.construct != con.name:
                    continue
                i = problem.knowns.get(q)
                known = i is not None
                v = spec.grid_values()[i] if known else gt.get(q)
                w.writerow([*q.args, "" if v is None else v, int(known)])

    with open(root / "candidates.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        for c in problem.candidates:
            w.writerow(c.members)

    (root / "query.txt").write_text(problem.query_text + "\n", encoding="utf-8")
    return root


@dataclass(frozen=True)
class ExperimentConfig:
    k_list: tuple[int, ...]
    candidate_count_list: tuple[int, ...]
    policies: tuple[Policy, ...]
    trials: int = 5
    seed_base: int = 0
    grid_step: float = 0.5
    unknown_count: Optional[int] = None
    workers: int = 1

    def __post_init__(self):
        """Reject every value a cell would fail on, before
        `run_experiment` creates anything."""
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if not self.k_list or not self.candidate_count_list or not self.policies:
            raise ValidationError("k_list, candidate_count_list and policies "
                                  "must be nonempty")
        for name, values in (("k", self.k_list),
                             ("candidate count", self.candidate_count_list)):
            for v in values:
                if v < 1:
                    raise ValidationError(f"{name} must be >= 1, got {v}")
        if self.unknown_count is not None and self.unknown_count < 0:
            raise ValidationError(f"unknown question count must be >= 0, "
                                  f"got {self.unknown_count}")
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        default_spec(self.grid_step)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read experiment config: {exc}")
        try:
            return cls(
                k_list=tuple(int(x) for x in raw["kList"]),
                candidate_count_list=tuple(int(x) for x in raw["candidateCountList"]),
                policies=tuple(Policy(p) for p in raw["policies"]),
                trials=int(raw.get("trials", 5)),
                seed_base=int(raw.get("seedBase", 0)),
                grid_step=float(raw.get("gridStep", 0.5)),
                unknown_count=(int(raw["unknownCount"])
                               if raw.get("unknownCount") is not None else None),
                workers=int(raw.get("workers", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed experiment config: {exc}")


def _smallest_n(k: int, want: int) -> int:
    n = k
    while math.comb(n, k) < want:
        n += 1
    return n


def exact_scores(problem: Problem) -> list[float]:
    """Per-candidate exact totals under the full ground truth."""
    spec = problem.spec
    truth = dict(problem.knowns.items())
    truth.update((q, spec.grid_index(v))
                 for q, v in (problem.ground_truth or {}).items())
    lo, hi, _ = Incidence(problem.candidates, spec).bounds(KnownStore(truth))
    open_ = np.flatnonzero(lo != hi)
    if len(open_):
        raise ValidationError("ground truth missing for a question of "
                              f"{problem.candidates[open_[0]].members}")
    return lattice_floats(lo, spec.quantum).tolist()


RUN_COLUMNS = ("dataset", "k", "M", "policy", "trial", "oracleCalls",
               "wallNanos", "boundsNanos", "probNanos", "selectNanos",
               "oracleNanos", "recallBit")


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path,
                   clock: Optional[Clock] = None) -> dict[str, Path]:
    """Solve every (k, M, policy, trial) cell and write CSV metrics.

    Returns the paths of the three files written: runs, summary, ratios.
    A trial's recall bit is 1 when the returned winner's exact score
    equals the exact maximum over all candidates.
    """
    clock = clock or time.perf_counter_ns
    root = Path(out_dir)
    try:
        root.mkdir(parents=True, exist_ok=True)
        probe = root / ".write_probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise ValidationError(f"output dir not writable: {exc}")

    cells = []
    for k in cfg.k_list:
        for m_cand in cfg.candidate_count_list:
            n = _smallest_n(k, m_cand)
            for trial in range(cfg.trials):
                seed = cfg.seed_base * 1_000_000 + k * 100_000 \
                    + m_cand * 1_000 + trial
                cells.append((k, m_cand, n, trial, seed))

    def run_cell(cell):
        k, m_cand, n, trial, seed = cell
        problem = generate_synthetic(
            n, k, candidate_cap=m_cand, seed=seed,
            spec=default_spec(cfg.grid_step),
            unknown_count=cfg.unknown_count)
        oracle = TableOracle(problem.ground_truth)
        truth = exact_scores(problem)
        best = max(truth)
        rows = []
        for policy in cfg.policies:
            t0 = clock()
            result = solve(problem, policy, oracle, seed=seed, clock=clock)
            wall = clock() - t0
            got = truth[result.winner.index]
            rows.append({
                "dataset": f"synthetic-n{n}",
                "k": k, "M": m_cand, "policy": policy.value, "trial": trial,
                "oracleCalls": result.oracle_calls,
                "wallNanos": wall,
                "boundsNanos": result.per_task_nanos["bounds"],
                "probNanos": result.per_task_nanos["probability"],
                "selectNanos": result.per_task_nanos["selection"],
                "oracleNanos": result.per_task_nanos["oracle"],
                "recallBit": int(got == best),
            })
        return rows

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(c) for c in cells]
    rows = [r for cell_rows in results for r in cell_rows]
    rows.sort(key=lambda r: (r["k"], r["M"], r["policy"], r["trial"]))

    runs_path = root / "runs.csv"
    with open(runs_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=RUN_COLUMNS)
        w.writeheader()
        w.writerows(rows)

    summary_path = root / "summary.csv"
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["k"], r["M"], r["policy"]), []).append(r)
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "M", "policy", "meanCalls", "meanWallNanos",
                    "recallRate"])
        for (k, m_cand, policy), rs in sorted(groups.items()):
            w.writerow([k, m_cand, policy,
                        statistics.mean(r["oracleCalls"] for r in rs),
                        statistics.mean(r["wallNanos"] for r in rs),
                        statistics.mean(r["recallBit"] for r in rs)])

    ratios_path = root / "ratios.csv"
    with open(ratios_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "M", "callsRandomOverEntrredInd", "timeDepOverInd"])
        for k in cfg.k_list:
            for m_cand in cfg.candidate_count_list:
                def mean_of(policy, col):
                    rs = groups.get((k, m_cand, policy.value))
                    return statistics.mean(r[col] for r in rs) if rs else None
                rand_calls = mean_of(Policy.RANDOM, "oracleCalls")
                ind_calls = mean_of(Policy.ENTRRED_IND, "oracleCalls")
                dep_time = mean_of(Policy.ENTRRED_DEP, "wallNanos")
                ind_time = mean_of(Policy.ENTRRED_IND, "wallNanos")
                call_ratio = (rand_calls / ind_calls
                              if rand_calls and ind_calls else "")
                time_ratio = (dep_time / ind_time
                              if dep_time and ind_time else "")
                w.writerow([k, m_cand, call_ratio, time_ratio])

    return {"runs": runs_path, "summary": summary_path, "ratios": ratios_path}
