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

Every file is read as UTF-8 and may start with a byte-order mark, as
spreadsheet exports often do.

Experiments solve seeded synthetic instances across policies and write
per-run, summary and ratio CSVs.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import random
import statistics
import time
from collections.abc import Container
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .bounds import score_bounds
from .engine import (DEP_MAX_SUPPORT, MAX_CANDIDATES, Clock, Policy,
                     check_candidate_count, check_set_questions,
                     enumerate_candidates, solve)
from .model import (Candidate, Construct, KnownStore, Problem, Question,
                    ScoringSpec, ValidationError, instance_of, only_keys,
                    question_universe, read_json_object, real_number, typed,
                    universe_keys, whole_number)
from .oracle import TableOracle

ENTITY_COLUMNS = ("id", "displayName", "contextText")
KNOWN_FLAGS = {"": True, "1": True, "true": True, "0": False, "false": False}


def _read(path: Path, parse, newline: Optional[str] = None):
    """parse(open text file), with any failure to read it as a
    ValidationError naming the file."""
    try:
        with open(path, newline=newline, encoding="utf-8-sig") as fh:
            return parse(fh)
    except FileNotFoundError:
        raise ValidationError(f"dataset {path.parent} has no {path.name}") \
            from None
    except (OSError, ValueError, csv.Error) as exc:
        raise ValidationError(f"cannot read {path.name}: {exc}") from None


def _read_rows(path: Path) -> list:
    return _read(path, lambda fh: list(csv.DictReader(fh)), newline="")


def _write_rows(path: Path, rows) -> Path:
    """Write `rows`, a header first where the file has one, as UTF-8 CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path


def _entity_columns(con: Construct) -> tuple[str, ...]:
    """The entity columns of a construct's score file."""
    return ("entity",) if con.arity == 1 else ("entityA", "entityB")


# The keys a spec.json and each of its constructs may hold.
_SPEC_KEYS = ("constructs", "range", "step", "aggregation")
_CONSTRUCT_KEYS = ("name", "arity", "weight", "definition")


def load_spec(path: Path) -> ScoringSpec:
    """Read a spec.json: constructs with a string `name` and `definition`
    and a whole-number `arity`, numbers (numeric strings too, booleans
    not) for `weight`, `range` and `step`. A bad file or value, or a key
    the spec or a construct does not have, is a ValidationError naming
    the key."""
    raw = read_json_object(path, "scoring spec")
    try:
        only_keys(raw, _SPEC_KEYS)
        items = typed("constructs", raw["constructs"], instance_of(list),
                      "a list of objects",
                      lambda v: all(isinstance(c, dict) for c in v))
        for c in items:
            only_keys(c, _CONSTRUCT_KEYS, "construct key")
        lo, hi = (typed("range", v, real_number, "a number")
                  for v in typed("range", raw["range"], instance_of(list),
                                 "a list of two numbers",
                                 lambda v: len(v) == 2))
        constructs = tuple(
            Construct(typed("name", c["name"], instance_of(str), "a string"),
                      typed("arity", c["arity"], whole_number, "an integer"),
                      typed("weight", c.get("weight", 1.0), real_number,
                            "a number"),
                      typed("definition", c.get("definition", ""),
                            instance_of(str), "a string"))
            for c in items)
        if raw.get("aggregation", "sum") != "sum":
            raise ValueError(f"unsupported aggregation {raw['aggregation']!r}")
        return ScoringSpec(constructs, lo, hi,
                           typed("step", raw["step"], real_number, "a number"))
    except (KeyError, ValueError) as exc:
        what = f"lacks {exc}" if isinstance(exc, KeyError) else exc
        raise ValidationError(f"malformed scoring spec {path}: {what}")


def load_problem(dataset_dir: str | Path, k: int,
                 candidate_cap: Optional[int] = None,
                 require_ground_truth: bool = False) -> Problem:
    """Read and validate a dataset directory into a Problem.

    Binary score rows are symmetrized; the same pair at two grid indices
    is a conflict, and a score is kept as the grid value it reads as.
    With `require_ground_truth` every question over the candidate set
    must carry a score, which is what a table-oracle run needs.
    """
    root = Path(dataset_dir)
    spec = load_spec(root / "spec.json")

    context: dict[str, str] = {}
    for r in _read_rows(root / "entities.csv"):
        eid = (r.get("id") or "").strip()
        if not eid:
            raise ValidationError("entity row without id")
        if eid in context:
            raise ValidationError(f"duplicate entity id {eid!r}")
        context[eid] = (r.get("contextText") or "").strip()
    if not context:
        raise ValidationError("entities.csv has no rows")

    entities = tuple(context)
    check_set_questions(spec, k)
    cand_file = root / "candidates.csv"
    if cand_file.exists():
        candidates = _load_candidates(cand_file, k, context, candidate_cap)
    else:
        candidates = enumerate_candidates(entities, k, cap=candidate_cap)

    # Grid index of every scored row and of the known ones, checked as
    # read; the store and the ground truth are built once at the end.
    indices: dict[Question, int] = {}
    revealed: dict[Question, int] = {}
    for con in spec.constructs:
        path = root / f"{con.name}.csv"
        if not path.exists():
            raise ValidationError(f"missing score file {path.name} "
                                  f"for construct {con.name!r}")
        rows = _read_rows(path)
        # A construct over more than k entities asks no question of a
        # k-set, so its file may hold only a header (gen --k 1 writes one).
        if not rows and con.arity <= k:
            raise ValidationError(f"score file {path.name} has no rows")
        for line, r in enumerate(rows, start=2):
            q = _row_question(con, r, context, path.name)
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
            index = spec.grid_index(v)
            if index is None:
                raise ValidationError(
                    f"{path.name} line {line}: score {v} for {q} is off-grid")
            if indices.setdefault(q, index) != index:
                raise ValidationError(
                    f"{path.name}: conflicting scores for {q}: "
                    f"{spec.grid_value(indices[q])} vs {v}")
            if known:
                revealed[q] = index

    if require_ground_truth:
        given = {(q.construct, q.args) for q in indices}
        for key in universe_keys(spec, candidates):
            if key not in given:
                raise ValidationError("table oracle needs a score for "
                                      f"{Question(*key)} but none was given")

    query_file = root / "query.txt"
    query_text = _read(query_file, lambda fh: fh.read()).strip() \
        if query_file.exists() else ""

    return Problem(entities, spec, k, candidates, KnownStore(revealed),
                   {q: spec.grid_value(i) for q, i in indices.items()},
                   query_text, context)


def _load_candidates(path: Path, k: int, entity_pool: Container[str],
                     cap: Optional[int]) -> tuple[Candidate, ...]:
    if cap is not None and cap < 1:
        raise ValidationError(f"candidate cap must be >= 1, got {cap}")

    def parse(fh):
        # The nonempty rows up to the cap, and of those past the limit
        # only a count: millions of rows, or their Candidates, exhaust
        # memory before `solve` could refuse them.
        rows = itertools.islice((row for row in csv.reader(fh)
                                 if any(map(str.strip, row))), cap)
        head = [tuple(x.strip() for x in row if x.strip())
                for row in itertools.islice(rows, MAX_CANDIDATES)]
        return head, len(head) + sum(1 for _ in rows)

    rows, count = _read(path, parse, newline="")
    for members in rows:
        if len(members) != k:
            raise ValidationError(
                f"candidates.csv row {members} is not a {k}-set")
        for e in members:
            if e not in entity_pool:
                raise ValidationError(
                    f"candidates.csv references unknown entity {e!r}")
    check_candidate_count(count)
    if not rows:
        raise ValidationError("candidates.csv has no rows")
    return tuple(Candidate(i, m) for i, m in enumerate(rows))


def _row_question(con: Construct, row: dict, entity_pool: Container[str],
                  fname: str) -> Question:
    args = []
    for col in _entity_columns(con):
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
                       unknown_count: Optional[int] = None) -> Problem:
    """Seeded random instance: grid-valued ground truth over all questions.

    `unknown_count` leaves that many questions unrevealed, or all of them
    when the universe holds fewer (the rest become initially known);
    without it every question is unknown.
    """
    if n < k:
        raise ValidationError("need n >= k")
    if unknown_count is not None and unknown_count < 0:
        raise ValidationError(
            f"unknown question count must be >= 0, got {unknown_count}")
    spec = spec or default_spec()
    check_set_questions(spec, k)
    entities = tuple(f"E{i:03d}" for i in range(n))
    candidates = enumerate_candidates(entities, k, cap=candidate_cap)
    universe = question_universe(spec, candidates)
    rng = random.Random(seed)
    # randrange(n) draws as choice over n grid values: a seed's data stays.
    truth = {q: rng.randrange(spec.steps + 1) for q in universe}
    revealed = {}
    if unknown_count is not None:
        u = min(unknown_count, len(universe))
        hidden = set(rng.sample(range(len(universe)), u))
        revealed = {q: i for pos, (q, i) in enumerate(truth.items())
                    if pos not in hidden}
    return Problem(entities, spec, k, candidates, KnownStore(revealed),
                   {q: spec.grid_value(i) for q, i in truth.items()},
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
        "aggregation": "sum",
    }, indent=2) + "\n", encoding="utf-8")

    _write_rows(root / "entities.csv", [ENTITY_COLUMNS, *(
        [e, e, problem.entity_context.get(e, "")] for e in problem.entities)])

    universe = question_universe(spec, problem.candidates)
    gt = problem.ground_truth or {}
    for con in spec.constructs:
        rows = [(*_entity_columns(con), "score", "known")]
        for q in universe:
            if q.construct != con.name:
                continue
            i = problem.knowns.get(q)
            known = i is not None
            v = spec.grid_value(i) if known else gt.get(q)
            rows.append([*q.args, "" if v is None else v, int(known)])
        _write_rows(root / f"{con.name}.csv", rows)

    _write_rows(root / "candidates.csv",
                (c.members for c in problem.candidates))

    (root / "query.txt").write_text(problem.query_text + "\n", encoding="utf-8")
    return root


# Each ExperimentConfig field's key in a config file, which its type
# errors name, the kind of value it holds and what that reads as.
_EXPERIMENT_FIELDS = {
    "k_list": ("kList", whole_number, "an integer"),
    "candidate_count_list": ("candidateCountList", whole_number, "an integer"),
    "policies": ("policies", Policy, "a policy"),
    "trials": ("trials", whole_number, "an integer"),
    "seed_base": ("seedBase", whole_number, "an integer"),
    "grid_step": ("gridStep", real_number, "a number"),
    "unknown_count": ("unknownCount", whole_number, "an integer"),
    "workers": ("workers", whole_number, "an integer"),
}
# The fields that hold lists of them, the only ones without a default.
_EXPERIMENT_LISTS = ("k_list", "candidate_count_list", "policies")


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
        """Type every field as a config file would, then reject any value
        a cell would fail on, before `run_experiment` creates anything."""
        for name, (key, kind, what) in _EXPERIMENT_FIELDS.items():
            value = getattr(self, name)
            if name in _EXPERIMENT_LISTS:
                value = tuple(typed(key, v, kind, what) for v in typed(
                    key, value, instance_of(list, tuple), "a list"))
            elif value is not None or name != "unknown_count":
                value = typed(key, value, kind, what)
            object.__setattr__(self, name, value)
        if not self.k_list or not self.candidate_count_list or not self.policies:
            raise ValidationError("k_list, candidate_count_list and policies "
                                  "must be nonempty")
        for what, values, least in (
                ("trials", (self.trials,), 1), ("k", self.k_list, 1),
                ("candidate count", self.candidate_count_list, 1),
                ("unknown question count", (self.unknown_count or 0,), 0),
                ("workers", (self.workers,), 1)):
            for v in values:
                if v < least:
                    raise ValidationError(
                        f"{what} must be >= {least}, got {v}")
        if max(self.candidate_count_list) > MAX_CANDIDATES:
            raise ValidationError(
                f"candidate count {max(self.candidate_count_list)} is above "
                f"the limit of {MAX_CANDIDATES} per solve; lower "
                f"candidateCountList (solve caps a dataset with --candidates)")
        spec = default_spec(self.grid_step)
        for k in self.k_list:
            check_set_questions(spec, k)
        if Policy.ENTRRED_DEP in self.policies:
            # An upper bound on the largest initial support `solve` would
            # meet in any cell: every question of a k-set open, or only
            # `unknown_count` of them at the widest span.
            widest = max(spec.span(c.name) for c in spec.constructs)
            for k in self.k_list:
                support = 1 + sum(math.comb(k, c.arity) * spec.span(c.name)
                                  for c in spec.constructs)
                if self.unknown_count is not None:
                    support = min(support, 1 + self.unknown_count * widest)
                if support > DEP_MAX_SUPPORT:
                    raise ValidationError(
                        f"entrred-dep cells with k={k} could reach a "
                        f"candidate support of {support} points, above the "
                        f"limit of {DEP_MAX_SUPPORT}; use a coarser "
                        f"gridStep or drop entrred-dep")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        raw = read_json_object(path, "experiment config")
        try:
            only_keys(raw, (key for key, *_ in _EXPERIMENT_FIELDS.values()))
            return cls(**{name: raw[key] for name, (key, *_)
                          in _EXPERIMENT_FIELDS.items()
                          if key in raw or name in _EXPERIMENT_LISTS})
        except (KeyError, ValidationError) as exc:
            what = f"lacks {exc}" if isinstance(exc, KeyError) else exc
            raise ValidationError(f"malformed experiment config {path}: {what}")


def _cell_seed(seed_base: int, k: int, m_cand: int, trial: int) -> int:
    """The seed of one experiment cell, a different one for every
    (seed_base, k, m_cand, trial): seed_base b folded onto the naturals
    (2b, or -2b - 1 when b < 0), then paired with k, m_cand and trial in
    turn by Cantor's bijection P(x, y) = (x + y)(x + y + 1)/2 + y. It is
    never negative, as `random.Random` seeds -s and s alike."""
    seed = 2 * seed_base if seed_base >= 0 else -2 * seed_base - 1
    for y in (k, m_cand, trial):
        seed = (seed + y) * (seed + y + 1) // 2 + y
    return seed


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
    knowns = KnownStore(truth)
    scores = []
    for c in problem.candidates:
        iv = score_bounds(c, spec, knowns)
        if iv.lo != iv.hi:
            raise ValidationError("ground truth missing for a question of "
                                  f"{c.members}")
        scores.append(iv.lb)
    return scores


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
                cells.append((k, m_cand, n, trial,
                              _cell_seed(cfg.seed_base, k, m_cand, trial)))

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

    # No more threads than cores or cells, whatever the config asks.
    workers = min(cfg.workers, os.cpu_count() or 1, len(cells))
    if workers > 1:
        # Imported here so that `import topkset` stays without it.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(c) for c in cells]
    rows = [r for cell_rows in results for r in cell_rows]
    rows.sort(key=lambda r: (r["k"], r["M"], r["policy"], r["trial"]))

    # Mean calls, wall time and recall per (k, M, policy): summary.csv
    # lists them and ratios.csv divides them, empty where a mean is
    # missing or 0.
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["k"], r["M"], r["policy"]), []).append(r)
    means = {key: {col: statistics.mean(r[col] for r in rs)
                   for col in ("oracleCalls", "wallNanos", "recallBit")}
             for key, rs in sorted(groups.items())}
    summary = [("k", "M", "policy", "meanCalls", "meanWallNanos",
                "recallRate")]
    for key, m in means.items():
        summary.append([*key, *m.values()])
    ratios = [("k", "M", "callsRandomOverEntrredInd", "timeDepOverInd")]
    for k in cfg.k_list:
        for m_cand in cfg.candidate_count_list:
            rand, ind, dep = (means.get((k, m_cand, p.value), {}) for p in (
                Policy.RANDOM, Policy.ENTRRED_IND, Policy.ENTRRED_DEP))
            row = [k, m_cand]
            for a, b in ((rand.get("oracleCalls"), ind.get("oracleCalls")),
                         (dep.get("wallNanos"), ind.get("wallNanos"))):
                row.append(a / b if a and b else "")
            ratios.append(row)

    tables = {"runs": [RUN_COLUMNS, *([r[col] for col in RUN_COLUMNS]
                                      for r in rows)],
              "summary": summary, "ratios": ratios}
    paths = {}
    for name, table in tables.items():
        path = root / f"{name}.csv"
        try:
            paths[name] = _write_rows(path, table)
        except OSError as exc:
            raise ValidationError(
                f"cannot write {path}: {exc.strerror}") from None
    return paths
