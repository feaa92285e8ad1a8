"""The solve loop: ask questions until the top-k set is provably exact.

Per iteration the engine checks whether one candidate already dominates
every other on pairwise eliminated bounds. If not, it estimates the
winner distribution, picks the next question per policy, asks the
oracle, records the answer and prunes candidates that can no longer win.
The returned winner is always exact, never a guess.

The baseline policy instead asks every open question up front and reads
off the exact argmax; it exists as the cost yardstick.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

# perfbench/tracing.py wraps module functions by name on `engine`.
# score_bounds, elimination_cut and questions_of are imported only for it;
# question_universe and unknown_questions only order a baseline solve's
# questions, once per solve.
from .bounds import (Incidence, Interval, elimination_cut, first_dominator,
                     score_bounds, undominated)
from .model import (Candidate, KnownStore, Problem, Question, ScoringSpec,
                    ValidationError, question_universe, questions_of,
                    unknown_questions)
from .oracle import OracleResponse, ResponseKind
from .selection import entropy, select_entrred, select_random
from .winner import WinnerDistribution, prob_dep, prob_ind

Clock = Callable[[], int]


class Policy(Enum):
    ENTRRED_DEP = "entrred-dep"
    ENTRRED_IND = "entrred-ind"
    RANDOM = "random"
    BASELINE = "baseline"


class Oracle(Protocol):
    def ask(self, q: Question) -> OracleResponse: ...


@dataclass(frozen=True)
class TraceStep:
    """State snapshot taken after one response has been folded in.

    Bounds and probabilities cover every candidate of the original
    problem; pruned candidates keep narrowing bounds and carry
    probability zero. `response` is the grid value recorded, as a
    correctly rounded float.
    """

    iteration: int
    question: Question
    response: float
    bounds: tuple[Interval, ...]
    probs: tuple[float, ...]
    entropy: float
    pruned: tuple[int, ...]


@dataclass(frozen=True)
class SolveResult:
    winner: Candidate
    oracle_calls: int
    steps: tuple[TraceStep, ...]
    per_task_nanos: dict[str, int]
    knowns: KnownStore


class SolveLimitError(RuntimeError):
    """Call budget exhausted before the winner became provable."""

    def __init__(self, max_calls: int, steps: tuple[TraceStep, ...],
                 per_task_nanos: dict[str, int]):
        super().__init__(f"no provable winner within {max_calls} oracle calls")
        self.max_calls = max_calls
        self.steps = steps
        self.per_task_nanos = per_task_nanos


def enumerate_candidates(entities: Sequence[str], k: int,
                         cap: Optional[int] = None) -> tuple[Candidate, ...]:
    """All k-subsets of the entities in lexicographic order, `cap`-truncated."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > len(entities):
        raise ValidationError(f"k={k} exceeds {len(entities)} entities")
    if cap is not None and cap < 1:
        raise ValidationError(f"candidate cap must be >= 1, got {cap}")
    combos = itertools.combinations(sorted(entities), k)
    if cap is not None:
        combos = itertools.islice(combos, cap)
    return tuple(Candidate(i, c) for i, c in enumerate(combos))


def find_winner(candidates: Sequence[Candidate], spec: ScoringSpec,
                knowns: KnownStore) -> Optional[Candidate]:
    """The candidate provably at least as good as every other, if one exists.

    Dominance is checked on pairwise eliminated bounds. Mutually dominant
    ties resolve to the lowest position.
    """
    if not candidates:
        return None
    i = first_dominator(*_all_pairs(candidates, spec, knowns))
    return None if i is None else candidates[i]


def prune_dominated(candidates: Sequence[Candidate], spec: ScoringSpec,
                    knowns: KnownStore) -> tuple[Candidate, ...]:
    """Drop candidates some other candidate strictly dominates."""
    if not candidates:
        return ()
    keep = undominated(*_all_pairs(candidates, spec, knowns))
    return tuple(c for c, k in zip(candidates, keep) if k)


def _all_pairs(candidates: Sequence[Candidate], spec: ScoringSpec,
               knowns: KnownStore) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    core = Incidence(candidates, spec)
    lb, ub, unknown = core.bounds(knowns)
    return lb, ub, core.cuts(unknown, np.arange(len(candidates)))


def _one_hot(winner: Candidate, active: Sequence[Candidate]) -> WinnerDistribution:
    probs = tuple(1.0 if c.index == winner.index else 0.0 for c in active)
    return WinnerDistribution(probs, probs)


def _pad(dist: WinnerDistribution, active: Sequence[Candidate],
         n_total: int) -> tuple[float, ...]:
    out = [0.0] * n_total
    for c, p in zip(active, dist.probs):
        out[c.index] = p
    return tuple(out)


def _response_value(resp: OracleResponse) -> float:
    if resp.kind is not ResponseKind.POINT:
        raise ValidationError(
            "solve consumes point responses; fold ranges through "
            "process_responses and pass the pdf support bounds instead")
    return resp.value


def solve(problem: Problem, policy: Policy, oracle: Oracle, *,
          seed: int = 0, max_calls: Optional[int] = None,
          trace_path: Optional[str] = None,
          clock: Optional[Clock] = None) -> SolveResult:
    """Run one query to completion and return the exact winner.

    `clock` must be a nanosecond counter; injecting a deterministic one
    makes the emitted trace byte-for-byte reproducible.
    """
    if max_calls is not None and max_calls < 0:
        raise ValidationError(f"max_calls must be >= 0, got {max_calls}")
    clock = clock or time.perf_counter_ns
    spec = problem.spec
    all_candidates = problem.candidates
    if not all_candidates:
        raise ValidationError("no candidates")
    knowns = problem.knowns
    nanos = {"bounds": 0, "probability": 0, "selection": 0, "oracle": 0}
    rng = random.Random(seed)
    steps: list[TraceStep] = []
    pending: Optional[tuple[Question, float]] = None
    calls = 0
    core = Incidence(all_candidates, spec)
    live = np.ones(len(all_candidates), dtype=bool)
    baseline = policy is Policy.BASELINE
    if baseline:
        ask_order = list(unknown_questions(
            question_universe(spec, all_candidates), knowns))
        next_q = 0

    while True:
        t0 = clock()
        lb, ub, unknown = core.bounds(knowns)
        rows = np.flatnonzero(live)
        cut = core.cuts(unknown, rows)
        if not baseline:
            keep = undominated(lb[rows], ub[rows], cut)
            live[rows[~keep]] = False
            rows, cut = rows[keep], cut[np.ix_(keep, keep)]
        first = first_dominator(lb[rows], ub[rows], cut)
        winner = None if first is None else all_candidates[rows[first]]
        active = tuple(all_candidates[i] for i in rows)
        nanos["bounds"] += clock() - t0

        t0 = clock()
        if winner is not None:
            dist = _one_hot(winner, active)
        elif policy is Policy.ENTRRED_DEP:
            dist = prob_dep(active, spec, knowns, lo=lb[rows].tolist(),
                            hi=ub[rows].tolist(), cut=cut.tolist())
        else:
            # Observability for the random and baseline policies; their
            # selection never reads it.
            dist = prob_ind(active, spec, knowns, lo=lb[rows].tolist(),
                            hi=ub[rows].tolist())
        probs_padded = _pad(dist, active, len(all_candidates))
        step_entropy = entropy(probs_padded)
        nanos["probability"] += clock() - t0

        if pending is not None:
            q, v = pending
            bounds_all = tuple(map(Interval, lb.tolist(), ub.tolist(),
                                   itertools.repeat(spec.quantum)))
            pruned = tuple(np.flatnonzero(~live).tolist())
            steps.append(TraceStep(len(steps), q, v, bounds_all,
                                   probs_padded, step_entropy, pruned))
            pending = None

        done = (next_q >= len(ask_order)) if baseline else (winner is not None)
        if done:
            if winner is None:
                raise RuntimeError("exhausted questions without provable winner")
            result = SolveResult(winner, calls, tuple(steps), nanos, knowns)
            if trace_path:
                _write_trace(trace_path, result)
            return result

        t0 = clock()
        if baseline:
            question = ask_order[next_q]
            next_q += 1
        else:
            # Open questions of the live candidates, in universe order.
            cols = np.flatnonzero(unknown & core.members[rows].any(axis=0))
            unknowns = [core.questions[j] for j in cols]
            if policy is Policy.RANDOM:
                question = select_random(unknowns, rng)
            else:
                affected = core.members[np.ix_(rows, cols)].T.astype(bool)
                question = select_entrred(active, dist.probs, unknowns, spec,
                                          affected=affected.tolist())
        nanos["selection"] += clock() - t0

        if max_calls is not None and calls >= max_calls:
            if trace_path:
                _write_trace(trace_path, None, steps=tuple(steps))
            raise SolveLimitError(max_calls, tuple(steps), nanos)

        t0 = clock()
        response = oracle.ask(question)
        nanos["oracle"] += clock() - t0
        calls += 1
        knowns = knowns.record(spec, question, _response_value(response))
        pending = (question, spec.grid_values()[knowns.get(question)])


def _step_line(s: TraceStep) -> str:
    return json.dumps({
        "iter": s.iteration,
        "question": {"construct": s.question.construct,
                     "args": list(s.question.args)},
        "response": s.response,
        "bounds": [[iv.lb, iv.ub] for iv in s.bounds],
        "probs": list(s.probs),
        "entropy": s.entropy,
        "pruned": list(s.pruned),
    }, separators=(",", ":"))


def _write_trace(path: str, result: Optional[SolveResult],
                 steps: Optional[tuple[TraceStep, ...]] = None) -> None:
    lines = [_step_line(s) for s in (result.steps if result else steps or ())]
    if result is not None:
        lines.append(json.dumps({
            "winner": list(result.winner.members),
            "oracleCalls": result.oracle_calls,
            "perTaskNanos": result.per_task_nanos,
        }, separators=(",", ":")))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
