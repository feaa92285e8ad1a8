"""The solve loop: ask questions until the top-k set is provably exact.

Per iteration the engine checks whether one candidate already dominates
every other on pairwise eliminated bounds. If not, it estimates the
winner distribution, picks the next question per policy, asks the
oracle, records the answer and prunes candidates that can no longer win.
The returned winner is always exact, never a guess.

The baseline policy instead asks every open question in universe order
and reads off the exact argmax; it exists as the cost yardstick.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

# score_bounds, elimination_cut, question_universe, questions_of and
# unknown_questions are imported only because perfbench/tracing.py wraps
# them by name on `engine`; the solve loop calls none of them.
from .bounds import (Incidence, Interval, elimination_cut, first_dominator,
                     score_bounds, undominated)
from .model import (Candidate, KnownStore, Problem, Question,
                    ValidationError, lattice_floats, question_universe,
                    questions_of, unknown_questions)
from .oracle import OracleError, OracleResponse, ResponseKind
from .selection import entropy, select_entrred, select_random
from .winner import prob_dep, prob_ind

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
    probability zero. `lo` and `hi` are each candidate's score bounds in
    quanta of `quantum`; `bounds` builds them as `Interval`s when read.
    `response` is the grid value recorded, as a correctly rounded float.
    """

    iteration: int
    question: Question
    response: float
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    quantum: Fraction
    probs: tuple[float, ...]
    entropy: float
    pruned: tuple[int, ...]

    @property
    def bounds(self) -> tuple[Interval, ...]:
        return tuple(map(Interval, self.lo, self.hi,
                         itertools.repeat(self.quantum)))


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


def _pad(probs: Sequence[float], rows: np.ndarray,
         n_total: int) -> tuple[float, ...]:
    out = [0.0] * n_total
    for i, p in zip(rows.tolist(), probs):
        out[i] = p
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
    knowns = problem.knowns
    nanos = {"bounds": 0, "probability": 0, "selection": 0, "oracle": 0}
    rng = random.Random(seed)
    steps: list[TraceStep] = []
    pending: Optional[tuple[Question, float]] = None
    calls = 0
    # Bounds of every candidate and cuts of every pair, kept current by
    # folding in each answer (`Incidence.fold`) in the bounds bucket.
    t0 = clock()
    core = Incidence(all_candidates, spec, knowns)
    nanos["bounds"] += clock() - t0
    if trace_path:
        # Fail before paying for any answer; the trace is written at the end.
        try:
            open(trace_path, "w", encoding="utf-8").close()
        except OSError as exc:
            raise ValidationError(
                f"cannot write trace {trace_path}: {exc.strerror}") from None
    live = np.ones(len(all_candidates), dtype=bool)
    baseline = policy is Policy.BASELINE

    def end(status: str, winner: Optional[Candidate] = None,
            exception: Optional[str] = None) -> None:
        if trace_path:
            _write_trace(trace_path, steps, status, winner, calls, nanos,
                         exception)

    t0 = clock()
    while True:
        rows = np.flatnonzero(live)
        cut = core.cut[np.ix_(rows, rows)]
        if not baseline:
            keep = undominated(core.lo[rows], core.hi[rows], cut)
            live[rows[~keep]] = False
            rows, cut = rows[keep], cut[np.ix_(keep, keep)]
        lo, hi = core.lo[rows], core.hi[rows]
        first = first_dominator(lo, hi, cut)
        winner = None if first is None else all_candidates[rows[first]]
        nanos["bounds"] += clock() - t0

        t0 = clock()
        if winner is not None:
            probs = [0.0] * len(rows)
            probs[first] = 1.0
        elif policy is Policy.ENTRRED_DEP:
            probs = prob_dep(lo.tolist(), hi.tolist(), cut.tolist()).probs
        else:
            # Observability for the random and baseline policies; their
            # selection never reads it.
            probs = prob_ind(lo.tolist(), hi.tolist()).probs
        probs_padded = _pad(probs, rows, len(all_candidates))
        step_entropy = entropy(probs_padded)
        nanos["probability"] += clock() - t0

        if pending is not None:
            q, v = pending
            pruned = tuple(np.flatnonzero(~live).tolist())
            steps.append(TraceStep(len(steps), q, v,
                                   tuple(core.lo.tolist()),
                                   tuple(core.hi.tolist()), spec.quantum,
                                   probs_padded, step_entropy, pruned))
            pending = None

        t0 = clock()
        # Open questions of the live candidates, in universe order.
        hits = core.members[rows]
        cols = (core.unknown & hits.any(axis=0)).nonzero()[0]
        if winner is not None and not (baseline and len(cols)):
            nanos["selection"] += clock() - t0
            end("ok", winner)
            return SolveResult(winner, calls, tuple(steps), nanos, knowns)
        if not len(cols):
            raise RuntimeError("no open question and no provable winner")
        if baseline:
            j = int(cols[0])
        elif policy is Policy.RANDOM:
            j = select_random(cols.tolist(), rng)
        else:
            affected = hits[:, cols].T.astype(bool)
            j = int(select_entrred(cols, probs, affected))
        question = core.question(j)
        nanos["selection"] += clock() - t0

        if max_calls is not None and calls >= max_calls:
            end("limit")
            raise SolveLimitError(max_calls, tuple(steps), nanos)

        t0 = clock()
        try:
            response = oracle.ask(question)
        except BaseException as exc:
            # Whatever the oracle raised, keep the answers paid for.
            nanos["oracle"] += clock() - t0
            if isinstance(exc, OracleError):
                end("oracle_error")
            else:
                end("oracle_exception", exception=type(exc).__name__)
            raise
        nanos["oracle"] += clock() - t0
        calls += 1
        try:
            knowns = knowns.record(spec, question, _response_value(response))
        except ValidationError:
            end("invalid_response")
            raise
        index = knowns.get(question)
        pending = (question, spec.grid_values()[index])
        t0 = clock()
        core.fold(j, index)


def _step_line(s: TraceStep) -> str:
    return json.dumps({
        "iter": s.iteration,
        "question": {"construct": s.question.construct,
                     "args": list(s.question.args)},
        "response": s.response,
        "bounds": [[lattice_floats(lo, s.quantum),
                    lattice_floats(hi, s.quantum)]
                   for lo, hi in zip(s.lo, s.hi)],
        "probs": list(s.probs),
        "entropy": s.entropy,
        "pruned": list(s.pruned),
    }, separators=(",", ":"))


def _write_trace(path: str, steps: Sequence[TraceStep], status: str,
                 winner: Optional[Candidate], calls: int,
                 nanos: dict[str, int],
                 exception: Optional[str] = None) -> None:
    """One line per step, then a status line: "ok" (with the winner),
    "limit", "oracle_error", "invalid_response" or "oracle_exception"
    (with the type name of what the oracle raised), the calls and time so
    far, and every validated answer paid for, so a failed solve keeps
    them."""
    summary: dict = {"status": status}
    if winner is not None:
        summary["winner"] = list(winner.members)
    if exception is not None:
        summary["exception"] = exception
    summary.update(
        oracleCalls=calls, perTaskNanos=nanos,
        answered=[{"construct": s.question.construct,
                   "args": list(s.question.args), "response": s.response}
                  for s in steps])
    lines = [_step_line(s) for s in steps]
    lines.append(json.dumps(summary, separators=(",", ":")))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
