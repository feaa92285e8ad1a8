"""The solve loop: ask questions until the top-k set is provably exact.

`Solver` is the proof, one answer at a time and without I/O. Each pass
prunes, checks whether one candidate dominates every other on pairwise
eliminated bounds and, if none does, estimates the winner distribution
and picks the next question. `solve` drives it: it asks the oracle, and
budgets, traces and reports. The winner is always exact, never a guess.

The baseline policy instead asks every open question in universe order
and reads off the exact argmax; it exists as the cost yardstick.
"""

from __future__ import annotations

import itertools
import json
import math
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
from .bounds import (Incidence, elimination_cut, prune_and_prove,
                     score_bounds)
from .model import (Candidate, KnownStore, Problem, Question, ScoringSpec,
                    ValidationError, lattice_floats, question_universe,
                    questions_of, unknown_questions)
from .oracle import OracleError
from .selection import select_entrred, select_random
from .winner import entropy, prob_dep, prob_ind

Clock = Callable[[], int]

# `entrred-dep` walks every lattice point of each compared pair's score
# supports, so its cost grows linearly with a candidate's support: about
# 0.4 ms per point for an M=30 instance (n=8, k=3, 24 open questions, one
# core of a 2-core x86-64 VM, Python 3.11). `solve` rejects that policy
# up front when the largest initial support, max(hi - lo) + 1 in quanta,
# exceeds this many points; such an instance takes about 4 s at the limit
# and about an hour at a grid step of 1e-6. The walk itself is never cut
# short, and the other policies take any support.
DEP_MAX_SUPPORT = 10_000

# Every policy keeps M x M arrays: peak RSS of an uncapped k=3 solve read
# 114-132 MB at M=2024 and 330-352 MB at M=4060 (fresh process, Python 3.11,
# numpy 2.4, x86-64), about 0.5 GB at this limit; `solve` rejects more.
MAX_CANDIDATES = 5_000

# A k-set asks sum over constructs of C(k, arity) questions, each ~0.85 KB
# of peak RSS from `gen` through `solve`: 234 MB at k=700 and 444 MB at
# k=1000 for one set (fresh process, Python 3.11, x86-64).
MAX_SET_QUESTIONS = 250_000


class Policy(Enum):
    ENTRRED_DEP = "entrred-dep"
    ENTRRED_IND = "entrred-ind"
    RANDOM = "random"
    BASELINE = "baseline"


class Oracle(Protocol):
    def ask(self, q: Question) -> float: ...


@dataclass(frozen=True)
class TraceStep:
    """What one iteration decided, after its response was folded in.

    `response` is the grid value recorded, as a correctly rounded float.
    Probabilities cover every candidate of the original problem; pruned
    candidates carry probability zero. `random` and `baseline` steps carry
    no estimate (`probs == ()`, `entropy is None`), traced or not, until a
    winner is provable, then the one-hot one.

    A step keeps no bounds. A trace gets each step's line, flushed, as the
    step is made, and that line holds every candidate's bounds at the
    time; `score_bounds` or `Incidence` over `problem.knowns` plus the
    first t + 1 answers rebuild them for step t.
    """

    iteration: int
    question: Question
    response: float
    probs: tuple[float, ...]
    entropy: Optional[float]
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
    """All k-subsets of the entities in lexicographic order, `cap`-truncated.

    Refuses more than one solve takes before listing any: millions of
    k-sets exhaust memory first.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > len(entities):
        raise ValidationError(f"k={k} exceeds {len(entities)} entities")
    if cap is not None and cap < 1:
        raise ValidationError(f"candidate cap must be >= 1, got {cap}")
    check_candidate_count(min(math.comb(len(entities), k),
                              math.inf if cap is None else cap))
    combos = itertools.combinations(sorted(entities), k)
    if cap is not None:
        combos = itertools.islice(combos, cap)
    return tuple(Candidate(i, c) for i, c in enumerate(combos))


def check_candidate_count(count: int) -> None:
    """Refuse `count` candidates when one solve takes fewer."""
    if count > MAX_CANDIDATES:
        raise ValidationError(
            f"{count} candidates, above the limit of {MAX_CANDIDATES} per "
            f"solve; cap the list with --candidates")


def check_set_questions(spec: ScoringSpec, k: int) -> None:
    """Refuse k-sets that ask more questions each than one solve takes.
    A k below 1 passes here, for the candidate checks to refuse."""
    count = sum(math.comb(max(k, 0), con.arity) for con in spec.constructs)
    if count > MAX_SET_QUESTIONS:
        raise ValidationError(
            f"a {k}-set asks {count} questions, above the limit of "
            f"{MAX_SET_QUESTIONS} per candidate; use a smaller k")


class Solver:
    """One query's proof, advanced one answer at a time. `knowns` keeps
    every answer fed in, so an oracle failure loses none; `winner` is set
    once `next_question` returns None. The "oracle" and "trace" buckets of
    `per_task_nanos` are the caller's to fill."""

    def __init__(self, problem: Problem, policy: Policy, *, seed: int = 0,
                 clock: Optional[Clock] = None):
        check_candidate_count(len(problem.candidates))
        check_set_questions(problem.spec, problem.k)
        self._problem, self._policy = problem, policy
        self._clock = clock = clock or time.perf_counter_ns
        self._rng = random.Random(seed)
        # "trace" times the step lines, and stays 0 when the solve is untraced.
        self.per_task_nanos = {"bounds": 0, "probability": 0, "selection": 0,
                               "oracle": 0, "trace": 0}
        # Every candidate's bounds and pair cuts, kept current by folding in
        # each answer (`Incidence.fold`) in the bounds bucket.
        t0 = clock()
        core = self._core = Incidence(problem.candidates, problem.spec,
                                      problem.knowns)
        self.per_task_nanos["bounds"] += clock() - t0
        if policy is Policy.ENTRRED_DEP:
            support = int((core.hi - core.lo).max()) + 1
            if support > DEP_MAX_SUPPORT:
                raise ValidationError(
                    f"entrred-dep cost grows with score support: the largest "
                    f"candidate support here is {support} points, above the "
                    f"limit of {DEP_MAX_SUPPORT}; use a coarser grid step or "
                    f"another policy")
        self.knowns, self.steps, self.winner = problem.knowns, [], None
        # The pending question and its column; then the answer folded since
        # the last pass: its fold's clock reading, question and grid value.
        self._question, self._column = None, -1
        self._folded: Optional[tuple[int, Question, float]] = None

    def next_question(self) -> Optional[Question]:
        """Pruning and the winner check, the estimate, the step of the
        answer just folded and selection: the next question, or None once
        `winner` is proved. Until it is answered, a call returns it again."""
        if self._question is not None or self.winner is not None:
            return self._question
        clock, nanos, core = self._clock, self.per_task_nanos, self._core
        policy, candidates = self._policy, self._problem.candidates
        baseline = policy is Policy.BASELINE
        t0 = self._folded[0] if self._folded else clock()
        # Over every row: a pruned row stays pruned (prune_and_prove).
        keep, top = prune_and_prove(core.lo, core.hi, core.cut)
        if baseline:  # asks every open question, so prunes nothing
            keep[:] = True
        rows = np.flatnonzero(keep)
        lo, hi = core.lo[rows], core.hi[rows]
        nanos["bounds"] += clock() - t0

        t0 = clock()
        if top is not None:
            probs = (rows == top).astype(float).tolist()
        elif policy is Policy.ENTRRED_DEP:
            probs = prob_dep(lo.tolist(), hi.tolist(),
                             core.cut[np.ix_(rows, rows)]).probs
        elif policy is Policy.ENTRRED_IND:
            probs = prob_ind(lo.tolist(), hi.tolist()).probs
        else:
            probs = ()
        probs_padded = ()
        if probs:
            padded = np.zeros(len(candidates))
            padded[rows] = probs
            probs_padded = tuple(padded.tolist())
        # Called once per iteration: perfbench counts iterations by it.
        step_entropy = entropy(probs)
        if not probs_padded:
            step_entropy = None
        nanos["probability"] += clock() - t0
        if self._folded:
            self.steps.append(TraceStep(
                len(self.steps), *self._folded[1:], probs_padded,
                step_entropy, tuple(np.flatnonzero(~keep).tolist())))
            self._folded = None

        t0 = clock()
        # Open questions of the live candidates, in universe order.
        hits = core.members[rows]
        cols = (core.unknown & hits.any(axis=0)).nonzero()[0]
        if top is not None and not (baseline and len(cols)):
            self.winner = candidates[top]
            nanos["selection"] += clock() - t0
            return None
        if not len(cols):
            raise RuntimeError("no open question and no provable winner")
        if baseline:
            j = int(cols[0])
        elif policy is Policy.RANDOM:
            j = select_random(cols.tolist(), self._rng)
        else:
            j = int(select_entrred(cols, probs, hits[:, cols].T))
        self._question, self._column = core.question(j), j
        nanos["selection"] += clock() - t0
        return self._question

    def answer(self, value: float) -> None:
        """Record `value` as the pending question's score and fold it in.
        An invalid value raises ValidationError, and an answer with no
        question pending RuntimeError; either changes nothing."""
        question, spec = self._question, self._problem.spec
        if question is None:
            raise RuntimeError("no question is pending; call next_question")
        self.knowns = self.knowns.record(spec, question, value)
        index = self.knowns.get(question)
        self._question = None
        self._folded = self._clock(), question, spec.grid_value(index)
        self._core.fold(self._column, index)


def solve(problem: Problem, policy: Policy, oracle: Oracle, *,
          seed: int = 0, max_calls: Optional[int] = None,
          trace_path: Optional[str] = None,
          clock: Optional[Clock] = None) -> SolveResult:
    """Run one query to completion and return an exact maximum.

    The winner is the lowest live candidate that weakly dominates every
    other live one once the proof completes; among tied maxima the
    questions asked decide which that is.

    A trace gets each step's line as the step is made and a status line on
    every exit. A trace write that fails raises ValidationError, unless
    another exception already ends the solve. `clock` must be a nanosecond
    counter; injecting a deterministic one makes the trace byte-for-byte
    reproducible.
    """
    if max_calls is not None and max_calls < 0:
        raise ValidationError(f"max_calls must be >= 0, got {max_calls}")
    clock = clock or time.perf_counter_ns
    solver = Solver(problem, policy, seed=seed, clock=clock)
    nanos, spec = solver.per_task_nanos, problem.spec
    # The trace's one open: fail before paying for any answer.
    try:
        trace = open(trace_path, "w", encoding="utf-8") if trace_path else None
    except OSError as exc:
        raise _unwritable(trace_path, exc) from None
    # Each exit sets its status where it happens; the rest are "exception".
    status, error = "exception", None
    calls = written = 0
    try:
        while True:
            selected = False
            try:
                question, selected = solver.next_question(), True
            finally:  # a step made before selection fails is traced too
                for step in solver.steps[written:] if trace else ():
                    t0 = clock()
                    try:
                        print(_step_line(step, solver._core, spec.quantum),
                              file=trace, flush=True)
                    except OSError as exc:
                        if selected:  # else what is in flight ends it
                            raise _unwritable(trace_path, exc) from None
                    nanos["trace"] += clock() - t0
                    written += 1
            if question is None:
                break
            if max_calls is not None and calls >= max_calls:
                status = "limit"
                raise SolveLimitError(max_calls, tuple(solver.steps), nanos)
            t0 = clock()
            try:
                response = oracle.ask(question)
            except BaseException as exc:
                status = ("oracle_error" if isinstance(exc, OracleError)
                          else "oracle_exception")
                raise
            finally:
                nanos["oracle"] += clock() - t0
            calls += 1
            try:
                solver.answer(response)
            except ValidationError:
                status = "invalid_response"
                raise
        status = "ok"
    except BaseException as exc:
        error = exc
        raise
    finally:
        if trace:
            summary: dict = {"status": status}
            if status == "ok":
                summary["winner"] = list(solver.winner.members)
            if status.endswith("exception"):
                summary["exception"] = type(error).__name__
            summary.update(oracleCalls=calls, perTaskNanos=nanos, answered=[
                {"construct": q.construct, "args": list(q.args),
                 "response": spec.grid_value(i)} for q, i in
                list(solver.knowns.items())[len(problem.knowns):]])
            try:
                with trace:
                    print(json.dumps(summary, separators=(",", ":")),
                          file=trace)
            except OSError as exc:
                if error is None:
                    raise _unwritable(trace_path, exc) from None
    return SolveResult(solver.winner, calls, tuple(solver.steps), nanos,
                       solver.knowns)


def _unwritable(path: str, exc: OSError) -> ValidationError:
    return ValidationError(f"cannot write trace {path}: {exc.strerror}")


def _step_line(s: TraceStep, core: Incidence, quantum: Fraction) -> str:
    """Step `s` as a trace line, with the bounds `core` holds now."""
    return json.dumps({
        "iter": s.iteration,
        "question": {"construct": s.question.construct,
                     "args": list(s.question.args)},
        "response": s.response,
        "bounds": lattice_floats(np.column_stack((core.lo, core.hi)),
                                 quantum).tolist(),
        "probs": list(s.probs),
        "entropy": s.entropy,
        "pruned": list(s.pruned),
    }, separators=(",", ":"))

