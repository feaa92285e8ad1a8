"""The solve loop: dominance, pruning, policies, traces and budgets."""

import collections
import itertools
import json
import math
import os
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from topkset import (Candidate, Construct, KnownStore, Policy, Problem,
                     Question, ScoringSpec, SolveLimitError, Solver,
                     TableOracle, ValidationError, enumerate_candidates,
                     generate_synthetic, solve)
from topkset import bounds, engine, selection, winner
from topkset.bounds import prune_and_prove, score_bounds
from topkset.engine import (DEP_MAX_SUPPORT, MAX_CANDIDATES,
                            MAX_SET_QUESTIONS)
from topkset.harness import default_spec, exact_scores
from topkset.model import question_universe, questions_of, unknown_questions
from topkset.oracle import OracleError

from .conftest import core_arrays
from .test_bounds import REFERENCE_SPECS

ALL_POLICIES = (Policy.ENTRRED_DEP, Policy.ENTRRED_IND, Policy.RANDOM,
                Policy.BASELINE)


class TestEnumerateCandidates:
    def test_lexicographic_ordering(self):
        got = enumerate_candidates(("C", "A", "B"), 2)
        assert [c.members for c in got] == \
            [("A", "B"), ("A", "C"), ("B", "C")]
        assert [c.index for c in got] == [0, 1, 2]

    def test_cap(self):
        got = enumerate_candidates(("A", "B", "C", "D"), 2, cap=3)
        assert len(got) == 3

    def test_bad_k(self):
        with pytest.raises(ValidationError):
            enumerate_candidates(("A",), 0)
        with pytest.raises(ValidationError):
            enumerate_candidates(("A",), 2)

    def test_more_than_the_limit_are_refused_before_listing(self):
        entities = [f"E{i:03d}" for i in range(40)]
        with pytest.raises(ValidationError,
                           match="^9880 candidates, above the limit"):
            enumerate_candidates(entities, 3)
        with pytest.raises(ValidationError,
                           match=f"^{MAX_CANDIDATES + 1} candidates, above"):
            enumerate_candidates(entities, 3, cap=MAX_CANDIDATES + 1)
        assert len(enumerate_candidates(entities, 3, cap=10)) == 10


def bounds_and_cuts(cands, spec, knowns):
    """The arrays the solve loop's winner check and pruning read."""
    a = core_arrays(cands, spec, knowns)
    return np.array(a.lo), np.array(a.hi), a.cut


class TestFindWinnerAndPrune:
    """The solve loop's winner check and pruning on the core's arrays."""

    def test_open_hotel_race_has_no_winner(self, f1):
        keep, first = prune_and_prove(
            *bounds_and_cuts(f1.candidates, f1.spec, f1.knowns))
        assert first is None
        assert keep.all()

    def test_one_answer_settles_the_race(self, f1):
        knowns = f1.knowns.record(f1.spec, Question("div", ("MLN", "HYN")), 1.0)
        keep, first = prune_and_prove(
            *bounds_and_cuts(f1.candidates, f1.spec, knowns))
        assert first == 0
        assert keep.tolist() == [True, False, False]

    def test_exact_tie_resolves_to_lowest_index(self):
        from topkset import Candidate, KnownStore
        from topkset.harness import default_spec
        spec = default_spec()
        cands = (Candidate(0, ("A",)), Candidate(1, ("B",)))
        knowns = KnownStore().record(spec, Question("rel", ("A",)), 0.5)
        knowns = knowns.record(spec, Question("rel", ("B",)), 0.5)
        _, first = prune_and_prove(*bounds_and_cuts(cands, spec, knowns))
        assert first == 0


class ScriptedOracle:
    """Replies with the given responses in order, whatever the question;
    an exception among them is raised instead."""

    def __init__(self, *responses):
        self.responses = list(responses)
        self.calls = 0

    def ask(self, q):
        self.calls += 1
        reply = self.responses.pop(0)
        if isinstance(reply, BaseException):
            raise reply
        return reply


def test_solve_hotels_with_one_call(f1):
    result = solve(f1, Policy.ENTRRED_DEP, TableOracle(f1.ground_truth))
    assert result.winner.members == ("HNY", "HYN", "MLN")
    assert result.oracle_calls == 1
    assert len(result.steps) == 1
    step = result.steps[0]
    assert step.question == Question("div", ("MLN", "HYN"))
    assert step.response == 1.0
    assert step.probs == (1.0, 0.0, 0.0)
    assert step.entropy == 0.0
    assert set(step.pruned) == {1, 2}


def test_solve_hotels_baseline_asks_everything(f1):
    result = solve(f1, Policy.BASELINE, TableOracle(f1.ground_truth))
    assert result.winner.members == ("HNY", "HYN", "MLN")
    assert result.oracle_calls == 4
    assert [s.question for s in result.steps] == [
        Question("rel", ("HNY",)),
        Question("div", ("MLN", "HYN")),
        Question("div", ("MLN", "SHN")),
        Question("div", ("MLN", "WLD")),
    ]


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_every_policy_finds_the_exact_hotel_answer(f1, policy):
    result = solve(f1, policy, TableOracle(f1.ground_truth), seed=3)
    assert result.winner.members == ("HNY", "HYN", "MLN")
    assert result.steps[-1].entropy == 0.0


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_synthetic_winners_match_ground_truth(policy):
    for seed in range(12):
        problem = generate_synthetic(5, 2, seed=seed, unknown_count=4)
        result = solve(problem, policy, TableOracle(problem.ground_truth),
                       seed=seed)
        truth = exact_scores(problem)
        assert truth[result.winner.index] == max(truth)


def test_tied_maxima_each_policy_returns_an_exact_maximum():
    """Five candidates tie at the top score. Every policy returns one of
    them, but not necessarily the lowest: the questions asked decide."""
    problem = generate_synthetic(6, 2, seed=1309, unknown_count=5)
    truth = exact_scores(problem)
    tied = {i for i, s in enumerate(truth) if s == max(truth)}
    assert tied == {1, 5, 8, 9, 11}
    winners = {}
    for policy in ALL_POLICIES:
        result = solve(problem, policy, TableOracle(problem.ground_truth),
                       seed=9)
        assert truth[result.winner.index] == max(truth)
        winners[policy] = result.winner.index
    assert set(winners.values()) <= tied
    # One informed call proves candidate 8, not the lower-indexed 1.
    assert winners[Policy.ENTRRED_IND] == 8


@pytest.mark.parametrize("policy", [Policy.ENTRRED_IND, Policy.ENTRRED_DEP,
                                    Policy.RANDOM])
def test_solve_makes_no_questions_of_call(monkeypatch, policy):
    """The incidence core is built from entity tuples, and bounds,
    estimates and selection read the core, so a solve never scans a
    candidate's `Question`s."""
    calls = []

    def counted(c, spec):
        calls.append(c)
        return questions_of(c, spec)

    for module in (engine, bounds, selection, winner):
        monkeypatch.setattr(module, "questions_of", counted)
    problem = generate_synthetic(8, 3, candidate_cap=30, seed=5,
                                 unknown_count=16)
    result = solve(problem, policy, TableOracle(problem.ground_truth),
                   seed=5)
    assert result.oracle_calls >= 3
    assert len(calls) == 0


def _step_lines(path):
    """A trace's step lines, parsed, without its status line."""
    return [json.loads(x) for x in path.read_text().splitlines()[:-1]]


def test_bounds_narrow_monotonically_along_the_trace(tmp_path):
    problem = generate_synthetic(6, 2, seed=11, unknown_count=8)
    path = tmp_path / "trace.jsonl"
    solve(problem, Policy.RANDOM, TableOracle(problem.ground_truth), seed=1,
          trace_path=str(path))
    bounds = [line["bounds"] for line in _step_lines(path)]
    assert len(bounds) >= 2
    assert bounds[0] != bounds[-1]
    for prev, cur in zip(bounds, bounds[1:]):
        assert all(lo1 >= lo0 and hi1 <= hi0
                   for (lo0, hi0), (lo1, hi1) in zip(prev, cur))


TRACED_SPECS = {
    **REFERENCE_SPECS,
    "range-[-1,1]": ScoringSpec((Construct("rel", 1), Construct("div", 2)),
                                -1.0, 1.0, 0.5),
    "range-[-3,1]": ScoringSpec((Construct("rel", 1), Construct("div", 2)),
                                -3.0, 1.0, 0.5),
}


@pytest.mark.parametrize("name", TRACED_SPECS)
def test_trace_bounds_equal_the_replayed_score_bounds(tmp_path, name):
    """Step t's line holds every candidate's `score_bounds` over
    `problem.knowns` plus the first t + 1 answers, under every policy."""
    spec = TRACED_SPECS[name]
    solved = dict.fromkeys(ALL_POLICIES, 0)
    for seed in range(3):
        problem = generate_synthetic(5 + seed, 2 + seed % 2,
                                     candidate_cap=(None, 12)[seed % 2],
                                     seed=1400 + seed, spec=spec,
                                     unknown_count=12)
        oracle = TableOracle(problem.ground_truth)
        for policy in ALL_POLICIES:
            path = tmp_path / f"{seed}-{policy.value}.jsonl"
            try:
                result = solve(problem, policy, oracle, seed=seed,
                               trace_path=str(path))
            except ValidationError as exc:
                assert policy is Policy.ENTRRED_DEP, exc
                assert str(exc).startswith("entrred-dep cost"), exc
                continue
            lines = _step_lines(path)
            assert len(lines) == len(result.steps)
            knowns = problem.knowns
            for line, step in zip(lines, result.steps):
                knowns = knowns.record(spec, step.question, step.response)
                want = [score_bounds(c, spec, knowns)
                        for c in problem.candidates]
                assert line["bounds"] == [[iv.lb, iv.ub] for iv in want]
            assert dict(knowns.items()) == dict(result.knowns.items())
            solved[policy] += len(lines)
    # entrred-dep's support limit refuses only the 2**40 weight; every
    # other policy solves every spec.
    assert [p for p, n in solved.items() if not n] == (
        [Policy.ENTRRED_DEP] if name == "rel-weight-2**40" else [])


def test_final_distribution_is_one_hot_for_all_policies():
    problem = generate_synthetic(5, 2, seed=2, unknown_count=5)
    for policy in ALL_POLICIES:
        result = solve(problem, policy, TableOracle(problem.ground_truth))
        final = result.steps[-1]
        assert final.entropy == 0.0
        assert sorted(final.probs, reverse=True)[0] == 1.0
        assert final.probs[result.winner.index] == 1.0


def test_same_seed_same_run_for_random_policy():
    problem = generate_synthetic(6, 2, seed=4, unknown_count=7)
    oracle = TableOracle(problem.ground_truth)
    a = solve(problem, Policy.RANDOM, oracle, seed=9)
    b = solve(problem, Policy.RANDOM, oracle, seed=9)
    assert [s.question for s in a.steps] == [s.question for s in b.steps]
    assert a.oracle_calls == b.oracle_calls


def _seeded_instances():
    """20 seeded instances: n 5-8, k 2-3, every other one capped."""
    rng = random.Random(1300)
    for s in range(20):
        n, k = rng.randint(5, 8), rng.choice([2, 3])
        cap = None if s % 2 else rng.randint(4, 12)
        yield s, generate_synthetic(n, k, candidate_cap=cap, seed=1300 + s,
                                    unknown_count=rng.randint(4, 12))


def test_untraced_random_and_baseline_estimate_nothing(monkeypatch, tmp_path):
    """A trace records the solve and changes nothing: traced and untraced
    solves return the same result, step for step, after the same estimator
    calls. `random` and `baseline`, whose selection never reads an
    estimate, run none and carry none until a winner is provable, then the
    one-hot one; the `entrred-*` policies carry theirs on every step.

    The paid answers have one record: the status line's `answered`, each
    step's question and response and the answers `SolveResult.knowns`
    holds after `problem.knowns` agree, in the order asked."""
    estimates = collections.Counter()

    def counting(name, estimate):
        def counted(*args):
            estimates[name] += 1
            return estimate(*args)
        return counted

    for name in ("prob_ind", "prob_dep"):
        monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))

    unread = dict.fromkeys((Policy.RANDOM, Policy.BASELINE), 0)
    read = collections.Counter()
    for seed, problem in _seeded_instances():
        oracle = TableOracle(problem.ground_truth)
        for policy in ALL_POLICIES:
            runs = []
            for trace in (None, str(tmp_path / "trace.jsonl")):
                estimates.clear()
                runs.append((solve(problem, policy, oracle, seed=seed,
                                   trace_path=trace), dict(estimates)))
            (untraced, untraced_estimates), (traced, traced_estimates) = runs
            assert untraced_estimates == traced_estimates
            assert untraced.winner == traced.winner
            assert untraced.oracle_calls == traced.oracle_calls
            assert dict(untraced.knowns.items()) == dict(traced.knowns.items())
            assert untraced.steps == traced.steps
            summary = json.loads(
                (tmp_path / "trace.jsonl").read_text().splitlines()[-1])
            recorded = list(traced.knowns.items())[len(problem.knowns):]
            paid = [(Question(a["construct"], tuple(a["args"])),
                     a["response"]) for a in summary["answered"]]
            assert paid == [(st.question, st.response) for st in traced.steps]
            assert paid == [(q, problem.spec.grid_value(i))
                            for q, i in recorded]

            if policy in unread:
                assert untraced_estimates == {}
                first = next((i for i, st in enumerate(untraced.steps)
                              if st.probs), len(untraced.steps))
                unread[policy] += first
                for st in untraced.steps[:first]:
                    assert st.probs == () and st.entropy is None
                for st in untraced.steps[first:]:
                    assert max(st.probs) == sum(st.probs) == 1.0
                    assert st.entropy == 0.0
            else:
                read.update(untraced_estimates)
                for st in untraced.steps:
                    assert len(st.probs) == len(problem.candidates)
                    assert sum(st.probs) == pytest.approx(1.0, abs=1e-9)
                    assert st.entropy is not None
    assert min(unread.values()) > 0
    assert read["prob_ind"] > 0 and read["prob_dep"] > 0


def test_trace_files_are_byte_identical(f1, make_clock, tmp_path):
    paths = []
    for run in range(2):
        p = tmp_path / f"trace{run}.jsonl"
        solve(f1, Policy.ENTRRED_DEP, TableOracle(f1.ground_truth),
              seed=0, trace_path=str(p), clock=make_clock())
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_layout(f1, make_clock, tmp_path):
    path = tmp_path / "trace.jsonl"
    solve(f1, Policy.ENTRRED_DEP, TableOracle(f1.ground_truth),
          trace_path=str(path), clock=make_clock())
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    step = json.loads(lines[0])
    assert step["question"] == {"construct": "div", "args": ["HYN", "MLN"]}
    assert step["response"] == 1.0
    assert step["bounds"] == [[4.5, 5.5], [2.5, 4.5], [3.0, 5.0]]
    assert step["entropy"] == 0.0
    assert sorted(step["pruned"]) == [1, 2]
    summary = json.loads(lines[1])
    assert summary["status"] == "ok"
    assert summary["winner"] == ["HNY", "HYN", "MLN"]
    assert summary["oracleCalls"] == 1
    assert summary["answered"] == [
        {"construct": "div", "args": ["HYN", "MLN"], "response": 1.0}]
    assert set(summary["perTaskNanos"]) == \
        {"bounds", "probability", "selection", "oracle", "trace"}

    # `baseline` reads no estimate: none before its winner is provable
    # after the second answer, then the one-hot one.
    solve(f1, Policy.BASELINE, TableOracle(f1.ground_truth),
          trace_path=str(path), clock=make_clock())
    first, second = map(json.loads, path.read_text().splitlines()[:2])
    assert (first["probs"], first["entropy"]) == ([], None)
    assert (second["probs"], second["entropy"]) == ([1.0, 0.0, 0.0], 0.0)


def test_call_budget_enforced(f1, tmp_path):
    trace = tmp_path / "partial.jsonl"
    with pytest.raises(SolveLimitError) as err:
        solve(f1, Policy.ENTRRED_DEP, TableOracle(f1.ground_truth),
              max_calls=0, trace_path=str(trace))
    assert err.value.max_calls == 0
    assert err.value.steps == ()
    # The partial trace holds only the status line, without a winner.
    summary = json.loads(trace.read_text())
    assert summary["status"] == "limit"
    assert "winner" not in summary
    assert summary["oracleCalls"] == 0
    assert summary["answered"] == []


def test_budget_allows_exactly_enough_calls(f1):
    result = solve(f1, Policy.ENTRRED_DEP, TableOracle(f1.ground_truth),
                   max_calls=1)
    assert result.oracle_calls == 1


@pytest.mark.parametrize("second, message", [
    (0.3, "off-grid"),
    ("1.0", "response '1.0' for"),
    (None, "response None for"),
    (Decimal("1"), "response 1 for"),
    (np.bool_(True), "response True for"),
    (True, "response True for"),
], ids=["off-grid", "str", "None", "Decimal", "np.bool_", "bool"])
def test_invalid_response_trace_keeps_the_paid_answers(f1, tmp_path, second,
                                                       message):
    """Baseline asks rel(HNY) and then div(HYN, MLN); the second answer
    fails validation after the first was paid for. An answer that is not
    a real number, or is a bool, is refused as one off the grid."""
    trace = tmp_path / "run.jsonl"
    oracle = ScriptedOracle(1.0, second)
    with pytest.raises(ValidationError, match=message):
        solve(f1, Policy.BASELINE, oracle, trace_path=str(trace))
    *steps, summary = [json.loads(x) for x in trace.read_text().splitlines()]
    assert [s["question"] for s in steps] == [
        {"construct": "rel", "args": ["HNY"]}]
    assert summary["status"] == "invalid_response"
    assert "winner" not in summary
    assert summary["oracleCalls"] == 2
    assert summary["answered"] == [
        {"construct": "rel", "args": ["HNY"], "response": 1.0}]


@pytest.mark.parametrize("kind", [int, float, np.float64, np.int64, Fraction])
def test_an_answer_of_any_real_type_is_recorded_as_a_float(tmp_path,
                                                          make_clock, kind):
    """A whole-number grid, so that every type holds each answer exactly:
    the solve and its trace equal those of the float answers."""
    problem = generate_synthetic(5, 2, seed=3, spec=default_spec(1.0),
                                 unknown_count=6)

    class Typed:
        def ask(self, q):
            return kind(problem.ground_truth[q])

    runs = []
    for name, oracle in (("float", TableOracle(problem.ground_truth)),
                         ("typed", Typed())):
        trace = tmp_path / f"{name}.jsonl"
        result = solve(problem, Policy.BASELINE, oracle,
                       trace_path=str(trace), clock=make_clock())
        assert all(type(s.response) is float for s in result.steps)
        runs.append((result.winner, result.oracle_calls,
                     dict(result.knowns.items()), trace.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("failure", [KeyError("HYN"), KeyboardInterrupt()],
                         ids=["KeyError", "KeyboardInterrupt"])
def test_any_oracle_exception_trace_keeps_the_paid_answers(f1, tmp_path,
                                                           failure):
    """The second baseline question raises something other than
    OracleError; the exception propagates unchanged and the trace still
    lists the first answer."""
    trace = tmp_path / "run.jsonl"
    oracle = ScriptedOracle(1.0, failure)
    with pytest.raises(type(failure)) as err:
        solve(f1, Policy.BASELINE, oracle, trace_path=str(trace))
    assert err.value is failure
    *steps, summary = [json.loads(x) for x in trace.read_text().splitlines()]
    assert [s["question"] for s in steps] == [
        {"construct": "rel", "args": ["HNY"]}]
    assert summary["status"] == "oracle_exception"
    assert summary["exception"] == type(failure).__name__
    assert "winner" not in summary
    assert summary["oracleCalls"] == 1
    assert summary["answered"] == [
        {"construct": "rel", "args": ["HNY"], "response": 1.0}]


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="needs /dev/full")


@needs_dev_full
def test_a_trace_that_cannot_be_written_ends_the_solve(f1):
    """The first step line fails with ENOSPC: a ValidationError naming the
    trace, after the one answer that step records and no other."""
    oracle = ScriptedOracle(1.0, 1.0)
    with pytest.raises(ValidationError,
                       match="^cannot write trace /dev/full: No space"):
        solve(f1, Policy.BASELINE, oracle, trace_path="/dev/full")
    assert oracle.calls == 1


@needs_dev_full
def test_a_failed_status_line_leaves_the_oracle_error_as_it_is(f1):
    """The oracle fails first; the status line then cannot be written, and
    the OracleError still comes out, unchanged."""
    failure = OracleError("down")
    with pytest.raises(OracleError) as err:
        solve(f1, Policy.BASELINE, ScriptedOracle(failure),
              trace_path="/dev/full")
    assert err.value is failure
    assert err.value.__context__ is None


class Boom(Exception):
    pass


@needs_dev_full
@pytest.mark.parametrize("failure", [Boom(), KeyboardInterrupt()],
                         ids=["exception", "interrupt"])
def test_a_failed_step_line_leaves_a_selection_failure_as_it_is(
        monkeypatch, failure):
    """Selection fails on its second call, after the first answer's step
    is made; that step's line then cannot be written, and the failure
    still comes out, unchanged: a Ctrl-C there still exits 130."""
    problem = generate_synthetic(7, 3, seed=0, unknown_count=12)
    original, calls = engine.select_entrred, itertools.count(1)

    def select(*args):
        if next(calls) == 2:
            raise failure
        return original(*args)

    monkeypatch.setattr(engine, "select_entrred", select)
    oracle = TableOracle(problem.ground_truth)
    with pytest.raises(type(failure)) as err:
        solve(problem, Policy.ENTRRED_IND, oracle, trace_path="/dev/full")
    assert err.value is failure
    assert err.value.__context__ is None
    assert next(calls) == 3


class TraceReadingOracle:
    """A table oracle that notes each question and the trace lines on disk
    when it was asked."""

    def __init__(self, problem, trace):
        self.table = TableOracle(problem.ground_truth)
        self.trace = trace
        self.asked, self.seen = [], []

    def ask(self, q):
        self.asked.append(q)
        self.seen.append(self.trace.read_text().splitlines())
        return self.table.ask(q)


def _interruptible_problem():
    return generate_synthetic(8, 3, candidate_cap=40, seed=3,
                              unknown_count=20)


def test_an_interrupt_outside_the_oracle_keeps_the_paid_answers(
        tmp_path, interrupt_estimate):
    """A KeyboardInterrupt in the third estimate, after two paid answers
    but before the second one's step, propagates unchanged; the trace
    keeps the step already made and lists both answers."""
    problem = _interruptible_problem()
    interrupt = interrupt_estimate(3)
    trace = tmp_path / "run.jsonl"
    oracle = TraceReadingOracle(problem, trace)
    with pytest.raises(KeyboardInterrupt) as err:
        solve(problem, Policy.ENTRRED_IND, oracle, trace_path=str(trace))
    assert err.value is interrupt
    *steps, summary = [json.loads(x) for x in trace.read_text().splitlines()]
    assert len(oracle.asked) == 2
    first = oracle.asked[0]
    assert [s["question"] for s in steps] == [
        {"construct": first.construct, "args": list(first.args)}]
    assert summary["status"] == "exception"
    assert summary["exception"] == "KeyboardInterrupt"
    assert "winner" not in summary
    assert summary["oracleCalls"] == 2
    assert summary["answered"] == [
        {"construct": q.construct, "args": list(q.args),
         "response": problem.ground_truth[q]} for q in oracle.asked]


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.value)
def test_steps_reach_the_trace_as_they_are_made(tmp_path, policy):
    """At its (t+1)-th call the oracle finds exactly the first t step
    lines of the finished trace on disk, and no status line."""
    problem = _interruptible_problem()
    trace = tmp_path / "run.jsonl"
    oracle = TraceReadingOracle(problem, trace)
    result = solve(problem, policy, oracle, trace_path=str(trace))
    assert result.oracle_calls >= 3
    final = trace.read_text().splitlines()
    assert len(final) == result.oracle_calls + 1
    assert len(oracle.seen) == result.oracle_calls
    for t, lines in enumerate(oracle.seen):
        assert lines == final[:t]
        assert all("status" not in json.loads(x) for x in lines)


def _renamed_and_shuffled(problem, rng):
    """The same ground truth over entities renamed `b<i>` (so `b10` sorts
    before `b2`), with a shuffled subset of all k-sets as candidates."""
    rename = {e: f"b{i}" for i, e in enumerate(problem.entities)}

    def question(q):
        return Question(q.construct, tuple(rename[a] for a in q.args))

    spec = problem.spec
    sets = list(itertools.combinations(sorted(rename.values()), problem.k))
    rng.shuffle(sets)
    sets = sets[:rng.randrange(2, 25)]
    knowns = KnownStore({question(q): i for q, i in problem.knowns.items()})
    return Problem(tuple(rename.values()), spec, problem.k,
                   tuple(Candidate(i, m) for i, m in enumerate(sets)),
                   knowns,
                   {question(q): v for q, v in problem.ground_truth.items()})


def test_baseline_asks_the_open_universe_in_order(f1):
    """Baseline asks `unknown_questions(question_universe(...))`, in that
    order, also for a shuffled, non-prefix candidate list over ids that
    do not sort by number."""
    problems = [f1]
    for seed in range(20):
        rng = random.Random(seed)
        k = rng.randrange(2, 4)
        if seed % 2:
            # All k-sets over 11-12 entities, so every pair has a score.
            problem = _renamed_and_shuffled(generate_synthetic(
                rng.randrange(11, 13), k, seed=seed,
                unknown_count=rng.randrange(3, 12)), rng)
        else:
            problem = generate_synthetic(
                rng.randrange(k + 2, k + 5), k,
                candidate_cap=rng.choice((None, 6, 12)), seed=seed,
                unknown_count=rng.randrange(3, 12))
        problems.append(problem)
    assert {"b2", "b10"} <= {e for p in problems for c in p.candidates
                             for e in c.members}
    for problem in problems:
        want = unknown_questions(
            question_universe(problem.spec, problem.candidates),
            problem.knowns)
        result = solve(problem, Policy.BASELINE,
                       TableOracle(problem.ground_truth))
        assert [s.question for s in result.steps] == list(want)
        assert result.oracle_calls == len(want)


def test_per_task_nanos_with_injected_clock(f1, make_clock):
    result = solve(f1, Policy.ENTRRED_DEP, TableOracle(f1.ground_truth),
                   clock=make_clock())
    assert set(result.per_task_nanos) == \
        {"bounds", "probability", "selection", "oracle", "trace"}
    assert all(v >= 0 for v in result.per_task_nanos.values())
    assert result.per_task_nanos["oracle"] > 0
    assert result.per_task_nanos["trace"] == 0


def test_the_trace_bucket_times_each_step_line(f1, make_clock, tmp_path):
    """One timed span per step line, each of one tick of the fake clock;
    the status line reports the same bucket."""
    clock = make_clock()
    trace = tmp_path / "trace.jsonl"
    result = solve(f1, Policy.BASELINE, TableOracle(f1.ground_truth),
                   trace_path=str(trace), clock=clock)
    assert result.per_task_nanos["trace"] == clock.tick * len(result.steps)
    summary = json.loads(trace.read_text().splitlines()[-1])
    assert summary["perTaskNanos"] == result.per_task_nanos


def test_more_candidates_than_the_limit_ask_nothing(tmp_path):
    """Over `MAX_CANDIDATES` no policy builds the core, opens the trace or
    asks the oracle."""
    n = next(n for n in itertools.count(2)
             if n * (n - 1) // 2 > MAX_CANDIDATES)
    entities = tuple(f"E{i:03d}" for i in range(n))
    pairs = itertools.islice(itertools.combinations(entities, 2),
                             MAX_CANDIDATES + 1)
    problem = Problem(entities, default_spec(), 2,
                      tuple(Candidate(i, c) for i, c in enumerate(pairs)))
    trace = tmp_path / "trace.jsonl"
    for policy in ALL_POLICIES:
        oracle = ScriptedOracle()
        with pytest.raises(ValidationError,
                           match=f"^{MAX_CANDIDATES + 1} candidates, above "
                                 f"the limit of {MAX_CANDIDATES} per solve; "
                                 f"cap the list with --candidates$"):
            solve(problem, policy, oracle, trace_path=str(trace))
        assert oracle.calls == 0
        assert not trace.exists()


def test_k_sets_that_ask_too_many_questions_ask_nothing(tmp_path):
    """One 2000-set asks 2000 + C(2000, 2) questions under the default
    spec: no policy builds the core, opens the trace or asks the oracle."""
    entities = tuple(f"E{i:04d}" for i in range(2000))
    problem = Problem(entities, default_spec(), 2000,
                      (Candidate(0, entities),))
    trace = tmp_path / "trace.jsonl"
    for policy in ALL_POLICIES:
        oracle = ScriptedOracle()
        with pytest.raises(ValidationError,
                           match=f"^a 2000-set asks 2001000 questions, above "
                                 f"the limit of {MAX_SET_QUESTIONS} per "
                                 f"candidate; use a smaller k$"):
            solve(problem, policy, oracle, trace_path=str(trace))
        assert oracle.calls == 0
        assert not trace.exists()


@pytest.mark.parametrize("limit", [4, 3])
def test_the_set_question_limit_is_inclusive(monkeypatch, limit):
    """A 2-set asks 2 + 1 questions of the default spec and one more of a
    second binary construct."""
    spec = ScoringSpec((*default_spec().constructs, Construct("sim", 2)))
    problem = generate_synthetic(4, 2, seed=2, spec=spec)
    monkeypatch.setattr(engine, "MAX_SET_QUESTIONS", limit)
    if limit >= 4:
        Solver(problem, Policy.RANDOM)
    else:
        with pytest.raises(ValidationError, match="^a 2-set asks 4 questions"):
            Solver(problem, Policy.RANDOM)


@pytest.mark.parametrize("k, asked", [(3, 6), (4, 10)],
                         ids=["benchmark-k-3", "sweep-k-4"])
def test_shipped_k_sets_stay_far_below_the_question_limit(k, asked):
    spec = default_spec()
    assert sum(math.comb(k, c.arity) for c in spec.constructs) == asked
    assert 10_000 * asked < MAX_SET_QUESTIONS


@pytest.mark.parametrize("count", [5, 6])
def test_the_candidate_limit_is_inclusive(monkeypatch, count):
    problem = generate_synthetic(4, 2, seed=2, candidate_cap=count)
    monkeypatch.setattr(engine, "MAX_CANDIDATES", 5)
    oracle = TableOracle(problem.ground_truth)
    if count <= 5:
        truth = exact_scores(problem)
        result = solve(problem, Policy.ENTRRED_IND, oracle)
        assert truth[result.winner.index] == max(truth)
    else:
        with pytest.raises(ValidationError, match="6 candidates"):
            solve(problem, Policy.ENTRRED_IND, oracle)


def test_solve_rejects_empty_candidates(f1, tmp_path):
    """No candidates is bad input: no oracle call and no trace file."""
    empty = Problem(f1.entities, f1.spec, 3, ())
    trace = tmp_path / "trace.jsonl"
    for policy in ALL_POLICIES:
        oracle = ScriptedOracle()
        with pytest.raises(ValidationError, match="no candidates"):
            solve(empty, policy, oracle, trace_path=str(trace))
        assert oracle.calls == 0
        assert not trace.exists()


def test_pruned_candidates_never_return():
    problem = generate_synthetic(6, 2, seed=21, unknown_count=8)
    result = solve(problem, Policy.ENTRRED_IND,
                   TableOracle(problem.ground_truth))
    seen = set()
    for step in result.steps:
        assert seen <= set(step.pruned)
        seen = set(step.pruned)
        for idx in step.pruned:
            assert step.probs[idx] == 0.0


def test_baseline_never_drops_a_row():
    """`baseline` asks every open question of every candidate, so none of
    its steps prunes a row, even where `entrred-ind` prunes on the
    instance."""
    pruning = 0
    for seed, problem in _seeded_instances():
        oracle = TableOracle(problem.ground_truth)
        result = solve(problem, Policy.BASELINE, oracle, seed=seed)
        assert result.steps
        assert all(step.pruned == () for step in result.steps)
        result = solve(problem, Policy.ENTRRED_IND, oracle, seed=seed)
        pruning += any(step.pruned for step in result.steps)
    assert pruning


def fine_grid_problem():
    """k=2 at step 1e-4: a candidate's three open questions span 10^4
    quanta each, a support of 30001 points, above `DEP_MAX_SUPPORT`."""
    return generate_synthetic(4, 2, seed=5, spec=default_spec(1e-4))


@pytest.mark.parametrize("policy", ALL_POLICIES[1:])
def test_other_policies_solve_a_support_above_the_limit(policy):
    problem = fine_grid_problem()
    result = solve(problem, policy, TableOracle(problem.ground_truth))
    truth = exact_scores(problem)
    assert truth[result.winner.index] == max(truth)


@pytest.mark.parametrize("points", [DEP_MAX_SUPPORT, DEP_MAX_SUPPORT + 1])
def test_the_dep_support_limit_is_inclusive(points):
    """k=1: one open question of points - 1 quanta per candidate."""
    problem = generate_synthetic(2, 1, seed=1,
                                 spec=default_spec(1 / (points - 1)))
    oracle = TableOracle(problem.ground_truth)
    if points <= DEP_MAX_SUPPORT:
        truth = exact_scores(problem)
        result = solve(problem, Policy.ENTRRED_DEP, oracle)
        assert truth[result.winner.index] == max(truth)
    else:
        with pytest.raises(ValidationError, match=f"{points} points"):
            solve(problem, Policy.ENTRRED_DEP, oracle)


@pytest.mark.parametrize("step, k", [(1 / 16, 4), (1 / 8, 3), (0.1, 4)],
                         ids=["criterion-09", "fine-dep", "sweep-step-0.1"])
def test_shipped_grids_stay_far_below_the_dep_support_limit(step, k):
    """The finest grids of criterion 09, the fine-dep benchmark workload
    and the identity sweep, with every question open."""
    problem = generate_synthetic(k + 2, k, seed=0, spec=default_spec(step))
    core = bounds.Incidence(problem.candidates, problem.spec, problem.knowns)
    assert 50 * (int((core.hi - core.lo).max()) + 1) < DEP_MAX_SUPPORT


def drive(solver, oracle, clock):
    """Run `solver` to its proof as `solve` does, untraced, timing each
    answer in the "oracle" bucket."""
    while (question := solver.next_question()) is not None:
        t0 = clock()
        response = oracle.ask(question)
        solver.per_task_nanos["oracle"] += clock() - t0
        solver.answer(response)


def core_state(solver):
    """Every array of the solver's core, copied."""
    core = solver._core
    return [a.copy() for a in (core.lo, core.hi, core.cut, core.unknown)]


def assert_same_core(a, b):
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x, y)


class TestSolver:
    """`Solver` driven by hand: the proof that `solve` wraps."""

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.value)
    def test_driving_it_by_hand_equals_solve(self, policy, make_clock):
        for seed, problem in _seeded_instances():
            oracle = TableOracle(problem.ground_truth)
            result = solve(problem, policy, oracle, seed=seed,
                           clock=make_clock())
            clock = make_clock()
            solver = Solver(problem, policy, seed=seed, clock=clock)
            drive(solver, oracle, clock)
            assert solver.winner == result.winner
            assert tuple(solver.steps) == result.steps
            assert list(solver.knowns.items()) == list(result.knowns.items())
            assert solver.per_task_nanos == result.per_task_nanos

    @pytest.mark.parametrize("bad", [0.3, "1.0", None, 2.0])
    def test_an_invalid_answer_changes_nothing(self, f1, bad):
        solver = Solver(f1, Policy.ENTRRED_DEP)
        question = solver.next_question()
        before = core_state(solver)
        with pytest.raises(ValidationError):
            solver.answer(bad)
        assert solver.knowns is f1.knowns
        assert_same_core(core_state(solver), before)
        assert solver.steps == []
        assert solver.next_question() == question
        solver.answer(f1.ground_truth[question])
        assert solver.next_question() is None
        assert solver.winner.members == ("HNY", "HYN", "MLN")

    def test_an_answer_out_of_turn_folds_nothing(self):
        """Before the first question, twice in a row and after the proof:
        RuntimeError, and the core and knowns stay as they were."""
        problem = _interruptible_problem()
        solver = Solver(problem, Policy.ENTRRED_IND)

        def refused():
            before, knowns = core_state(solver), solver.knowns
            with pytest.raises(RuntimeError, match="no question is pending"):
                solver.answer(0.5)
            assert solver.knowns is knowns
            assert_same_core(core_state(solver), before)

        refused()
        while (question := solver.next_question()) is not None:
            solver.answer(problem.ground_truth[question])
            refused()
        refused()
        reference = solve(problem, Policy.ENTRRED_IND,
                          TableOracle(problem.ground_truth))
        assert solver.winner == reference.winner
        assert tuple(solver.steps) == reference.steps

    def test_a_repeated_question_runs_nothing(self, make_clock):
        """Asked again before its answer, `next_question` returns the
        pending question, draws nothing from the RNG, reads no clock and
        makes no step."""
        problem = _interruptible_problem()
        clock = make_clock()
        solver = Solver(problem, Policy.RANDOM, seed=5, clock=clock)
        asked = 0
        while (question := solver.next_question()) is not None:
            rng, now = solver._rng.getstate(), clock.now
            steps, nanos = list(solver.steps), dict(solver.per_task_nanos)
            for _ in range(2):
                assert solver.next_question() == question
            assert solver._rng.getstate() == rng
            assert clock.now == now
            assert solver.steps == steps
            assert solver.per_task_nanos == nanos
            solver.answer(problem.ground_truth[question])
            asked += 1
        assert asked >= 3
        assert solver.next_question() is None

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.value)
    def test_an_oracle_error_keeps_every_paid_answer(self, policy):
        problem = _interruptible_problem()
        table = TableOracle(problem.ground_truth)
        paid = []

        class FailsThird:
            def ask(self, q):
                if len(paid) == 2:
                    raise OracleError("down")
                paid.append((q, table.ask(q)))
                return paid[-1][1]

        solver = Solver(problem, policy)
        with pytest.raises(OracleError):
            drive(solver, FailsThird(), lambda: 0)
        recorded = list(solver.knowns.items())
        assert recorded[:len(problem.knowns)] == list(problem.knowns.items())
        assert [(q, problem.spec.grid_value(i)) for q, i in
                recorded[len(problem.knowns):]] == paid
        # The third question's pass made the second answer's step.
        assert [st.question for st in solver.steps] == [q for q, _ in paid]
        assert solver.winner is None
