"""The solve loop: dominance, pruning, policies, traces and budgets."""

import itertools
import json
import random

import numpy as np
import pytest

from topkset import (Candidate, KnownStore, OracleResponse, Policy, Problem,
                     Question, SolveLimitError, TableOracle, ValidationError,
                     enumerate_candidates, generate_synthetic, solve)
from topkset import bounds, engine, selection, winner
from topkset.bounds import first_dominator, undominated
from topkset.harness import exact_scores
from topkset.model import question_universe, questions_of, unknown_questions

from .conftest import core_arrays

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


def bounds_and_cuts(cands, spec, knowns):
    """The arrays the solve loop's winner check and pruning read."""
    a = core_arrays(cands, spec, knowns)
    return np.array(a.lo), np.array(a.hi), np.array(a.cut)


class TestFindWinnerAndPrune:
    """The solve loop's winner check and pruning on the core's arrays."""

    def test_open_hotel_race_has_no_winner(self, f1):
        arrays = bounds_and_cuts(f1.candidates, f1.spec, f1.knowns)
        assert first_dominator(*arrays) is None
        assert undominated(*arrays).all()

    def test_one_answer_settles_the_race(self, f1):
        knowns = f1.knowns.record(f1.spec, Question("div", ("MLN", "HYN")), 1.0)
        arrays = bounds_and_cuts(f1.candidates, f1.spec, knowns)
        assert first_dominator(*arrays) == 0
        assert undominated(*arrays).tolist() == [True, False, False]

    def test_exact_tie_resolves_to_lowest_index(self):
        from topkset import Candidate, KnownStore
        from topkset.harness import default_spec
        spec = default_spec()
        cands = (Candidate(0, ("A",)), Candidate(1, ("B",)))
        knowns = KnownStore().record(spec, Question("rel", ("A",)), 0.5)
        knowns = knowns.record(spec, Question("rel", ("B",)), 0.5)
        assert first_dominator(*bounds_and_cuts(cands, spec, knowns)) == 0


class ScriptedOracle:
    """Replies with the given responses in order, whatever the question."""

    def __init__(self, *responses):
        self.responses = list(responses)

    def ask(self, q):
        return self.responses.pop(0)


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


def test_bounds_narrow_monotonically_along_the_trace():
    problem = generate_synthetic(6, 2, seed=11, unknown_count=8)
    result = solve(problem, Policy.RANDOM, TableOracle(problem.ground_truth),
                   seed=1)
    assert len(result.steps) >= 2
    for prev, cur in zip(result.steps, result.steps[1:]):
        for old, new in zip(prev.bounds, cur.bounds):
            assert new.lb >= old.lb
            assert new.ub <= old.ub


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
        {"bounds", "probability", "selection", "oracle"}


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


def test_range_responses_are_rejected_by_solve(f1):
    oracle = ScriptedOracle(OracleResponse.score_range(0.0, 1.0))
    with pytest.raises(ValidationError, match="process_responses"):
        solve(f1, Policy.ENTRRED_DEP, oracle)


@pytest.mark.parametrize("second, message", [
    (OracleResponse.point(0.3), "off-grid"),
    (OracleResponse.score_range(0.0, 1.0), "process_responses"),
], ids=["off-grid", "range"])
def test_invalid_response_trace_keeps_the_paid_answers(f1, tmp_path, second,
                                                       message):
    """Baseline asks rel(HNY) and then div(HYN, MLN); the second answer
    fails validation after the first was paid for."""
    trace = tmp_path / "run.jsonl"
    oracle = ScriptedOracle(OracleResponse.point(1.0), second)
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
    knowns = KnownStore()
    for q, i in problem.knowns.items():
        knowns = knowns.record(spec, question(q), spec.grid_values()[i])
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
        {"bounds", "probability", "selection", "oracle"}
    assert all(v >= 0 for v in result.per_task_nanos.values())
    assert result.per_task_nanos["oracle"] > 0


def test_solve_rejects_empty_candidates(f1):
    empty = Problem(f1.entities, f1.spec, 3, ())
    with pytest.raises(ValidationError):
        solve(empty, Policy.ENTRRED_DEP, TableOracle({}))


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
