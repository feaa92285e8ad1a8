"""Release gate: one test per acceptance criterion, each printing PASS or FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Every numeric target is checked at its stated tolerance; the
timed checks carry generous margins so they stay stable on a loaded box.
"""

import json
import math
import random
import statistics
import time

import pytest

from topkset import (Candidate, KnownStore, OracleResponse, Policy,
                     Question, TableOracle, brute_force_dist,
                     eliminated_bounds, entropy, generate_synthetic,
                     geq_probability, prob_dep, prob_ind, process_responses,
                     qef_score, question_universe, score_bounds,
                     select_entrred, solve, uniform_pdf, unknown_questions)
from topkset.harness import default_spec, exact_scores

from .conftest import FakeClock, hotel_spec

ALL_POLICIES = (Policy.ENTRRED_DEP, Policy.ENTRRED_IND, Policy.RANDOM,
                Policy.BASELINE)


def _report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="session")
def suite6():
    """500 seeded instances small enough for exact brute force.

    n <= 6, k <= 3 and two or three candidates per instance, one to
    three open questions, scores on {0, 0.5, 1}.
    """
    out = []
    for i in range(500):
        rng = random.Random(i)
        n = rng.choice([4, 5, 6])
        k = min(rng.choice([1, 2, 3]), n - 1)
        cap = rng.choice([2, 3])
        u = rng.randrange(1, 4)
        out.append((i, generate_synthetic(n, k, candidate_cap=cap,
                                          seed=10_000 + i, unknown_count=u)))
    return out


def test_criterion_01_worked_example_bounds(f1):
    expected = ((3.5, 5.5), (2.5, 4.5), (3.0, 5.0))
    best_ns = None
    for _ in range(5):
        t0 = time.perf_counter_ns()
        got = tuple(score_bounds(c, f1.spec, f1.knowns)
                    for c in f1.candidates)
        elapsed = time.perf_counter_ns() - t0
        best_ns = elapsed if best_ns is None else min(best_ns, elapsed)
    exact = tuple((iv.lb, iv.ub) for iv in got) == expected
    fast = best_ns < 1_000_000
    _report(1, "worked-example score bounds", exact and fast)
    assert exact, got
    assert fast, f"{best_ns} ns"


def test_criterion_02_elimination_and_max_convolution(f1):
    c1, c2, c3 = f1.candidates
    e12 = eliminated_bounds(c1, c2, f1.spec, f1.knowns)
    e23 = eliminated_bounds(c2, c3, f1.spec, f1.knowns)
    pairs_ok = (
        tuple((iv.lb, iv.ub) for iv in e12) == ((3.5, 4.5), (2.5, 3.5))
        and tuple((iv.lb, iv.ub) for iv in e23) == ((2.5, 3.5), (3.0, 4.0)))
    # [2.5, 3.5] and [3.5, 4.5] in quanta of 1/2.
    p = geq_probability(uniform_pdf(5, 7), uniform_pdf(7, 9))
    geq_ok = p == 1 / 9
    _report(2, "elimination and max-convolution", pairs_ok and geq_ok)
    assert pairs_ok, (e12, e23)
    assert geq_ok, p


def test_criterion_03_entropy_values():
    h = entropy((0.75, 0.24, 0.01))
    mid_ok = abs(h - 0.604) <= 0.001
    zero_ok = entropy((1.0, 0.0, 0.0)) == 0.0
    _report(3, "winner-distribution entropy", mid_ok and zero_ok)
    assert mid_ok, h
    assert zero_ok


def test_criterion_04_question_scoring_and_selection(f1):
    probs = (0.75, 0.24, 0.01)
    rel_q = Question("rel", ("HNY",))
    div_q = Question("div", ("MLN", "HYN"))
    rel_score = qef_score(rel_q, probs, f1.candidates, f1.spec)
    div_score = qef_score(div_q, probs, f1.candidates, f1.spec)
    unknowns = unknown_questions(
        question_universe(f1.spec, f1.candidates), f1.knowns)
    picked = select_entrred(f1.candidates, probs, unknowns, f1.spec)
    ok = rel_score == 0.0 and div_score == 1.25 and picked == div_q
    _report(4, "question scoring and selection", ok)
    assert rel_score == 0.0, rel_score
    assert div_score == 1.25, div_score
    assert picked == div_q, picked


def test_criterion_05_end_to_end_worked_example(f1):
    oracle = TableOracle(f1.ground_truth)
    dep = solve(f1, Policy.ENTRRED_DEP, oracle)
    dep_ok = (dep.winner is f1.candidates[0] and dep.oracle_calls == 1
              and dep.steps[-1].entropy == 0.0)
    base = solve(f1, Policy.BASELINE, oracle)
    base_ok = base.oracle_calls == 4
    _report(5, "end-to-end worked example", dep_ok and base_ok)
    assert dep_ok, (dep.winner, dep.oracle_calls)
    assert base_ok, base.oracle_calls


def test_criterion_06_exact_recall(suite6):
    start = time.perf_counter()
    failures = 0
    for i, problem in suite6:
        truth = exact_scores(problem)
        best = max(truth)
        oracle = TableOracle(problem.ground_truth)
        for policy in ALL_POLICIES:
            result = solve(problem, policy, oracle, seed=i)
            if truth[result.winner.index] != best:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed <= 300
    _report(6, "exact recall over 500 seeded instances", ok)
    assert failures == 0, f"{failures} of {4 * len(suite6)} runs missed"
    assert elapsed <= 300, f"{elapsed:.1f} s"


def test_criterion_07_cost_ordering():
    ind_calls, rand_calls, dep_calls = [], [], []
    beat_or_tie = 0
    for i in range(200):
        rng = random.Random(i)
        n = rng.choice([7, 8])
        u = rng.randrange(12, 23)
        problem = generate_synthetic(n, 3, candidate_cap=10, seed=20_000 + i,
                                     unknown_count=u)
        oracle = TableOracle(problem.ground_truth)
        calls = {p: solve(problem, p, oracle, seed=i).oracle_calls
                 for p in (Policy.ENTRRED_IND, Policy.RANDOM,
                           Policy.ENTRRED_DEP)}
        ind_calls.append(calls[Policy.ENTRRED_IND])
        rand_calls.append(calls[Policy.RANDOM])
        dep_calls.append(calls[Policy.ENTRRED_DEP])
        beat_or_tie += calls[Policy.ENTRRED_IND] <= calls[Policy.RANDOM]
    mean_ind = statistics.mean(ind_calls)
    mean_rand = statistics.mean(rand_calls)
    mean_dep = statistics.mean(dep_calls)
    frac = beat_or_tie / len(ind_calls)
    ok = (mean_ind < mean_rand and frac >= 0.80
          and mean_dep <= mean_ind * 1.05)
    _report(7, "informed selection needs fewer oracle calls", ok)
    assert mean_ind < mean_rand, (mean_ind, mean_rand)
    assert frac >= 0.80, frac
    assert mean_dep <= mean_ind * 1.05, (mean_dep, mean_ind)


def _separated_pair():
    """Two disjoint candidates whose score intervals cannot overlap."""
    spec = hotel_spec()
    cands = (Candidate(0, ("A", "B")), Candidate(1, ("C", "D")))
    knowns = KnownStore()
    for e, v in (("A", 1.0), ("B", 1.0), ("C", 0.0), ("D", 0.0)):
        knowns = knowns.record(spec, Question("rel", (e,)), v)
    return cands, spec, knowns


def test_criterion_08_estimator_properties(suite6):
    sum_bad = 0
    agree = 0
    for _, problem in suite6:
        cands, spec, knowns = problem.candidates, problem.spec, problem.knowns
        bf = brute_force_dist(cands, spec, knowns)
        dep = prob_dep(cands, spec, knowns)
        ind = prob_ind(cands, spec, knowns)
        for dist in (bf, dep, ind):
            if abs(sum(dist.probs) - 1.0) > 1e-9:
                sum_bad += 1
        top = max(bf.probs)
        ties = {j for j, p in enumerate(bf.probs) if p >= top - 1e-9}
        agree += dep.top_index() in ties
    agreement = agree / len(suite6)

    disjoint_gap = 0.0
    spec = hotel_spec()
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.choice([4, 6])
        k = rng.choice([1, 2])
        entities = [f"E{i}" for i in range(n)]
        cands = tuple(Candidate(i, tuple(entities[i * k:(i + 1) * k]))
                      for i in range(n // k))
        knowns = KnownStore()
        universe = question_universe(spec, cands)
        values = [rng.choice([0.0, 0.5, 1.0]) for _ in universe]
        hidden = rng.randrange(1, 4)
        for q, v in list(zip(universe, values))[hidden:]:
            knowns = knowns.record(spec, q, v)
        ind = prob_ind(cands, spec, knowns)
        dep = prob_dep(cands, spec, knowns)
        disjoint_gap = max(disjoint_gap,
                           max(abs(a - b)
                               for a, b in zip(ind.probs, dep.probs)))

    cands, dom_spec, knowns = _separated_pair()
    dominance_ok = all(
        estimator(cands, dom_spec, knowns).probs == (1.0, 0.0)
        for estimator in (prob_ind, prob_dep, brute_force_dist))

    ok = (sum_bad == 0 and agreement >= 0.95 and disjoint_gap <= 1e-12
          and dominance_ok)
    _report(8, "estimator sums, agreement and dominance", ok)
    assert sum_bad == 0, sum_bad
    assert agreement >= 0.95, agreement
    assert disjoint_gap <= 1e-12, disjoint_gap
    assert dominance_ok


def _interleaved_best_ns(fns, rounds, passes=5):
    """Each callable's best wall time, as the median over `passes`.

    A pass calls every function in turn, `rounds` times, and keeps each
    one's best time: a slow stretch of the host then lands on every
    function instead of on one, and the minimum discards additive noise.
    The median over passes keeps one pass whose samples were all slowed
    from deciding the result.
    """
    per_pass = []
    for _ in range(passes):
        best = [None] * len(fns)
        for _ in range(rounds):
            for k, fn in enumerate(fns):
                t0 = time.perf_counter_ns()
                fn()
                t = time.perf_counter_ns() - t0
                best[k] = t if best[k] is None else min(best[k], t)
        per_pass.append(best)
    return [statistics.median(ts) for ts in zip(*per_pass)]


def test_criterion_09_complexity_trends():
    sizes = (20, 40, 80, 160)
    fine_spec = default_spec(1 / 16)
    fns = []
    for m_cand in sizes:
        problem = generate_synthetic(m_cand, 1, seed=97, spec=fine_spec)
        fn = lambda p=problem: prob_ind(p.candidates, p.spec, p.knowns)
        fn()
        fns.append(fn)
    times = _interleaved_best_ns(fns, rounds=3)
    slope = statistics.linear_regression(
        [math.log(m) for m in sizes], [math.log(t) for t in times]).slope
    slope_ok = 1.5 <= slope <= 2.5

    fns = []
    for step in (1 / 2, 1 / 4, 1 / 8, 1 / 16):
        problem = generate_synthetic(8, 3, candidate_cap=8, seed=97,
                                     spec=default_spec(step))
        args = (problem.candidates, problem.spec, problem.knowns)
        prob_ind(*args)
        prob_dep(*args)
        fns += [lambda a=args: prob_ind(*a), lambda a=args: prob_dep(*a)]
    best = _interleaved_best_ns(fns, rounds=25)
    ratios = [dep / ind for ind, dep in zip(best[::2], best[1::2])]
    ratio_ok = all(b > a for a, b in zip(ratios, ratios[1:]))

    dep_total = ind_total = 0
    for i in range(20):
        rng = random.Random(300 + i)
        u = rng.randrange(8, 13)
        problem = generate_synthetic(8, 2, candidate_cap=8, seed=400 + i,
                                     spec=fine_spec, unknown_count=u)
        oracle = TableOracle(problem.ground_truth)
        t0 = time.perf_counter_ns()
        solve(problem, Policy.ENTRRED_DEP, oracle, seed=i)
        dep_total += time.perf_counter_ns() - t0
        t0 = time.perf_counter_ns()
        solve(problem, Policy.ENTRRED_IND, oracle, seed=i)
        ind_total += time.perf_counter_ns() - t0
    wall_ok = dep_total > ind_total

    ok = slope_ok and ratio_ok and wall_ok
    _report(9, "estimator cost scaling", ok)
    assert slope_ok, slope
    assert ratio_ok, ratios
    assert wall_ok, (dep_total, ind_total)


def test_criterion_10_response_folding():
    grid = (0.0, 0.5, 1.0)
    pdf = process_responses((OracleResponse.score_range(0.4, 1.0),
                             OracleResponse.score_range(0.3, 0.6)), grid)
    range_ok = pdf.over == grid and pdf.masses == (0.0, 2 / 3, 1 / 3)
    point = process_responses((OracleResponse.point(0.5),), grid)
    point_ok = point.masses == (0.0, 1.0, 0.0)
    _report(10, "response folding onto the grid", range_ok and point_ok)
    assert range_ok, pdf
    assert point_ok, point


def test_criterion_11_trace_determinism_and_narrowing(f1, tmp_path):
    payloads = []
    for run in range(2):
        path = tmp_path / f"rerun{run}.jsonl"
        solve(f1, Policy.ENTRRED_IND, TableOracle(f1.ground_truth), seed=5,
              trace_path=str(path), clock=FakeClock())
        payloads.append(path.read_bytes())
    bytes_ok = payloads[0] == payloads[1]

    entropy_ok = True
    narrowing_ok = True
    checked = 0
    for s in range(10):
        rng = random.Random(s)
        problem = generate_synthetic(rng.choice([5, 6]), 2, candidate_cap=6,
                                     seed=600 + s,
                                     unknown_count=rng.randrange(4, 9))
        oracle = TableOracle(problem.ground_truth)
        for policy in ALL_POLICIES:
            path = tmp_path / f"trace{s}-{policy.value}.jsonl"
            solve(problem, policy, oracle, seed=s, trace_path=str(path))
            lines = [json.loads(x) for x in path.read_text().splitlines()]
            steps = lines[:-1]
            if not steps:
                continue
            checked += 1
            if steps[-1]["entropy"] != 0.0:
                entropy_ok = False
            for a, b in zip(steps, steps[1:]):
                for (lb0, ub0), (lb1, ub1) in zip(a["bounds"], b["bounds"]):
                    if lb1 < lb0 or ub1 > ub0:
                        narrowing_ok = False

    ok = bytes_ok and entropy_ok and narrowing_ok and checked >= 30
    _report(11, "trace determinism and monotone narrowing", ok)
    assert bytes_ok
    assert entropy_ok
    assert narrowing_ok
    assert checked >= 30, checked
