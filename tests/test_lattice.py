"""Exact scores on the integer lattice: winners are true argmaxes on any
step and weight the validator accepts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from topkset import (Construct, Policy, ScoringSpec, TableOracle,
                     brute_force_dist, generate_synthetic, prob_dep, prob_ind,
                     solve)
from topkset.harness import default_spec

from .conftest import core_arrays, fraction_totals


def test_step_tenth_tie_returns_the_exact_argmax():
    """(E001, E004) and (E002, E004) tie exactly at step 0.1.

    Float bounds made each strictly dominate the other, pruned both and
    certified a set scoring 1.4 while the best scores 1.8.
    """
    problem = generate_synthetic(6, 2, candidate_cap=12, seed=104,
                                 spec=default_spec(0.1), unknown_count=8)
    totals = fraction_totals(problem)
    result = solve(problem, Policy.RANDOM, TableOracle(problem.ground_truth),
                   seed=104)
    assert totals[result.winner.index] == max(totals)


@settings(deadline=None, max_examples=80)
@given(st.integers(3, 5), st.integers(1, 3), st.integers(2, 6),
       st.sampled_from([1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 10]),
       st.tuples(*[st.sampled_from([0.3, 0.5, 1.0, 1.5, 2.0])] * 2),
       st.integers(1, 4), st.integers(0, 10_000))
def test_every_policy_returns_an_exact_argmax(n, k, cap, step, weights,
                                              unknown, seed):
    spec = ScoringSpec((Construct("rel", 1, weight=weights[0]),
                        Construct("div", 2, weight=weights[1])),
                       0.0, 1.0, step)
    problem = generate_synthetic(n, min(k, n - 1), candidate_cap=cap,
                                 seed=seed, spec=spec, unknown_count=unknown)
    totals = fraction_totals(problem)
    oracle = TableOracle(problem.ground_truth)
    for policy in Policy:
        result = solve(problem, policy, oracle, seed=seed)
        assert totals[result.winner.index] == max(totals), policy
    a = core_arrays(problem.candidates, spec, problem.knowns)
    for name, dist in (
            ("prob_ind", prob_ind(a.lo, a.hi)),
            ("prob_dep", prob_dep(a.lo, a.hi, a.cut)),
            ("brute_force_dist",
             brute_force_dist(problem.candidates, spec, problem.knowns))):
        assert abs(sum(dist.probs) - 1.0) <= 1e-9, name
