"""Exact scores on the integer lattice: winners are true argmaxes on any
step and weight the validator accepts."""

import contextlib
import dataclasses
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from topkset import (Candidate, CapExceededError, Construct, Policy,
                     ScoringSpec, TableOracle, ValidationError,
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


WEIGHTS = (0, 0.3, 1 / 3, 1, 2, 7)
RANGES = ((-3, 1), (-1, 1), (0, 1), (0.5, 2), (-2, -1), (0, 3))
STEPS = (1 / 2, 1 / 3, 1 / 4, 1 / 10, 1)
# The most assignments `brute_force_dist` may enumerate here: its own cap
# of 10**7 would take seconds per draw.
BRUTE_FORCE_CAP = 20_000


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.integers(1, 2), st.sampled_from(WEIGHTS)),
                min_size=1, max_size=3),
       st.sampled_from(RANGES), st.sampled_from(STEPS), st.integers(3, 6),
       st.integers(1, 3), st.integers(1, 24), st.booleans(),
       st.integers(0, 12), st.integers(0, 10_000))
def test_every_policy_returns_an_exact_argmax(constructs, score_range, step,
                                              n, k, cap, shuffle, unknown,
                                              seed):
    """1-3 constructs of any weight, on ranges that may be negative; the
    candidates are a prefix of the k-sets or, with `shuffle`, a shuffled
    subset of them."""
    try:
        spec = ScoringSpec(tuple(Construct(f"c{i}", arity, weight) for i,
                                 (arity, weight) in enumerate(constructs)),
                           *score_range, step)
    except ValidationError:
        spec = None
    assume(spec is not None)
    problem = generate_synthetic(n, min(k, n - 1),
                                 candidate_cap=None if shuffle else cap,
                                 seed=seed, spec=spec, unknown_count=unknown)
    if shuffle:
        sets = [c.members for c in problem.candidates]
        random.Random(seed).shuffle(sets)
        problem = dataclasses.replace(problem, candidates=tuple(
            Candidate(i, m) for i, m in enumerate(sets[:cap])))
    totals = fraction_totals(problem)
    oracle = TableOracle(problem.ground_truth)
    for policy in Policy:
        result = solve(problem, policy, oracle, seed=seed)
        assert totals[result.winner.index] == max(totals), policy
    a = core_arrays(problem.candidates, spec, problem.knowns)
    dists = [("prob_ind", prob_ind(a.lo, a.hi)),
             ("prob_dep", prob_dep(a.lo, a.hi, a.cut))]
    with contextlib.suppress(CapExceededError):
        dists.append(("brute_force_dist",
                      brute_force_dist(problem.candidates, spec,
                                       problem.knowns, cap=BRUTE_FORCE_CAP)))
    for name, dist in dists:
        assert abs(sum(dist.probs) - 1.0) <= 1e-9, name
