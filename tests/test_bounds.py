"""Score intervals, shared-unknown elimination and dominance."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkset import (Candidate, Construct, Interval, KnownStore, Question,
                     ScoringSpec, dominates, eliminated_bounds,
                     generate_synthetic, score_bounds)
from topkset.bounds import (Incidence, elimination_cut, first_dominator,
                            shared_unknowns, undominated)
from topkset.harness import default_spec
from topkset.model import question_universe, questions_of, unknown_questions

from .conftest import partial_states


def test_hotel_bounds_are_exact(f1):
    got = [score_bounds(c, f1.spec, f1.knowns) for c in f1.candidates]
    assert [(iv.lb, iv.ub) for iv in got] == [(3.5, 5.5), (2.5, 4.5), (3.0, 5.0)]


def test_no_knowns_gives_full_range(f1):
    iv = score_bounds(f1.candidates[0], f1.spec, KnownStore())
    assert (iv.lb, iv.ub) == (0.0, 6.0)


def test_fully_known_candidate_collapses_to_a_point(f1):
    store = KnownStore()
    c = f1.candidates[0]
    for q in questions_of(c, f1.spec):
        store = store.record(f1.spec, q, 0.5)
    iv = score_bounds(c, f1.spec, store)
    assert (iv.lb, iv.ub) == (3.0, 3.0)
    assert iv.lo == iv.hi


def test_weights_scale_contributions():
    weighted = ScoringSpec(
        constructs=(Construct("rel", 1, weight=2.0),
                    Construct("div", 2, weight=1.0)),
        min_score=0.0, max_score=1.0, grid_step=0.5)
    c = Candidate(0, ("A", "B"))
    store = KnownStore().record(weighted, Question("rel", ("A",)), 1.0)
    iv = score_bounds(c, weighted, store)
    # 2*1.0 known, one rel and one div unknown: lb 2.0, ub 2.0 + 2 + 1.
    assert (iv.lb, iv.ub) == (2.0, 5.0)


class TestInterval:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(1, 0)

    def test_float_endpoints(self):
        half = Interval(0, 4, Fraction(1, 2))
        tenth = Interval(1, 3, Fraction(1, 10))
        assert (half.lb, half.ub) == (0.0, 2.0)
        assert (tenth.lb, tenth.ub) == (0.1, 0.3)


def test_shared_unknowns_on_hotel_pairs(f1):
    c1, c2, c3 = f1.candidates
    assert shared_unknowns(c1, c2, f1.spec, f1.knowns) == \
        (Question("rel", ("HNY",)),)
    assert shared_unknowns(c2, c3, f1.spec, f1.knowns) == \
        (Question("rel", ("HNY",)),)
    # Shared known questions are not reported.
    assert Question("div", ("HNY", "MLN")) not in \
        shared_unknowns(c1, c2, f1.spec, f1.knowns)


def test_elimination_cut_ignores_iteration_order(f1):
    qs = [Question("rel", ("HNY",)), Question("div", ("MLN", "HYN")),
          Question("div", ("MLN", "SHN"))]
    # 3.0 in quanta of 1/2.
    assert elimination_cut(qs, f1.spec) == \
        elimination_cut(list(reversed(qs)), f1.spec) == 6


def test_eliminated_bounds_on_hotel_pairs(f1):
    c1, c2, c3 = f1.candidates
    a, b = eliminated_bounds(c1, c2, f1.spec, f1.knowns)
    assert ((a.lb, a.ub), (b.lb, b.ub)) == ((3.5, 4.5), (2.5, 3.5))
    a, b = eliminated_bounds(c2, c3, f1.spec, f1.knowns)
    assert ((a.lb, a.ub), (b.lb, b.ub)) == ((2.5, 3.5), (3.0, 4.0))


def test_eliminated_bounds_requires_distinct_candidates(f1):
    with pytest.raises(ValueError):
        eliminated_bounds(f1.candidates[0], f1.candidates[0], f1.spec, f1.knowns)


def test_elimination_shrinks_both_supports_equally(f1):
    c1, c2 = f1.candidates[0], f1.candidates[1]
    full1 = score_bounds(c1, f1.spec, f1.knowns)
    full2 = score_bounds(c2, f1.spec, f1.knowns)
    e1, e2 = eliminated_bounds(c1, c2, f1.spec, f1.knowns)
    # 1.0 in quanta of 1/2.
    assert full1.hi - e1.hi == full2.hi - e2.hi == 2
    assert e1.lb == full1.lb and e2.lb == full2.lb


def test_exact_tie_over_a_shared_unknown_is_never_pruned():
    """At step 0.1 both totals are 0.2 + rel(C).

    In floats, 0.0 + 1.0 + 0.2 - 1.0 is 0.19999999999999996, so each
    candidate's upper bound fell below the other's lower bound and both
    were pruned.
    """
    spec = default_spec(0.1)
    cands = (Candidate(0, ("A", "C")), Candidate(1, ("B", "C")))
    knowns = KnownStore()
    for q, v in ((Question("rel", ("A",)), 0.0),
                 (Question("div", ("A", "C")), 0.2),
                 (Question("rel", ("B",)), 0.2),
                 (Question("div", ("B", "C")), 0.0)):
        knowns = knowns.record(spec, q, v)
    core = Incidence(cands, spec)
    lb, ub, unknown = core.bounds(knowns)
    cut = core.cuts(unknown)
    assert undominated(lb, ub, cut).all()
    assert first_dominator(lb, ub, cut) == 0


class TestDominance:
    def test_initial_hotel_state_has_no_dominator(self, f1):
        c1, c2, c3 = f1.candidates
        assert dominates(c1, c2, f1.spec, f1.knowns)
        assert not dominates(c1, c2, f1.spec, f1.knowns, strict=True)
        assert not dominates(c1, c3, f1.spec, f1.knowns)

    def test_one_answer_makes_the_leader_strict(self, f1):
        knowns = f1.knowns.record(f1.spec, Question("div", ("MLN", "HYN")), 1.0)
        c1, c2, c3 = f1.candidates
        assert dominates(c1, c2, f1.spec, knowns, strict=True)
        assert dominates(c1, c3, f1.spec, knowns, strict=True)

    def test_dominance_is_antisymmetric_when_strict(self, f1):
        knowns = f1.knowns.record(f1.spec, Question("div", ("MLN", "HYN")), 1.0)
        c1, c2 = f1.candidates[0], f1.candidates[1]
        assert not dominates(c2, c1, f1.spec, knowns, strict=True)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_answering_a_question_never_widens_bounds(seed):
    """Each oracle answer can only narrow every candidate's interval."""
    rng = random.Random(seed)
    problem = generate_synthetic(rng.randrange(4, 7), rng.randrange(2, 4),
                                 seed=seed, unknown_count=rng.randrange(1, 5))
    universe = question_universe(problem.spec, problem.candidates)
    open_qs = unknown_questions(universe, problem.knowns)
    before = [score_bounds(c, problem.spec, problem.knowns)
              for c in problem.candidates]
    q = open_qs[rng.randrange(len(open_qs))]
    after_store = problem.knowns.record(problem.spec, q,
                                        problem.ground_truth[q])
    after = [score_bounds(c, problem.spec, after_store)
             for c in problem.candidates]
    for old, new in zip(before, after):
        assert old.lo <= new.lo and new.hi <= old.hi


REFERENCE_SPECS = {
    "step-0.5": default_spec(0.5),
    "step-0.1": default_spec(0.1),
    "rel-weight-2": ScoringSpec((Construct("rel", 1, weight=2.0),
                                 Construct("div", 2))),
    "rel-weight-0.3": ScoringSpec((Construct("rel", 1, weight=0.3),
                                   Construct("div", 2))),
}


@pytest.mark.parametrize("name", REFERENCE_SPECS)
def test_incidence_core_equals_the_per_pair_reference(name):
    """Bounds, cuts, pruning and the winner check, exactly, with no tolerance."""
    spec = REFERENCE_SPECS[name]
    for cands, knowns in partial_states(spec, 67):
        core = Incidence(cands, spec)
        lb, ub, unknown = core.bounds(knowns)
        cut = core.cuts(unknown)
        ref = [score_bounds(c, spec, knowns) for c in cands]
        assert lb.tolist() == [iv.lo for iv in ref]
        assert ub.tolist() == [iv.hi for iv in ref]
        weak, strict = {}, {}
        for i, a in enumerate(cands):
            for j, b in enumerate(cands):
                if i == j:
                    continue
                assert cut[i, j] == elimination_cut(
                    shared_unknowns(a, b, spec, knowns), spec)
                weak[i, j] = dominates(a, b, spec, knowns)
                strict[i, j] = dominates(a, b, spec, knowns, strict=True)
        others = [(i, [j for j in range(len(cands)) if j != i])
                  for i in range(len(cands))]
        winner = next((i for i, rest in others
                       if all(weak[i, j] for j in rest)), None)
        assert first_dominator(lb, ub, cut) == winner
        assert undominated(lb, ub, cut).tolist() == [
            not any(strict[j, i] for j in rest) for i, rest in others]


@pytest.mark.parametrize("name", ["step-0.5", "step-0.1", "rel-weight-0.3"])
def test_folded_answers_equal_the_state_rebuilt_from_scratch(name):
    """`Incidence.fold` after every answer of a random order leaves the
    bounds, open mask and all-rows cuts exactly equal to `bounds` and
    `cuts` rebuilt from the known answers, and the live rows the solve
    loop reads equal those rows of `cuts`, while pruned rows stay in."""
    spec = REFERENCE_SPECS[name]
    pruned_seen = False
    for seed in range(30):
        rng = random.Random(seed)
        problem = generate_synthetic(
            rng.randrange(5, 8), rng.randrange(2, 4),
            candidate_cap=rng.choice((8, 20, None)), seed=seed, spec=spec,
            unknown_count=rng.randrange(4, 12))
        core = Incidence(problem.candidates, spec)
        knowns = problem.knowns
        lo, hi, unknown = core.bounds(knowns)
        cut = core.cuts(unknown)
        live = np.ones(len(problem.candidates), dtype=bool)
        order = np.flatnonzero(unknown).tolist()
        rng.shuffle(order)
        for j in order:
            q = core.questions[j]
            knowns = knowns.record(spec, q, problem.ground_truth[q])
            core.fold(j, knowns.get(q), lo, hi, unknown, cut)
            want_lo, want_hi, want_unknown = core.bounds(knowns)
            assert lo.tolist() == want_lo.tolist()
            assert hi.tolist() == want_hi.tolist()
            assert unknown.tolist() == want_unknown.tolist()
            assert cut.tolist() == core.cuts(want_unknown).tolist()
            rows = np.flatnonzero(live)
            keep = undominated(lo[rows], hi[rows], cut[np.ix_(rows, rows)])
            live[rows[~keep]] = False
            rows = np.flatnonzero(live)
            assert cut[np.ix_(rows, rows)].tolist() == \
                core.cuts(want_unknown)[np.ix_(rows, rows)].tolist()
            pruned_seen = pruned_seen or not live.all()
    assert pruned_seen
