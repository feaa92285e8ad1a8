"""Score intervals, shared-unknown elimination and dominance."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkset import (Candidate, Construct, Interval, KnownStore, Question,
                     ScoringSpec, ValidationError, dominates,
                     eliminated_bounds, generate_synthetic, score_bounds)
from topkset.bounds import (Incidence, elimination_cut, prune_and_prove,
                            shared_unknowns)
from topkset.harness import default_spec
from topkset.model import question_universe, questions_of, unknown_questions

from .conftest import partial_states, peak_bytes, wide_core


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
    core = Incidence(cands, spec, knowns)
    keep, first = prune_and_prove(core.lo, core.hi, core.cut)
    assert keep.all()
    assert first == 0


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
    # A span of 0 among the open columns.
    "rel-weight-0": ScoringSpec((Construct("rel", 1, weight=0.0),
                                 Construct("div", 2))),
    # Two binary constructs whose open columns form one span group, and
    # two that form two groups.
    "two-binary-equal-spans": ScoringSpec((Construct("rel", 1),
                                           Construct("div", 2),
                                           Construct("sim", 2))),
    "two-binary-unequal-spans": ScoringSpec((Construct("rel", 1),
                                             Construct("div", 2),
                                             Construct("sim", 2, weight=3.0))),
    # rel's span is 2**41 quanta, so span**2 is far beyond 2**53.
    "rel-weight-2**40": ScoringSpec((Construct("rel", 1, weight=2.0**40),
                                     Construct("div", 2))),
}


def assert_core_is_the_reference(cands, spec, knowns):
    """A fresh core's keys, incidence, bounds, cuts, pruning and winner
    check equal the per-pair references exactly, with no tolerance."""
    core = Incidence(cands, spec, knowns)
    lb, ub, cut = core.lo, core.hi, core.cut
    universe = list(question_universe(spec, cands))
    assert [core.question(j) for j in range(len(core.keys))] == universe
    assert core.members.shape == (len(cands), len(universe))
    owns = [set(questions_of(c, spec)) for c in cands]
    assert core.members.tolist() == [[q in own for q in universe]
                                     for own in owns]
    assert core.unknown.tolist() == [q not in knowns for q in universe]
    ref = [score_bounds(c, spec, knowns) for c in cands]
    assert lb.tolist() == [iv.lo for iv in ref]
    assert ub.tolist() == [iv.hi for iv in ref]
    assert cut.diagonal().tolist() == (ub - lb).tolist()
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
    keep, first = prune_and_prove(lb, ub, cut)
    assert first == winner
    assert keep.tolist() == [
        not any(strict[j, i] for j in rest) for i, rest in others]
    return core


@pytest.mark.parametrize("name", REFERENCE_SPECS)
def test_incidence_core_equals_the_per_pair_reference(name):
    """Keys, incidence, bounds, cuts, pruning and the winner check."""
    spec = REFERENCE_SPECS[name]
    for cands, knowns in partial_states(spec, 67):
        assert_core_is_the_reference(cands, spec, knowns)


def test_unary_candidates_under_a_binary_spec_have_no_columns():
    """k=1 with only a binary construct: no question touches any
    candidate, so the incidence has no columns and every cut is 0."""
    spec = ScoringSpec((Construct("div", 2),))
    cands = tuple(Candidate(i, (e,)) for i, e in enumerate("DBCA"))
    core = assert_core_is_the_reference(cands, spec, KnownStore())
    assert core.keys == [] and core.members.shape == (4, 0)
    assert core.cut.tolist() == [[0] * 4] * 4


def test_cut_stays_exact_where_a_float_product_of_spans_rounds():
    """rel's span is 2**52 + 1 quanta. Three shared open rel questions
    cut 3 * 2**52 + 3, an odd number above 2**53 that no float64 holds."""
    spec = ScoringSpec((Construct("rel", 1, weight=2.0**52 + 1),
                        Construct("div", 2)), grid_step=1.0)
    assert spec.span("rel") == 2**52 + 1
    cands = (Candidate(0, ("A", "B", "C", "D")),
             Candidate(1, ("A", "B", "C", "E")),
             Candidate(2, ("B", "C", "E", "F")))
    knowns = KnownStore().record(spec, Question("div", ("B", "C")), 1.0)
    core = assert_core_is_the_reference(cands, spec, knowns)
    assert core.cut[0, 1] == 3 * (2**52 + 1) + 2


def test_incidence_rejects_candidates_of_different_sizes():
    cands = (Candidate(0, ("A", "B")), Candidate(1, ("A", "B", "C")))
    with pytest.raises(ValidationError, match="candidate 1 has 3 members"):
        Incidence(cands, default_spec(), KnownStore())


@pytest.mark.parametrize("name", REFERENCE_SPECS)
def test_folded_answers_equal_the_state_rebuilt_from_scratch(name):
    """`Incidence.fold` after every answer of a random order leaves the
    bounds, the open mask and the cut of every row exactly equal to a
    core rebuilt from the known answers."""
    spec = REFERENCE_SPECS[name]
    for seed in range(30):
        rng = random.Random(seed)
        problem = generate_synthetic(
            rng.randrange(5, 8), rng.randrange(2, 4),
            candidate_cap=rng.choice((8, 20, None)), seed=seed, spec=spec,
            unknown_count=rng.randrange(4, 12))
        knowns = problem.knowns
        core = Incidence(problem.candidates, spec, knowns)
        order = np.flatnonzero(core.unknown).tolist()
        rng.shuffle(order)
        for j in order:
            q = core.question(j)
            knowns = knowns.record(spec, q, problem.ground_truth[q])
            core.fold(j, knowns.get(q))
            want = Incidence(problem.candidates, spec, knowns)
            assert core.lo.tolist() == want.lo.tolist()
            assert core.hi.tolist() == want.hi.tolist()
            assert core.unknown.tolist() == want.unknown.tolist()
            assert core.cut.tolist() == want.cut.tolist()


@pytest.mark.parametrize("name", REFERENCE_SPECS)
def test_random_drops_between_folds_keep_the_per_pair_reference(name):
    """Random live masks interleaved with folds: every row's bounds, live
    or dropped, stay its `score_bounds`, and the cut read over the live
    rows is the per-pair `elimination_cut` with diagonal hi - lo."""
    spec = REFERENCE_SPECS[name]
    drops = 0
    for seed in range(30):
        rng = random.Random(seed)
        problem = generate_synthetic(
            rng.randrange(4, 7), rng.randrange(2, 4),
            candidate_cap=rng.choice((6, 12, None)), seed=seed, spec=spec,
            unknown_count=rng.randrange(3, 10))
        cands, knowns = problem.candidates, problem.knowns
        core = Incidence(cands, spec, knowns)
        live = np.ones(len(cands), dtype=bool)
        order = np.flatnonzero(core.unknown).tolist()
        rng.shuffle(order)
        for j in order:
            keep = np.array([rng.random() < 0.8 for _ in range(live.sum())])
            keep[rng.randrange(len(keep))] = True
            drops += not keep.all()
            live[np.flatnonzero(live)[~keep]] = False
            q = core.question(j)
            knowns = knowns.record(spec, q, problem.ground_truth[q])
            core.fold(j, knowns.get(q))
            rows = np.flatnonzero(live)
            ref = [score_bounds(c, spec, knowns) for c in cands]
            assert core.lo.tolist() == [iv.lo for iv in ref]
            assert core.hi.tolist() == [iv.hi for iv in ref]
            cut = core.cut[np.ix_(rows, rows)]
            assert cut.diagonal().tolist() == \
                (core.hi - core.lo)[rows].tolist()
            assert cut.tolist() == [
                [elimination_cut(shared_unknowns(cands[a], cands[b], spec,
                                                 knowns), spec)
                 for b in rows] for a in rows]
    assert drops


@pytest.mark.parametrize("name", REFERENCE_SPECS)
def test_pruning_never_changes_the_winner_check(name):
    """Answers folded in a random order: a row once outside `keep` stays
    outside, and `prune_and_prove` over every row gives the same mask and
    winner as the pass over the previous pass's survivors alone, or over
    its own."""
    spec = REFERENCE_SPECS[name]
    narrowed = won = 0
    for seed in range(30):
        rng = random.Random(seed)
        problem = generate_synthetic(
            rng.randrange(4, 8), rng.randrange(2, 4),
            candidate_cap=rng.choice((6, 12, None)), seed=seed, spec=spec,
            unknown_count=rng.randrange(3, 12))
        knowns = problem.knowns
        core = Incidence(problem.candidates, spec, knowns)
        was = np.ones(len(problem.candidates), dtype=bool)
        order = np.flatnonzero(core.unknown).tolist()
        rng.shuffle(order)
        for j in [None] + order:
            if j is not None:
                q = core.question(j)
                knowns = knowns.record(spec, q, problem.ground_truth[q])
                core.fold(j, knowns.get(q))
            keep, first = prune_and_prove(core.lo, core.hi, core.cut)
            assert not keep[~was].any()
            # The previous pass's survivors, then this pass's own.
            for live in np.flatnonzero(was), np.flatnonzero(keep):
                live_keep, live_first = prune_and_prove(
                    core.lo[live], core.hi[live], core.cut[np.ix_(live, live)])
                assert np.flatnonzero(keep).tolist() == \
                    live[live_keep].tolist()
                assert first == (None if live_first is None
                                 else live[live_first])
            narrowed += not was.all() and not keep[was].all()
            won += first is not None
            was = keep
    assert narrowed and won


def test_the_margin_pass_holds_one_m_by_m_array():
    """At M=400 the margin matrix takes 1.28 MB; a second M x M
    temporary would take the peak to twice that."""
    core = wide_core()
    m = len(core.lo)
    assert m == 400
    assert peak_bytes(prune_and_prove, core.lo, core.hi, core.cut) \
        < 1.5 * m * m * 8


def test_the_core_build_holds_two_m_by_m_arrays():
    """At M=400 every open column has one span, so the build holds the
    float64 count product and its int64 copy, which becomes the cut: two
    M x M arrays. Adding the copy into a zeroed cut would make three."""
    problem = generate_synthetic(15, 3, candidate_cap=400, seed=7)
    m = len(problem.candidates)
    assert m == 400
    assert peak_bytes(Incidence, problem.candidates, problem.spec,
                      problem.knowns) < 2.6 * m * m * 8
