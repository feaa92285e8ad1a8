"""Winner probability estimators against the exhaustive reference."""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkset import (Candidate, CapExceededError, Construct, KnownStore,
                     Question, ScoringSpec, brute_force_dist,
                     eliminated_bounds, generate_synthetic, normalize,
                     prob_dep, prob_ind, score_bounds)
from topkset import winner
from topkset.bounds import Incidence
from topkset.harness import default_spec
from topkset.model import question_universe, questions_of, unknown_questions
from topkset.winner import (geq_probability, geq_probability_naive,
                            most_probable, uniform_pdf)

from .conftest import (core_arrays, hotel_spec, partial_states,
                       shuffled_states)

EXACT = pytest.approx

PARTIAL_SPECS = pytest.mark.parametrize("spec", [
    default_spec(0.5), default_spec(0.1),
    ScoringSpec((Construct("rel", 1, weight=0.3), Construct("div", 2)))],
    ids=["step-0.5", "step-0.1", "rel-weight-0.3"])


def exact(fracs):
    return pytest.approx([float(f) for f in fracs], rel=1e-12)


def estimates(cands, spec, knowns):
    """prob_ind, prob_dep and brute_force_dist on one state."""
    a = core_arrays(cands, spec, knowns)
    return (prob_ind(a.lo, a.hi), prob_dep(a.lo, a.hi, a.cut),
            brute_force_dist(cands, spec, knowns))


class TestNormalize:
    def test_even_weights(self):
        assert normalize([2.0, 2.0]) == (0.5, 0.5)

    def test_zero_entry(self):
        assert normalize([0.0, 5.0]) == (0.0, 1.0)

    def test_all_zero_falls_back_to_uniform(self):
        assert normalize([0.0, 0.0, 0.0]) == (1 / 3, 1 / 3, 1 / 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize([-1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty candidate list"):
            normalize([])


def test_most_probable_breaks_ties_low():
    assert most_probable((0.4, 0.4, 0.2)) == 0
    assert most_probable([0.2, 0.4, 0.4]) == 1


def test_prob_ind_on_hotels(f1):
    a = core_arrays(f1.candidates, f1.spec, f1.knowns)
    dist = prob_ind(a.lo, a.hi)
    assert list(dist.probs) == exact(normalize(
        [Fraction(418, 625), Fraction(12, 125), Fraction(38, 125)]))
    assert most_probable(dist.probs) == 0


@PARTIAL_SPECS
def test_prob_ind_raw_is_the_product_of_exact_pair_counts(spec):
    """The estimate normalizes products whose beat terms are K / (na * nb),
    one correctly rounded division, multiplied in ascending opponent
    order; K counted point by point."""
    for cands, knowns in partial_states(spec, 40):
        spans = [(iv.lo, iv.hi) for iv in
                 (score_bounds(c, spec, knowns) for c in cands)]
        expected = []
        for i, (a_lo, a_hi) in enumerate(spans):
            r = 1.0
            for j, (b_lo, b_hi) in enumerate(spans):
                if j != i:
                    nb = b_hi - b_lo + 1
                    k = sum(min(max(x - b_lo + 1, 0), nb)
                            for x in range(a_lo, a_hi + 1))
                    r *= k / ((a_hi - a_lo + 1) * nb)
            expected.append(r)
        a = core_arrays(cands, spec, knowns)
        assert prob_ind(a.lo, a.hi).probs == normalize(expected)


def test_prob_ind_pair_terms_equal_the_brute_force_pair_counts():
    """Every interval pair with endpoints in [-3, 3] (points, disjoint,
    nested and partly overlapping ranges), in both directions."""
    ends = [(lo, hi) for lo, hi in itertools.product(range(-3, 4), repeat=2)
            if lo <= hi]
    for (a_lo, a_hi), (b_lo, b_hi) in itertools.product(ends, repeat=2):
        xs, ys = range(a_lo, a_hi + 1), range(b_lo, b_hi + 1)
        pairs = len(xs) * len(ys)
        a_beats = sum(x >= y for x in xs for y in ys)
        b_beats = sum(y >= x for x in xs for y in ys)
        dist = prob_ind([a_lo, b_lo], [a_hi, b_hi])
        assert dist.probs == normalize([a_beats / pairs, b_beats / pairs]), \
            (a_lo, a_hi, b_lo, b_hi)


def _geq_count(a_lo, a_hi, b_lo, b_hi):
    """Lattice pairs (x, y) in [a_lo, a_hi] x [b_lo, b_hi] with x >= y: an
    arithmetic series over the overlap plus all of b for each x above
    b_hi."""
    lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
    count = (lo + hi - 2 * b_lo + 2) * (hi - lo + 1) // 2 if lo <= hi else 0
    if a_hi > b_hi:
        count += (a_hi - max(a_lo, b_hi + 1) + 1) * (b_hi - b_lo + 1)
    return count


def _prob_ind_two_counts(lo, hi):
    """prob_ind's probabilities from one count call per direction for each
    unordered pair, each candidate's factors in ascending opponent order."""
    raw = [1.0] * len(lo)
    for i in range(len(lo)):
        for j in range(i + 1, len(lo)):
            pairs = (hi[i] - lo[i] + 1) * (hi[j] - lo[j] + 1)
            raw[i] *= _geq_count(lo[i], hi[i], lo[j], hi[j]) / pairs
            raw[j] *= _geq_count(lo[j], hi[j], lo[i], hi[i]) / pairs
    return normalize(raw)


@pytest.mark.parametrize("case", [*range(12), "identical", "distinct",
                                  "one", "m300"])
def test_prob_ind_matches_the_two_count_reference_bit_for_bit(case):
    """Negative lows, point intervals and repeated spans, up to M = 60 per
    seed; every span identical (one span class, criterion 09's shape),
    every span distinct (one class per candidate), one candidate, and
    M = 300."""
    rng = random.Random(case)
    if case == "identical":
        spans = [(-3, 9)] * 50
    elif case == "distinct":
        spans = [(lo, lo + rng.randrange(0, 30))
                 for lo in rng.sample(range(-40, 40), 60)]
    elif case == "one":
        spans = [(-2, 5)]
    else:
        m = 300 if case == "m300" else rng.randrange(1, 61)
        repeated = [(lo, lo + rng.randrange(0, 8))
                    for lo in (rng.randrange(-20, 20) for _ in range(4))]
        spans = []
        for _ in range(m):
            kind = rng.random()
            lo = rng.randrange(-40, 40)
            if kind < 0.3:
                spans.append(rng.choice(repeated))
            elif kind < 0.5:
                spans.append((lo, lo))
            else:
                spans.append((lo, lo + rng.randrange(0, 50)))
    lo, hi = [s[0] for s in spans], [s[1] for s in spans]
    dist = prob_ind(lo, hi)
    assert dist.probs == _prob_ind_two_counts(lo, hi)


def test_estimators_reject_an_empty_candidate_list():
    with pytest.raises(ValueError, match="empty candidate list"):
        prob_ind([], [])
    with pytest.raises(ValueError, match="empty candidate list"):
        prob_dep([], [], np.zeros((0, 0), dtype=np.int64))


@pytest.mark.parametrize("lo, hi", [
    ([3], [2]), ([3, 3], [2, 2]), ([0, 3], [4, 2]), ([3, 0], [2, 4])],
    ids=["one", "two-equal", "after-a-valid-span", "before-a-valid-span"])
def test_prob_ind_rejects_an_inverted_span(lo, hi):
    with pytest.raises(ValueError, match=r"inverted span: lo 3 > hi 2"):
        prob_ind(lo, hi)
    # prob_dep checks every span up front too, even with no pair to compare.
    with pytest.raises(ValueError, match=r"inverted span: lo 3 > hi 2"):
        prob_dep(lo, hi, np.zeros((len(lo), len(lo)), dtype=np.int64))


@pytest.mark.parametrize("estimator, args, message", [
    (prob_ind, ([0, 1], [5]), "lo and hi have 2 and 1 entries"),
    (prob_ind, ([0], [5, 6]), "lo and hi have 1 and 2 entries"),
    (prob_dep, ([0, 1], [5], np.zeros((2, 2), dtype=np.int64)),
     "lo, hi and cut have 2, 1 and 2 entries"),
    (prob_dep, ([0, 1], [5, 6], np.zeros((1, 2), dtype=np.int64)),
     "lo, hi and cut have 2, 2 and 1 entries"),
    (prob_dep, ([0, 1], [5, 6], np.zeros((3, 2), dtype=np.int64)),
     "lo, hi and cut have 2, 2 and 3 entries"),
    (prob_dep, ([0, 0], [2, 4], np.array([[0, 3], [3, 0]], dtype=np.int64)),
     r"cut 3 empties candidate 0's span \[0, 2\]"),
], ids=["ind-short-hi", "ind-long-hi", "dep-short-hi", "dep-short-cut",
        "dep-long-cut", "dep-emptying-cut"])
def test_estimators_reject_inputs_that_do_not_fit(estimator, args, message):
    with pytest.raises(ValueError, match=message):
        estimator(*args)


def test_prob_ind_cost_does_not_grow_with_lattice_resolution():
    """div weight 1e-5 at step 0.5 makes the quantum 1/200000, so each
    interval spans about a million lattice points."""
    spec = ScoringSpec((Construct("rel", 1), Construct("div", 2, weight=1e-5)))
    problem = generate_synthetic(5, 2, candidate_cap=6, seed=1, spec=spec)
    assert spec.quantum == Fraction(1, 200_000)
    a = core_arrays(problem.candidates, spec, problem.knowns)
    t0 = time.perf_counter()
    dist = prob_ind(a.lo, a.hi)
    assert time.perf_counter() - t0 < 1.0
    assert len(dist.probs) == 6
    assert sum(dist.probs) == pytest.approx(1.0, abs=1e-12)


def test_prob_dep_on_hotels(f1):
    a = core_arrays(f1.candidates, f1.spec, f1.knowns)
    dist = prob_dep(a.lo, a.hi, a.cut)
    assert list(dist.probs) == exact(normalize(
        [Fraction(8, 9), Fraction(1, 27), Fraction(8, 27)]))
    assert most_probable(dist.probs) == 0
    # The products keep the middle candidate last.
    assert dist.probs[1] < dist.probs[2] < dist.probs[0]


@PARTIAL_SPECS
def test_prob_dep_raw_is_the_product_of_linear_walks(spec):
    """The estimate normalizes products whose beat terms are
    geq_probability on the pair's eliminated uniform pdfs, multiplied in
    ascending opponent order; each term agrees with the quadratic
    reference sum."""
    for cands, knowns in partial_states(spec, 40):
        expected = []
        for i, ca in enumerate(cands):
            r = 1.0
            for j, cb in enumerate(cands):
                if j != i:
                    a, b = eliminated_bounds(ca, cb, spec, knowns)
                    pa, pb = uniform_pdf(a.lo, a.hi), uniform_pdf(b.lo, b.hi)
                    term = geq_probability(pa, pb)
                    assert term == pytest.approx(
                        geq_probability_naive(pa, pb), rel=0, abs=1e-12)
                    r *= term
            expected.append(r)
        arrays = core_arrays(cands, spec, knowns)
        assert prob_dep(arrays.lo, arrays.hi, arrays.cut).probs == \
            normalize(expected)


def test_prob_dep_calls_the_pdf_primitives_through_winner(f1, monkeypatch):
    """perfbench counts `support_points` and `pdf_comparisons` by wrapping
    `uniform_pdf` and `geq_probability` on `winner`, so `prob_dep` must
    reach both through that module's globals: wrappers put there see one
    pdf per distinct (candidate, cut) and two beat terms per pair."""
    a = core_arrays(f1.candidates, f1.spec, f1.knowns)
    expected = prob_dep(a.lo, a.hi, a.cut)
    built, compared = [], []

    def counting(calls, fn):
        def counted(*args):
            calls.append(args)
            return fn(*args)
        return counted

    monkeypatch.setattr(winner, "uniform_pdf",
                        counting(built, winner.uniform_pdf))
    monkeypatch.setattr(winner, "geq_probability",
                        counting(compared, winner.geq_probability))
    assert prob_dep(a.lo, a.hi, a.cut) == expected
    pairs = list(itertools.combinations(range(len(a.lo)), 2))
    assert len(compared) == 2 * len(pairs) == 6
    assert len(built) == len({(x, int(a.cut[i, j])) for i, j in pairs
                              for x in (i, j)}) > 0


@pytest.mark.parametrize("spec", [
    default_spec(0.5), default_spec(0.1),
    ScoringSpec((Construct("rel", 1, weight=0.3), Construct("div", 2))),
    ScoringSpec((Construct("rel", 1), Construct("div", 2),
                 Construct("sim", 2, weight=0.5)))],
    ids=["step-0.5", "step-0.1", "rel-weight-0.3", "two-binary"])
def test_core_arrays_give_the_derived_result(spec):
    """The arrays the estimators and selection read are the ones the
    model defines: the core's open questions are `unknown_questions` of
    the universe, in order, and its incidence rows are `questions_of`."""
    for cands, knowns in itertools.chain(partial_states(spec, 40),
                                         shuffled_states(spec, 40)):
        core = Incidence(cands, spec, knowns)
        questions = [core.question(j) for j in range(len(core.keys))]
        assert questions == list(question_universe(spec, cands))
        assert core_arrays(cands, spec, knowns).unknowns == list(
            unknown_questions(question_universe(spec, cands), knowns))
        for i, c in enumerate(cands):
            own = set(questions_of(c, spec))
            assert [bool(x) for x in core.members[i]] == \
                [q in own for q in questions]


def test_prob_dep_stays_fast_at_a_fine_quantum():
    """div weight 0.001 at step 0.5 makes the quantum 1/2000; beat terms
    linear in the support size take milliseconds here, a quadratic double
    sum takes seconds."""
    spec = ScoringSpec((Construct("rel", 1), Construct("div", 2, weight=0.001)))
    problem = generate_synthetic(5, 2, candidate_cap=6, seed=3, spec=spec)
    assert spec.quantum == Fraction(1, 2000)
    a = core_arrays(problem.candidates, spec, problem.knowns)
    t0 = time.perf_counter()
    dist = prob_dep(a.lo, a.hi, a.cut)
    assert time.perf_counter() - t0 < 1.0
    assert len(dist.probs) == 6
    assert sum(dist.probs) == pytest.approx(1.0, abs=1e-12)


def test_brute_force_on_hotels(f1):
    dist = brute_force_dist(f1.candidates, f1.spec, f1.knowns)
    assert list(dist.probs) == exact(
        [Fraction(61, 81), Fraction(5, 162), Fraction(35, 162)])
    assert most_probable(dist.probs) == 0


def test_single_candidate_is_certain(f1):
    c = (f1.candidates[0],)
    for dist in estimates(c, f1.spec, f1.knowns):
        assert dist.probs == (1.0,)


def test_separated_bounds_force_certainty():
    spec = hotel_spec()
    cands = (Candidate(0, ("A",)), Candidate(1, ("B",)))
    knowns = KnownStore().record(spec, Question("rel", ("A",)), 0.0)
    knowns = knowns.record(spec, Question("rel", ("B",)), 1.0)
    for dist in estimates(cands, spec, knowns):
        assert dist.probs == (0.0, 1.0)


def test_identical_disjoint_candidates_split_evenly():
    spec = hotel_spec()
    cands = (Candidate(0, ("A",)), Candidate(1, ("B",)))
    a = core_arrays(cands, spec, KnownStore())
    assert prob_ind(a.lo, a.hi).probs == EXACT((0.5, 0.5))


def test_disjoint_candidates_make_both_estimators_agree():
    """Without shared entities there is nothing to eliminate."""
    spec = hotel_spec()
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.choice([4, 6])
        k = rng.choice([1, 2])
        entities = [f"E{i}" for i in range(n)]
        cands = tuple(Candidate(i, tuple(entities[i * k:(i + 1) * k]))
                      for i in range(n // k))
        knowns = KnownStore()
        hidden = rng.randrange(1, 4)
        universe = question_universe(spec, cands)
        values = [rng.choice([0.0, 0.5, 1.0]) for _ in universe]
        for q, v in list(zip(universe, values))[hidden:]:
            knowns = knowns.record(spec, q, v)
        ind, dep, _ = estimates(cands, spec, knowns)
        for a, b in zip(ind.probs, dep.probs):
            assert a == pytest.approx(b, abs=1e-12)


def test_separated_supports_give_probability_one():
    """c1 scores at least 2.0 while c2 tops out at 1.0, whatever the answers."""
    spec = hotel_spec()
    cands = (Candidate(0, ("A", "B")), Candidate(1, ("C", "D")))
    knowns = KnownStore()
    for e, v in (("A", 1.0), ("B", 1.0), ("C", 0.0), ("D", 0.0)):
        knowns = knowns.record(spec, Question("rel", (e,)), v)
    for dist in estimates(cands, spec, knowns):
        assert dist.probs == (1.0, 0.0)


def test_elimination_sees_dominance_that_the_product_form_misses(f1):
    """After Div(MLN,HYN)=1.0 the c1/c2 supports still touch at 4.5.

    The raw product form keeps paying tie credit there, while pinning
    the shared rel(HNY) separates the pair and settles the race.
    """
    knowns = f1.knowns.record(f1.spec, Question("div", ("MLN", "HYN")), 1.0)
    ind, dep, bf = estimates(f1.candidates, f1.spec, knowns)
    for dist in (dep, bf):
        assert dist.probs == (1.0, 0.0, 0.0)
    assert most_probable(ind.probs) == 0
    assert 0.8 < ind.probs[0] < 1.0


def test_brute_force_cap(f1):
    with pytest.raises(CapExceededError):
        brute_force_dist(f1.candidates, f1.spec, f1.knowns, cap=10)


def test_brute_force_matches_independent_enumeration():
    """Cross-check the vectorized enumeration against plain nested loops."""
    for seed in (3, 17, 29):
        problem = generate_synthetic(4, 2, seed=seed, unknown_count=3)
        spec, cands, knowns = problem.spec, problem.candidates, problem.knowns
        unknowns = unknown_questions(question_universe(spec, cands), knowns)
        wins = [Fraction(0)] * len(cands)
        combos = 0
        for combo in itertools.product([Fraction(0), Fraction(1, 2),
                                        Fraction(1)], repeat=len(unknowns)):
            fill = dict(zip(unknowns, combo))
            scores = []
            for c in cands:
                total = Fraction(0)
                for q in questions_of(c, spec):
                    i = knowns.get(q)
                    total += Fraction(i, 2) if i is not None else fill[q]
                scores.append(total)
            best = max(scores)
            tied = [i for i, s in enumerate(scores) if s == best]
            for i in tied:
                wins[i] += Fraction(1, len(tied))
            combos += 1
        expected = [w / combos for w in wins]
        got = brute_force_dist(cands, spec, knowns)
        assert list(got.probs) == exact(expected)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_all_estimators_return_proper_distributions(seed):
    rng = random.Random(seed)
    problem = generate_synthetic(rng.randrange(4, 7), rng.randrange(1, 4),
                                 seed=seed, unknown_count=rng.randrange(1, 5))
    for dist in estimates(problem.candidates, problem.spec, problem.knowns):
        assert all(p >= 0 for p in dist.probs)
        assert sum(dist.probs) == pytest.approx(1.0, abs=1e-9)
