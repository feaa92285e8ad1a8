"""Entropy, question separation scores and the selection policies."""

import math
import random

import pytest

from topkset import (Question, entropy, qef_score, select_entrred,
                     select_random)
from topkset.model import question_universe, unknown_questions

HOTEL_DIST = (0.75, 0.24, 0.01)


def test_entropy_of_the_hotel_distribution():
    assert entropy(HOTEL_DIST) == pytest.approx(0.604, abs=1e-3)
    assert entropy(HOTEL_DIST) == pytest.approx(0.6043211815523516)


def test_entropy_edge_cases():
    assert entropy((1.0, 0.0, 0.0)) == 0.0
    assert entropy((0.5, 0.5)) == pytest.approx(math.log(2))
    assert entropy((1 / 3,) * 3) == pytest.approx(math.log(3))
    with pytest.raises(ValueError):
        entropy((-0.1, 1.1))


def test_certainty_minimizes_entropy():
    rng = random.Random(5)
    for _ in range(20):
        raw = [rng.random() for _ in range(4)]
        probs = [r / sum(raw) for r in raw]
        assert entropy(probs) >= 0.0
        assert entropy(probs) <= math.log(4) + 1e-12


class TestQefScore:
    def test_question_touching_every_candidate_scores_zero(self, f1):
        q = Question("rel", ("HNY",))
        assert qef_score(q, HOTEL_DIST, f1.candidates, f1.spec) == 0.0

    def test_question_touching_one_candidate(self, f1):
        q = Question("div", ("MLN", "HYN"))
        assert qef_score(q, HOTEL_DIST, f1.candidates, f1.spec) == 1.25

    def test_other_single_candidate_questions(self, f1):
        q = Question("div", ("MLN", "SHN"))
        expected = abs(0.24 - 0.75) + abs(0.24 - 0.01)
        assert qef_score(q, HOTEL_DIST, f1.candidates, f1.spec) == \
            pytest.approx(expected)

    def test_question_touching_no_candidate_scores_zero(self, f1):
        q = Question("rel", ("ZZZ",))
        assert qef_score(q, HOTEL_DIST, f1.candidates, f1.spec) == 0.0


def test_select_entrred_picks_the_separating_question(f1):
    universe = question_universe(f1.spec, f1.candidates)
    unknowns = unknown_questions(universe, f1.knowns)
    got = select_entrred(f1.candidates, HOTEL_DIST, unknowns, f1.spec)
    assert got == Question("div", ("MLN", "HYN"))


def test_select_entrred_prefers_top_candidates_own_questions(f1):
    universe = question_universe(f1.spec, f1.candidates)
    unknowns = unknown_questions(universe, f1.knowns)
    # With the mass on the last candidate the open div question of that
    # candidate wins, not the first-listed one.
    got = select_entrred(f1.candidates, (0.01, 0.24, 0.75), unknowns, f1.spec)
    assert got == Question("div", ("MLN", "WLD"))


def test_select_entrred_tie_takes_earliest_open_question(f1):
    universe = question_universe(f1.spec, f1.candidates)
    unknowns = unknown_questions(universe, f1.knowns)
    # A flat distribution scores every question zero; the first open
    # question of the first candidate is returned.
    got = select_entrred(f1.candidates, (1 / 3, 1 / 3, 1 / 3), unknowns, f1.spec)
    assert got == unknowns[0]


def test_select_entrred_requires_open_questions(f1):
    with pytest.raises(ValueError):
        select_entrred(f1.candidates, HOTEL_DIST, (), f1.spec)


def test_select_entrred_falls_back_to_all_questions(f1):
    # Questions of candidates other than the top one only.
    pool = (Question("div", ("MLN", "SHN")), Question("div", ("MLN", "WLD")))
    got = select_entrred(f1.candidates, HOTEL_DIST, pool, f1.spec)
    assert got in pool


class TestSelectRandom:
    def test_seed_reproducibility(self, f1):
        universe = question_universe(f1.spec, f1.candidates)
        unknowns = unknown_questions(universe, f1.knowns)
        assert select_random(unknowns, 7) == select_random(unknowns, 7)

    def test_accepts_rng_instance(self, f1):
        universe = question_universe(f1.spec, f1.candidates)
        unknowns = unknown_questions(universe, f1.knowns)
        assert select_random(unknowns, random.Random(7)) == \
            select_random(unknowns, 7)

    def test_covers_the_pool(self, f1):
        universe = question_universe(f1.spec, f1.candidates)
        unknowns = unknown_questions(universe, f1.knowns)
        seen = {select_random(unknowns, s) for s in range(50)}
        assert seen == set(unknowns)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            select_random((), 0)
