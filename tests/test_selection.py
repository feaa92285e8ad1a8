"""Entropy, question separation scores and the selection policies."""

import math
import random

import numpy as np
import pytest

from topkset import (Question, entropy, qef_score, select_entrred,
                     select_random, selection)
from topkset.model import question_universe, unknown_questions

from .conftest import core_arrays

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
    a = core_arrays(f1.candidates, f1.spec, f1.knowns)
    got = select_entrred(a.unknowns, HOTEL_DIST, a.affected)
    assert got == Question("div", ("MLN", "HYN"))


def test_select_entrred_prefers_top_candidates_own_questions(f1):
    a = core_arrays(f1.candidates, f1.spec, f1.knowns)
    # With the mass on the last candidate the open div question of that
    # candidate wins, not the first-listed one.
    got = select_entrred(a.unknowns, (0.01, 0.24, 0.75), a.affected)
    assert got == Question("div", ("MLN", "WLD"))


def test_select_entrred_tie_takes_earliest_open_question(f1):
    a = core_arrays(f1.candidates, f1.spec, f1.knowns)
    # A flat distribution scores every question zero; the first open
    # question of the first candidate is returned.
    got = select_entrred(a.unknowns, (1 / 3, 1 / 3, 1 / 3), a.affected)
    assert got == a.unknowns[0]


def test_select_entrred_requires_open_questions():
    with pytest.raises(ValueError):
        select_entrred((), HOTEL_DIST, ())


def test_select_entrred_falls_back_to_all_questions(f1):
    a = core_arrays(f1.candidates, f1.spec, f1.knowns)
    # Questions of candidates other than the top one only.
    pool = (Question("div", ("MLN", "SHN")), Question("div", ("MLN", "WLD")))
    affected = [a.affected[a.unknowns.index(q)] for q in pool]
    got = select_entrred(pool, HOTEL_DIST, affected)
    assert got in pool


def _loop_select(unknowns, probs, affected):
    """The double-loop selection `select_entrred` must always agree with:
    first maximum of the left-to-right |p_i - p_j| sums over the top
    candidate's questions (or every question when it has none)."""
    top = 0
    for i in range(1, len(probs)):
        if probs[i] > probs[top]:
            top = i
    pool = ([r for r, row in enumerate(affected) if row[top]]
            or range(len(unknowns)))
    best, best_score = pool[0], _loop_score(affected[pool[0]], probs)
    for r in pool[1:]:
        s = _loop_score(affected[r], probs)
        if s > best_score:
            best, best_score = r, s
    return unknowns[best]


def _loop_score(row, probs):
    inside = [i for i, hit in enumerate(row) if hit]
    outside = [j for j, hit in enumerate(row) if not hit]
    total = 0.0
    for i in inside:
        for j in outside:
            total += abs(probs[i] - probs[j])
    return total


def _filter_scores(probs, rows):
    """The one-product scores g = ((A @ D) * ~A).sum(axis=1)."""
    p = np.asarray(probs)
    a = np.asarray(rows, dtype=bool)
    return ((a @ np.abs(p[:, None] - p[None, :])) * ~a).sum(axis=1).tolist()


def _random_probs(rng, m):
    kind = rng.choice(("random", "repeated", "ulp", "zeros", "tiny",
                       "equal", "mixed"))
    x = rng.random()
    ulps = [x]
    for _ in range(3):
        ulps += [math.nextafter(ulps[-1], 1.0), math.nextafter(x, 0.0)]
    draw = {
        "random": lambda: rng.random(),
        "repeated": lambda: rng.choice((0.1, 0.2, 0.3, 0.7, 1 / 3)),
        "ulp": lambda: rng.choice(ulps),
        "zeros": lambda: rng.choice((0.0, 0.0, rng.random())),
        "tiny": lambda: rng.choice((1e-300 * rng.random(),
                                    5e-324 * rng.randrange(1, 9),
                                    math.nextafter(1e-300, 1.0), 0.0)),
        "equal": lambda: x,
    }
    if kind == "mixed":
        return [draw[rng.choice(list(draw))]() for _ in range(m)]
    return [draw[kind]() for _ in range(m)]


def _random_rows(rng, m, r, top):
    density = rng.choice((0.05, 0.2, 0.5, 0.9))
    rows = []
    for _ in range(r):
        if rows and rng.random() < 0.2:
            rows.append(list(rng.choice(rows)))  # identical incidence rows
        else:
            rows.append([rng.random() < density for _ in range(m)])
    if rng.random() < 0.15:
        for row in rows:  # the top candidate has no open question
            row[top] = False
    elif rng.random() < 0.5:
        for row in rows:  # every row is in the top candidate's pool
            row[top] = True
    return rows


def test_select_entrred_equals_the_double_loop_on_random_cases():
    rng = random.Random(20240)
    paths = {"loop": 0, "filter": 0}
    for case in range(2400):
        m = int(math.exp(rng.uniform(math.log(2), math.log(301))))
        r = rng.randint(1, min(60, max(3, 240_000 // (m * m))))
        probs = _random_probs(rng, m)
        rows = _random_rows(rng, m, r, probs.index(max(probs)))
        unknowns = [f"q{i}" for i in range(r)]
        want = _loop_select(unknowns, probs, rows)
        if case % 2:
            got = select_entrred(unknowns, tuple(probs), rows)
        else:
            got = select_entrred(np.array(unknowns), tuple(probs),
                                 np.array(rows, dtype=bool))
        assert got == want, (case, m, r)
        pool = sum(row[probs.index(max(probs))] for row in rows) or r
        paths["loop" if pool * m * m < selection._LOOP_MAX_WORK
              else "filter"] += 1
    assert min(paths.values()) > 500, paths


@pytest.fixture
def survivors(monkeypatch):
    """Each pool the exact tiebreak (`_first_best`) is run on."""
    seen = []
    first_best = selection._first_best

    def spy(pool, rows, probs):
        seen.append(list(pool))
        return first_best(pool, rows, probs)

    monkeypatch.setattr(selection, "_first_best", spy)
    return seen


def test_the_filter_alone_decides_clear_scores(survivors):
    m = 40
    probs = [0.5, 0.3] + [0.2 / (m - 2)] * (m - 2)
    # Both questions touch the top candidate; the second also separates
    # the runner-up from the tail, about 30 against 19.
    rows = [[i == 0 for i in range(m)], [i < 2 for i in range(m)]]
    assert len(rows) * m * m >= selection._LOOP_MAX_WORK
    assert select_entrred(["a", "b"], tuple(probs), rows) == "b"
    assert _loop_select(["a", "b"], probs, rows) == "b"
    assert survivors == [[1]]  # one survivor, no loop scores computed


def _last_bit_tie(rng):
    """Two questions with equal exact scores whose left-to-right sums
    differ in the last bit, ranked the other way round by the filter."""
    m = 40
    values = (0.1, 0.2, 0.3, 0.7, 1 / 3)
    for _ in range(5000):
        probs = [1.0] + [rng.choice(values) for _ in range(m - 1)]
        first = [True] + [rng.random() < 0.5 for _ in range(m - 1)]
        # Move one inside candidate to an outside one of equal
        # probability: the same terms, summed in another order.
        swaps = [(i, j) for i in range(1, m) for j in range(1, m)
                 if first[i] and not first[j] and probs[i] == probs[j]]
        if not swaps:
            continue
        i, j = rng.choice(swaps)
        second = list(first)
        second[i], second[j] = False, True
        rows = [first, second]
        loop = [_loop_score(row, probs) for row in rows]
        g = _filter_scores(probs, rows)
        if (math.nextafter(min(loop), math.inf) == max(loop)
                and g[0] != g[1] and (g[0] < g[1]) == (loop[0] > loop[1])):
            return probs, rows, loop
    raise AssertionError("no last-bit tie found")


def test_last_bit_ties_go_to_the_exact_tiebreak(survivors):
    probs, rows, loop = _last_bit_tie(random.Random(3))
    want = "a" if loop[0] > loop[1] else "b"
    assert _loop_select(["a", "b"], probs, rows) == want
    assert select_entrred(["a", "b"], tuple(probs), rows) == want
    assert survivors == [[0, 1]]


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
