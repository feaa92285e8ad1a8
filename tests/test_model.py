"""Core vocabulary: questions, specs, known answers, candidates, universes."""

import dataclasses
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from topkset import (Candidate, Construct, KnownStore, Problem, Question,
                     ScoringSpec, ValidationError, question_universe,
                     questions_of, unknown_questions)

from .conftest import hotel_spec


class TestQuestion:
    def test_binary_args_are_canonicalized(self):
        assert Question("div", ("b", "a")).args == ("a", "b")

    def test_symmetric_pairs_compare_and_hash_equal(self):
        a = Question("div", ("MLN", "HYN"))
        b = Question("div", ("HYN", "MLN"))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @given(st.text(min_size=1, max_size=8), st.text(min_size=1, max_size=8))
    def test_canonical_order_for_any_id_pair(self, x, y):
        if x == y:
            return
        assert Question("div", (x, y)) == Question("div", (y, x))

    def test_rejects_empty_and_duplicate_args(self):
        with pytest.raises(ValidationError):
            Question("rel", ())
        with pytest.raises(ValidationError):
            Question("rel", ("",))
        with pytest.raises(ValidationError):
            Question("div", ("a", "a"))

    def test_str_is_readable(self):
        assert str(Question("rel", ("HNY",))) == "rel(HNY)"


class TestConstructAndSpec:
    def test_construct_validation(self):
        with pytest.raises(ValidationError):
            Construct("", 1)
        with pytest.raises(ValidationError):
            Construct("rel", 0)
        with pytest.raises(ValidationError):
            Construct("rel", 1, weight=-0.1)

    def test_grid_value(self):
        spec = hotel_spec()
        assert [spec.grid_value(i) for i in range(3)] == [0.0, 0.5, 1.0]
        assert spec.steps == 2
        for i in (-1, 3):
            with pytest.raises(IndexError, match=f"grid index {i} outside 0..2"):
                spec.grid_value(i)

    # The five sweep specs' grids (a construct weight moves no grid value),
    # one with a negative minimum and one of step 1/3.
    @pytest.mark.parametrize("lo, hi, step, exact_lo, exact_step", [
        (0.0, 1.0, 0.5, 0, Fraction(1, 2)),
        (0.0, 1.0, 0.125, 0, Fraction(1, 8)),
        (0.0, 1.0, 0.1, 0, Fraction(1, 10)),
        (0.0, 1.0, 0.25, 0, Fraction(1, 4)),
        (-1.5, 2.5, 0.1, Fraction(-3, 2), Fraction(1, 10)),
        (-1.0, 2.0, 1 / 3, -1, Fraction(1, 3)),
    ])
    def test_grid_value_is_the_correctly_rounded_lattice_point(
            self, lo, hi, step, exact_lo, exact_step):
        spec = ScoringSpec((Construct("rel", 1),), lo, hi, step)
        assert [spec.grid_value(i) for i in range(spec.steps + 1)] == \
            [float(exact_lo + i * exact_step) for i in range(spec.steps + 1)]
        assert spec.grid_value(spec.steps) == hi

    def test_is_on_grid(self):
        spec = hotel_spec()
        assert spec.grid_index(0.5) == 1
        assert spec.grid_index(1.0) == 2
        assert spec.grid_index(0.5 + 1e-12) == 1
        assert spec.grid_index(0.3) is None
        assert spec.grid_index(1.5) is None
        assert spec.grid_index(-0.5) is None
        assert spec.grid_index(float("nan")) is None
        for v in (float("inf"), float("-inf"), 10**400, -10**400):
            assert spec.grid_index(v) is None
        # The tolerance is GRID_TOL in score units at every step: 9e-10 off
        # a value is on the grid at step 0.5, 5e-9 off is not at step 10,
        # inside the range as at its ends.
        assert spec.grid_index(1.0000000009) == 2
        assert spec.grid_index(0.4999999991) == 1
        tens = ScoringSpec((Construct("rel", 1),), 0.0, 100.0, 10.0)
        assert tens.grid_index(50.0) == 5
        assert tens.grid_index(50.0000000009) == 5
        assert tens.grid_index(50.000000005) is None
        assert tens.grid_index(100.000000005) is None
        assert tens.grid_index(-0.000000005) is None

    def test_only_real_numbers_other_than_bools_are_on_grid(self):
        spec = hotel_spec()
        for v in (1, 1.0, np.float64(1), np.int64(1), Fraction(1)):
            assert spec.grid_index(v) == 2
        for v in (True, np.bool_(True), Decimal(1), "1.0", None):
            assert spec.grid_index(v) is None

    def test_quantum_is_the_gcd_of_weighted_steps_and_minimum(self):
        def quantum(step, rel_weight=1.0, lo=0.0, hi=1.0):
            return ScoringSpec((Construct("rel", 1, weight=rel_weight),
                                Construct("div", 2)), lo, hi, step).quantum
        assert quantum(0.1) == Fraction(1, 10)
        assert quantum(1 / 3) == Fraction(1, 3)
        assert quantum(0.5, rel_weight=0.3) == Fraction(1, 20)
        assert quantum(0.5, rel_weight=2.0) == Fraction(1, 2)
        assert quantum(1.0, lo=0.5, hi=2.5) == Fraction(1, 2)
        spec = ScoringSpec((Construct("rel", 1, weight=0.3),), 0.0, 1.0, 0.5)
        assert (spec.low["rel"], spec.rise["rel"], spec.span("rel")) == \
            (0, 1, 2)
        assert [spec.grid_value(i) for i in range(3)] == [0.0, 0.5, 1.0]
        assert ScoringSpec((Construct("rel", 1),), 0.0, 1.0,
                           0.1).grid_value(3) == 0.3

    def test_spec_numbers_must_be_small_fractions(self):
        with pytest.raises(ValidationError, match="denominator"):
            ScoringSpec((Construct("rel", 1, weight=math.pi),))
        with pytest.raises(ValidationError, match="denominator"):
            ScoringSpec((Construct("rel", 1),), grid_step=1 / 1_000_003)

    @pytest.mark.parametrize("weight, lo, hi, step, field", [
        (1.0, 0.0, 1.0, math.inf, "grid_step"),
        (1.0, 0.0, 1.0, math.nan, "grid_step"),
        (1.0, 0.0, math.inf, 0.5, "max_score"),
        (1.0, -math.inf, 1.0, 0.5, "min_score"),
        (math.inf, 0.0, 1.0, 0.5, "weight"),
        (math.nan, 0.0, 1.0, 0.5, "weight"),
    ])
    def test_spec_numbers_must_be_finite(self, weight, lo, hi, step, field):
        with pytest.raises(ValidationError, match=f"{field} .* not finite"):
            ScoringSpec((Construct("rel", 1, weight=weight),), lo, hi, step)

    def test_grid_of_at_most_a_million_steps(self):
        """The finest grid MAX_DENOMINATOR admits on [0, 1] is accepted;
        one step more is refused."""
        rel = Construct("rel", 1)
        spec = ScoringSpec((rel,), grid_step=1e-6)
        assert spec.steps == 1_000_000
        assert [spec.grid_value(i) for i in (0, 1, 999_999, 1_000_000)] == \
            [float(i * Fraction(1, 10**6)) for i in (0, 1, 999_999, 1_000_000)]
        for i in (-1, 1_000_001):
            with pytest.raises(IndexError):
                spec.grid_value(i)
        with pytest.raises(ValidationError,
                           match=r"^range \[0.0, 1.000001\] at grid step "
                                 r"1e-06 has 1000001 steps, above the limit "
                                 r"of 1000000; use a coarser step$"):
            ScoringSpec((rel,), 0.0, 1.000001, 1e-6)

    def test_a_million_step_spec_takes_under_a_mebibyte(self):
        tracemalloc.start()
        try:
            ScoringSpec((Construct("rel", 1),), grid_step=1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_spec_rejects_bad_shapes(self):
        rel = Construct("rel", 1)
        with pytest.raises(ValidationError):
            ScoringSpec(())
        with pytest.raises(ValidationError):
            ScoringSpec((rel, Construct("rel", 2)))
        with pytest.raises(ValidationError):
            ScoringSpec((rel,), min_score=1.0, max_score=1.0)
        with pytest.raises(ValidationError):
            ScoringSpec((rel,), grid_step=0.0)
        # 0.3 does not divide the unit range.
        with pytest.raises(ValidationError):
            ScoringSpec((rel,), grid_step=0.3)

    def test_construct_lookup(self):
        spec = hotel_spec()
        assert spec.construct_named("div").arity == 2
        with pytest.raises(ValidationError):
            spec.construct_named("price")


class TestKnownStore:
    def test_record_and_lookup(self):
        spec = hotel_spec()
        q = Question("rel", ("HNY",))
        store = KnownStore().record(spec, q, 0.5)
        assert q in store
        # The store keeps grid indices: 0.5 is index 1 on {0, 0.5, 1}.
        assert store.get(q) == 1
        assert len(store) == 1
        assert dict(store.items()) == {q: 1}

    def test_record_returns_new_store(self):
        spec = hotel_spec()
        q = Question("rel", ("HNY",))
        empty = KnownStore()
        full = empty.record(spec, q, 0.5)
        assert q not in empty
        assert q in full

    def test_items_keep_record_order(self):
        """Not sorted: `solve` reads its answers in the order asked."""
        spec = hotel_spec()
        qs = [Question("rel", ("MLN",)), Question("div", ("HNY", "MLN")),
              Question("rel", ("HNY",)), Question("div", ("HNY", "HYN"))]
        store = KnownStore({qs[0]: 2})
        for q, v in zip(qs[1:], (0.0, 1.0, 0.5)):
            store = store.record(spec, q, v)
        store = store.record(spec, qs[2], 1.0)  # a repeat moves nothing
        assert list(store.items()) == list(zip(qs, (2, 0, 2, 1)))

    def test_same_value_twice_is_a_noop(self):
        spec = hotel_spec()
        q = Question("rel", ("HNY",))
        store = KnownStore().record(spec, q, 0.5)
        assert store.record(spec, q, 0.5) is store

    def test_conflicting_value_rejected(self):
        spec = hotel_spec()
        q = Question("rel", ("HNY",))
        store = KnownStore().record(spec, q, 0.5)
        with pytest.raises(ValidationError):
            store.record(spec, q, 1.0)

    def test_off_grid_value_rejected(self):
        spec = hotel_spec()
        with pytest.raises(ValidationError):
            KnownStore().record(spec, Question("rel", ("HNY",)), 0.3)

    def test_symmetric_question_reaches_same_slot(self):
        spec = hotel_spec()
        store = KnownStore().record(spec, Question("div", ("b", "a")), 1.0)
        assert store.get(Question("div", ("a", "b"))) == 2


class TestCandidate:
    def test_members_sorted(self):
        assert Candidate(0, ("MLN", "HNY")).members == ("HNY", "MLN")

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValidationError):
            Candidate(0, ("a", "a"))
        with pytest.raises(ValidationError):
            Candidate(0, ())


class TestQuestionsOf:
    def test_three_member_candidate_has_six_questions(self, f1):
        qs = questions_of(f1.candidates[0], f1.spec)
        assert len(qs) == 6
        assert sum(q.construct == "rel" for q in qs) == 3
        assert sum(q.construct == "div" for q in qs) == 3

    def test_unary_only_single_member(self):
        spec = ScoringSpec((Construct("rel", 1),))
        qs = questions_of(Candidate(0, ("A",)), spec)
        assert qs == (Question("rel", ("A",)),)

    def test_four_members_give_ten_questions(self):
        qs = questions_of(Candidate(0, ("A", "B", "C", "D")), hotel_spec())
        assert len(qs) == 10

    def test_arity_three_unsupported(self):
        with pytest.raises(ValidationError, match="arity 3 are not supported"):
            ScoringSpec((Construct("trio", 3),))


class TestQuestionUniverse:
    def test_hotel_universe_has_twelve_questions(self, f1):
        universe = question_universe(f1.spec, f1.candidates)
        assert len(universe) == 12
        assert sum(q.construct == "rel" for q in universe) == 5
        # Only pairs that co-occur inside some candidate are instantiated;
        # HYN and WLD never appear together.
        assert Question("div", ("HYN", "WLD")) not in universe

    def test_order_is_independent_of_candidate_order(self, f1):
        reordered = tuple(reversed(f1.candidates))
        assert question_universe(f1.spec, f1.candidates) == \
            question_universe(f1.spec, reordered)

    def test_no_candidates_rejected(self, f1):
        with pytest.raises(ValidationError):
            question_universe(f1.spec, ())


class TestUnknownQuestions:
    def test_hotel_unknowns(self, f1):
        universe = question_universe(f1.spec, f1.candidates)
        unknown = unknown_questions(universe, f1.knowns)
        assert set(unknown) == {
            Question("rel", ("HNY",)),
            Question("div", ("MLN", "HYN")),
            Question("div", ("MLN", "SHN")),
            Question("div", ("MLN", "WLD")),
        }

    def test_empty_store_leaves_all_open(self, f1):
        universe = question_universe(f1.spec, f1.candidates)
        assert unknown_questions(universe, KnownStore()) == universe

    def test_full_store_leaves_none(self, f1):
        universe = question_universe(f1.spec, f1.candidates)
        store = KnownStore()
        for q in universe:
            store = store.record(f1.spec, q, 0.0)
        assert unknown_questions(universe, store) == ()


class TestProblem:
    def test_rejects_duplicate_entities(self, f1):
        with pytest.raises(ValidationError):
            Problem(("A", "A"), f1.spec, 1, (Candidate(0, ("A",)),))

    def test_rejects_k_larger_than_pool(self, f1):
        with pytest.raises(ValidationError):
            Problem(("A",), f1.spec, 2, ())

    def test_rejects_wrong_size_candidate(self, f1):
        with pytest.raises(ValidationError):
            Problem(("A", "B"), f1.spec, 2, (Candidate(0, ("A",)),))

    def test_rejects_index_other_than_position(self, f1):
        with pytest.raises(ValidationError, match="position"):
            dataclasses.replace(f1, candidates=f1.candidates[1:])

    def test_rejects_foreign_member(self, f1):
        with pytest.raises(ValidationError):
            Problem(("A", "B"), f1.spec, 1, (Candidate(0, ("C",)),))

    def test_rejects_off_grid_ground_truth(self, f1):
        with pytest.raises(ValidationError):
            Problem(("A",), f1.spec, 1, (Candidate(0, ("A",)),),
                    ground_truth={Question("rel", ("A",)): 0.3})
