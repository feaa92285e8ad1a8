"""Lattice pdfs and the P(A >= B) primitive: linear, naive and closed form."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkset import (DiscretePdf, geq_probability, geq_probability_naive,
                     point_mass, uniform_pdf)
from topkset.distributions import geq_count


class TestDiscretePdf:
    def test_support_points(self):
        pdf = DiscretePdf(5, (0.25, 0.25, 0.5))
        assert pdf.support() == (5, 6, 7)
        assert len(pdf) == 3

    def test_prefix_sums_end_at_one(self):
        pdf = uniform_pdf(0, 2)
        sums = pdf.prefix_sums()
        assert sums[-1] == pytest.approx(1.0)
        assert all(a <= b for a, b in zip(sums, sums[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscretePdf(0, ())
        with pytest.raises(ValueError):
            DiscretePdf(0, (0.7, 0.2))
        with pytest.raises(ValueError):
            DiscretePdf(0, (1.5, -0.5))


def test_uniform_pdf_splits_mass_evenly():
    pdf = uniform_pdf(5, 7)
    assert pdf.masses == (1 / 3, 1 / 3, 1 / 3)
    assert pdf.support() == (5, 6, 7)


def test_point_mass_has_single_support():
    pdf = point_mass(3)
    assert pdf.masses == (1.0,)
    assert pdf.support() == (3,)


class TestGeqProbability:
    def test_hotel_eliminated_pair_is_exactly_one_ninth(self):
        """The single overlapping grid point contributes (1/3)*(1/3).

        In quanta of 1/2: [2.5, 3.5] is 5..7 and [3.5, 4.5] is 7..9.
        """
        low = uniform_pdf(5, 7)
        high = uniform_pdf(7, 9)
        assert geq_probability(low, high) == 1 / 9

    def test_self_comparison_counts_ties_fully(self):
        pdf = uniform_pdf(0, 2)
        # 6 of the 9 ordered pairs satisfy a >= b.
        assert geq_probability(pdf, pdf) == pytest.approx(2 / 3)

    def test_separated_supports_are_certain(self):
        low = uniform_pdf(0, 2)
        high = uniform_pdf(4, 6)
        assert geq_probability(low, high) == 0.0
        assert geq_probability(high, low) == 1.0

    def test_point_against_uniform(self):
        pdf = uniform_pdf(0, 2)
        assert geq_probability(point_mass(2), pdf) == pytest.approx(1.0)
        assert geq_probability(point_mass(1), pdf) == pytest.approx(2 / 3)
        assert geq_probability(pdf, point_mass(0)) == pytest.approx(1.0)


@settings(deadline=None, max_examples=120)
@given(st.integers(0, 8), st.integers(1, 9), st.integers(0, 8),
       st.integers(1, 9))
def test_linear_walk_matches_naive_double_sum(lo_a, n_a, lo_b, n_b):
    """Both evaluation orders and the closed-form pair count compute the
    same joint mass."""
    a = uniform_pdf(lo_a, lo_a + n_a)
    b = uniform_pdf(lo_b, lo_b + n_b)
    naive = geq_probability_naive(a, b)
    assert geq_probability(a, b) == pytest.approx(naive, abs=1e-12)
    pairs = geq_count(lo_a, lo_a + n_a, lo_b, lo_b + n_b)
    assert pairs / (len(a) * len(b)) == pytest.approx(naive, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 8), st.integers(1, 9), st.integers(0, 8),
       st.integers(1, 9))
def test_geq_and_reverse_overlap_by_exactly_the_tie_mass(lo_a, n_a, lo_b, n_b):
    a = uniform_pdf(lo_a, lo_a + n_a)
    b = uniform_pdf(lo_b, lo_b + n_b)
    tie = sum(ma * b.masses[n - b.origin]
              for n, ma in zip(a.support(), a.masses) if n in b.support())
    total = geq_probability(a, b) + geq_probability(b, a)
    assert total == pytest.approx(1.0 + tie, abs=1e-12)


def test_geq_count_equals_the_brute_force_pair_count():
    """Every interval pair with endpoints in [-3, 3]: points, disjoint,
    nested and partly overlapping ranges."""
    ends = [(lo, hi) for lo, hi in itertools.product(range(-3, 4), repeat=2)
            if lo <= hi]
    for (a_lo, a_hi), (b_lo, b_hi) in itertools.product(ends, repeat=2):
        pairs = sum(x >= y for x in range(a_lo, a_hi + 1)
                    for y in range(b_lo, b_hi + 1))
        assert geq_count(a_lo, a_hi, b_lo, b_hi) == pairs, (a_lo, a_hi,
                                                            b_lo, b_hi)
