"""Candidate score intervals from partial knowledge, and dominance tests.

A candidate's lower bound assumes every unknown construct scores the range
minimum; the upper bound assumes the maximum. Comparing two candidates
first fixes their shared unknown questions to the minimum score for both
sides, which removes terms that would move both totals in lockstep and
can therefore never decide the comparison.

Every bound, cut and comparison here is an exact integer count of the
spec's quantum (see `ScoringSpec`).

`score_bounds`, `eliminated_bounds` and `dominates` are the per-pair
reference definitions. `Incidence` computes the same quantities for a
whole candidate list at once, as arrays, and is what the solve loop uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .model import (Candidate, KnownStore, Question, ScoringSpec, arg_tuples,
                    lattice_floats, question_universe, questions_of)


@dataclass(frozen=True)
class Interval:
    """Closed score interval [lo, hi] in quanta; `lb` and `ub` report it
    as correctly rounded floats."""

    lo: int
    hi: int
    quantum: Fraction = Fraction(1)

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"invalid interval ({self.lo}, {self.hi})")

    @property
    def lb(self) -> float:
        return lattice_floats(self.lo, self.quantum)

    @property
    def ub(self) -> float:
        return lattice_floats(self.hi, self.quantum)


def score_bounds(c: Candidate, spec: ScoringSpec, knowns: KnownStore) -> Interval:
    """Tightest interval containing c's total score given the known answers.

    With every question answered the interval collapses to the exact score.
    """
    lo = hi = 0
    for q in questions_of(c, spec):
        i = knowns.get(q)
        low = spec.low[q.construct]
        if i is None:
            lo += low
            hi += low + spec.span(q.construct)
        else:
            lo += low + i * spec.rise[q.construct]
            hi += low + i * spec.rise[q.construct]
    return Interval(lo, hi, spec.quantum)


def shared_unknowns(ca: Candidate, cb: Candidate, spec: ScoringSpec,
                    knowns: KnownStore) -> tuple[Question, ...]:
    """Unknown questions contributing to both candidates' scores."""
    qb = set(questions_of(cb, spec))
    return tuple(q for q in questions_of(ca, spec)
                 if q in qb and q not in knowns)


def elimination_cut(shared, spec: ScoringSpec) -> int:
    """Upper-bound reduction, in quanta, from pinning the shared unknowns
    to the minimum."""
    return sum(spec.span(q.construct) for q in shared)


def eliminated_bounds(ca: Candidate, cb: Candidate, spec: ScoringSpec,
                      knowns: KnownStore) -> tuple[Interval, Interval]:
    """Score bounds of ca and cb with their shared unknowns pinned to the minimum.

    Pinning to min_score leaves each lower bound unchanged and shrinks each
    upper bound by weight * (max - min) per shared unknown, so the support
    of the eliminated interval is a prefix of the full one. Shared known
    questions stay in place; they shift both totals equally and cancel in
    any comparison.
    """
    if ca == cb:
        raise ValueError("eliminated_bounds requires distinct candidates")
    cut = elimination_cut(shared_unknowns(ca, cb, spec, knowns), spec)
    a = score_bounds(ca, spec, knowns)
    b = score_bounds(cb, spec, knowns)
    return (Interval(a.lo, a.hi - cut, spec.quantum),
            Interval(b.lo, b.hi - cut, spec.quantum))


def dominates(ca: Candidate, cb: Candidate, spec: ScoringSpec,
              knowns: KnownStore, strict: bool = False) -> bool:
    """Whether ca's score provably reaches cb's under every completion.

    True when ca's eliminated lower bound >= cb's eliminated upper bound
    (> when strict). Weak dominance certifies F(ca) >= F(cb) for every
    assignment of the remaining unknowns; strict certifies cb can never
    win alone, which is what pruning needs.
    """
    ia, ib = eliminated_bounds(ca, cb, spec, knowns)
    return ia.lo > ib.hi if strict else ia.lo >= ib.hi


class Incidence:
    """Candidate × question incidence of one candidate list.

    Row i is the candidate at position i, column j the j-th question of
    `question_universe`. Every result equals its per-pair reference.
    """

    def __init__(self, candidates: Sequence[Candidate], spec: ScoringSpec):
        self.questions = question_universe(spec, candidates)
        # (construct, args) -> column, so rows need no Question.
        self.position = {(q.construct, q.args): j
                         for j, q in enumerate(self.questions)}
        names = [q.construct for q in self.questions]
        self.low = np.array([spec.low[n] for n in names], dtype=np.int64)
        self.rise = np.array([spec.rise[n] for n in names], dtype=np.int64)
        self.span = np.array([spec.span(n) for n in names], dtype=np.int64)
        rows: list[int] = []
        cols: list[int] = []
        for i, c in enumerate(candidates):
            for con in spec.constructs:
                for args in arg_tuples(con, c.members):
                    cols.append(self.position[con.name, args])
            rows.extend([i] * (len(cols) - len(rows)))
        self.members = np.zeros((len(candidates), len(self.questions)),
                                dtype=np.int64)
        self.members[rows, cols] = 1

    def column(self, q: Question) -> Optional[int]:
        """Column of q, or None when no candidate's score involves it."""
        return self.position.get((q.construct, q.args))

    def bounds(self, knowns: KnownStore
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`score_bounds` of every candidate as (lo, hi), plus the mask of
        universe questions that are still unknown."""
        index = np.full(len(self.questions), -1, dtype=np.int64)
        for q, i in knowns.items():
            j = self.column(q)
            if j is not None:
                index[j] = i
        unknown = index < 0
        value = self.low + index * self.rise
        lo = np.where(unknown, self.low, value)
        hi = np.where(unknown, self.low + self.span, value)
        return self.members @ lo, self.members @ hi, unknown

    def cuts(self, unknown: np.ndarray) -> np.ndarray:
        """`elimination_cut` of the shared unknowns of every candidate pair."""
        open_ = self.members * unknown
        return (open_ * self.span) @ open_.T

    def fold(self, j: int, index: int, lo: np.ndarray, hi: np.ndarray,
             unknown: np.ndarray, cut: np.ndarray) -> None:
        """Fold the answer `index` (a grid index) to open column j into
        `bounds` and the all-rows `cuts`, in place.

        Afterwards the arrays equal `bounds` and `cuts` recomputed with j
        answered; only the rows containing j change.
        """
        rows = np.flatnonzero(self.members[:, j])
        lo[rows] += index * self.rise[j]
        hi[rows] += index * self.rise[j] - self.span[j]
        cut[np.ix_(rows, rows)] -= self.span[j]
        unknown[j] = False


def _dominance(lb: np.ndarray, ub: np.ndarray, cut: np.ndarray,
               strict: bool) -> np.ndarray:
    """[a, b] is `dominates(a, b)` on arrays of bounds and pair cuts."""
    rhs = ub[None, :] - cut
    return lb[:, None] > rhs if strict else lb[:, None] >= rhs


def undominated(lb: np.ndarray, ub: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Mask of the candidates no other candidate strictly dominates."""
    dom = _dominance(lb, ub, cut, strict=True)
    np.fill_diagonal(dom, False)
    return ~dom.any(axis=0)


def first_dominator(lb: np.ndarray, ub: np.ndarray,
                    cut: np.ndarray) -> Optional[int]:
    """Lowest row that weakly dominates every other row, if any."""
    dom = _dominance(lb, ub, cut, strict=False)
    np.fill_diagonal(dom, True)
    rows = np.flatnonzero(dom.all(axis=1))
    return int(rows[0]) if len(rows) else None
