"""Candidate score intervals from partial knowledge, and dominance tests.

A candidate's lower bound assumes every unknown construct scores the range
minimum; the upper bound assumes the maximum. Comparing two candidates
first fixes their shared unknown questions to the minimum score for both
sides, which removes terms that would move both totals in lockstep and
can therefore never decide the comparison.

`score_bounds`, `eliminated_bounds` and `dominates` are the per-pair
reference definitions. `Incidence` computes the same quantities for a
whole candidate list at once, as arrays, and is what the solve loop uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (Candidate, KnownStore, Question, ScoringSpec,
                    question_universe, questions_of)


@dataclass(frozen=True)
class Interval:
    lb: float
    ub: float

    def __post_init__(self):
        if self.lb > self.ub:
            raise ValueError(f"invalid interval ({self.lb}, {self.ub})")

    @property
    def width(self) -> float:
        return self.ub - self.lb

    def contains(self, other: "Interval") -> bool:
        return self.lb <= other.lb and other.ub <= self.ub


def score_bounds(c: Candidate, spec: ScoringSpec, knowns: KnownStore) -> Interval:
    """Tightest interval containing c's total score given the known answers.

    With every question answered the interval collapses to the exact score.
    """
    lb = ub = 0.0
    for q in questions_of(c, spec):
        w = spec.construct_named(q.construct).weight
        v = knowns.get(q)
        if v is None:
            lb += w * spec.min_score
            ub += w * spec.max_score
        else:
            lb += w * v
            ub += w * v
    return Interval(lb, ub)


def shared_unknowns(ca: Candidate, cb: Candidate, spec: ScoringSpec,
                    knowns: KnownStore) -> tuple[Question, ...]:
    """Unknown questions contributing to both candidates' scores."""
    qb = set(questions_of(cb, spec))
    return tuple(q for q in questions_of(ca, spec)
                 if q in qb and q not in knowns)


def elimination_cut(shared, spec: ScoringSpec) -> float:
    """Upper-bound reduction from pinning the shared unknowns to the minimum.

    Summed per construct in spec order so the float result does not depend
    on the iteration order of `shared`.
    """
    span = spec.max_score - spec.min_score
    cut = 0.0
    for con in spec.constructs:
        n = sum(1 for q in shared if q.construct == con.name)
        cut += n * con.weight * span
    return cut


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
    return Interval(a.lb, a.ub - cut), Interval(b.lb, b.ub - cut)


def dominates(ca: Candidate, cb: Candidate, spec: ScoringSpec,
              knowns: KnownStore, strict: bool = False) -> bool:
    """Whether ca's score provably reaches cb's under every completion.

    True when ca's eliminated lower bound >= cb's eliminated upper bound
    (> when strict). Weak dominance certifies F(ca) >= F(cb) for every
    assignment of the remaining unknowns; strict certifies cb can never
    win alone, which is what pruning needs.
    """
    ia, ib = eliminated_bounds(ca, cb, spec, knowns)
    return ia.lb > ib.ub if strict else ia.lb >= ib.ub


class Incidence:
    """Candidate × question incidence of one candidate list.

    Row i is the candidate at position i, column j the j-th question of
    `question_universe`. Every result equals its per-pair reference bit
    for bit: floats are added in the reference's order, never through a
    reduction that reorders them.
    """

    def __init__(self, candidates: Sequence[Candidate], spec: ScoringSpec):
        self.spec = spec
        self.questions = question_universe(spec, candidates)
        self.position = {q: j for j, q in enumerate(self.questions)}
        n_q = len(self.questions)
        con_of = {con.name: i for i, con in enumerate(spec.constructs)}
        construct = np.array([con_of[q.construct] for q in self.questions])
        # A trailing zero-weight column pads shorter candidates' rows of
        # `columns`; adding its +0.0 term leaves any sum unchanged.
        self.weight = np.append(
            [spec.constructs[i].weight for i in construct], 0.0)
        rows = [[self.position[q] for q in questions_of(c, spec)]
                for c in candidates]
        width = max(map(len, rows))
        # Each candidate's questions in `questions_of` order, which is the
        # universe order restricted to the candidate.
        self.columns = np.array([r + [n_q] * (width - len(r)) for r in rows])
        self.members = np.zeros((len(candidates), n_q), dtype=bool)
        for i, r in enumerate(rows):
            self.members[i, r] = True
        self.by_construct = [np.flatnonzero(construct == i)
                             for i in range(len(spec.constructs))]

    def bounds(self, knowns: KnownStore
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`score_bounds` of every candidate as (lb, ub), plus the mask of
        universe questions that are still unknown."""
        n_q = len(self.questions)
        known = np.zeros(n_q + 1, dtype=bool)
        value = np.zeros(n_q + 1)
        known[n_q] = True
        for q, v in knowns.items():
            j = self.position.get(q)
            if j is not None:
                known[j] = True
                value[j] = v
        w = self.weight
        lo = np.where(known, w * value, w * self.spec.min_score)
        hi = np.where(known, w * value, w * self.spec.max_score)
        lb = np.zeros(len(self.columns))
        ub = np.zeros(len(self.columns))
        for col in self.columns.T:
            lb += lo[col]
            ub += hi[col]
        return lb, ub, ~known[:n_q]

    def cuts(self, unknown: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """`elimination_cut` of the shared unknowns of every pair of `rows`.

        Shared unknowns are counted per construct as integers, then scaled
        and summed in spec order as the reference does.
        """
        span = self.spec.max_score - self.spec.min_score
        open_ = self.members[rows] & unknown
        cut = np.zeros((len(rows), len(rows)))
        for con, cols in zip(self.spec.constructs, self.by_construct):
            u = open_[:, cols].astype(np.int64)
            cut += (u @ u.T) * con.weight * span
        return cut


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
