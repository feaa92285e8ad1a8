"""Candidate score intervals from partial knowledge, and dominance tests.

A candidate's lower bound assumes every unknown construct scores the range
minimum; the upper bound assumes the maximum. Comparing two candidates
first fixes their shared unknown questions to the minimum score for both
sides, which removes terms that would move both totals in lockstep and
can therefore never decide the comparison.

Every bound, cut and comparison here is an exact integer count of the
spec's quantum (see `ScoringSpec`).

`score_bounds`, `eliminated_bounds` and `dominates` are the per-pair
reference definitions. `Incidence` is the solve loop's state: it holds
the same quantities for a whole candidate list as arrays, built from the
known answers and narrowed in place as each new answer is folded in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .model import (Candidate, KnownStore, Question, ScoringSpec,
                    ValidationError, arg_tuples, lattice_floats, questions_of)


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
    """The solve's state over one candidate list, as arrays in quanta.

    Row i is the candidate at position i. Column j is the key `keys[j]`, a
    `(construct, args)` pair in `question_universe` order; `question(j)`
    builds its `Question`, and the boolean `members[i, j]` says whether
    it adds to row i's score. `lo` and `hi` hold every candidate's
    `score_bounds` and `unknown` the unanswered columns. `rows` lists the
    live rows in ascending order (all of them at build), `dropped` the
    rest, and `cut[a, b]` is the `elimination_cut` of live rows `rows[a]`
    and `rows[b]`. All are built from `knowns`, narrowed in place by
    `fold`, and always equal to their per-pair reference. The diagonal
    cut[a, a] sums row `rows[a]`'s own open spans, hi - lo.
    """

    def __init__(self, candidates: Sequence[Candidate], spec: ScoringSpec,
                 knowns: KnownStore):
        if not candidates:
            raise ValidationError("no candidates")
        rows = [[(con.name, args) for con in spec.constructs
                 for args in arg_tuples(con, c.members)] for c in candidates]
        order = {con.name: r for r, con in enumerate(spec.constructs)}
        self.keys = sorted({key for row in rows for key in row},
                           key=lambda key: (order[key[0]], key[1]))
        position = {key: j for j, key in enumerate(self.keys)}
        self.members = np.zeros((len(candidates), len(self.keys)),
                                dtype=bool)
        self.members[[i for i, row in enumerate(rows) for _ in row],
                     [position[key] for row in rows for key in row]] = True
        names = [name for name, _ in self.keys]
        low = np.array([spec.low[n] for n in names], dtype=np.int64)
        self.rise = np.array([spec.rise[n] for n in names], dtype=np.int64)
        self.span = np.array([spec.span(n) for n in names], dtype=np.int64)
        index = np.full(len(self.keys), -1, dtype=np.int64)
        for q, i in knowns.items():
            j = position.get((q.construct, q.args))
            if j is not None:
                index[j] = i
        self.unknown = index < 0
        value = low + index * self.rise
        self.lo = self.members @ np.where(self.unknown, low, value)
        self.hi = self.members @ np.where(self.unknown, low + self.span, value)
        open_ = self.members[:, self.unknown]
        self.cut = (open_ * self.span[self.unknown]) @ open_.T
        self.rows = np.arange(len(candidates))
        self.dropped: tuple[int, ...] = ()

    def question(self, j: int) -> Question:
        """The question of column j."""
        return Question(*self.keys[j])

    def drop(self, keep: np.ndarray) -> None:
        """Remove the live rows where the mask `keep` (over `rows`) is
        False from `rows` and `cut`; their bounds stay and keep narrowing."""
        self.dropped = tuple(sorted(self.dropped
                                    + tuple(self.rows[~keep].tolist())))
        self.rows = self.rows[keep]
        self.cut = self.cut[keep][:, keep]

    def fold(self, j: int, index: int) -> None:
        """Fold the answer `index` (a grid index) to open column j into
        `lo`, `hi`, `unknown` and `cut`, in place.

        Afterwards they equal the state built with j answered: the bounds
        of every row containing j change, the cuts only among live rows.
        """
        rows = np.flatnonzero(self.members[:, j])
        self.lo[rows] += index * self.rise[j]
        self.hi[rows] += index * self.rise[j] - self.span[j]
        live = np.flatnonzero(self.members[self.rows, j])
        self.cut[live[:, None], live] -= self.span[j]
        self.unknown[j] = False


def prune_and_prove(lo: np.ndarray, hi: np.ndarray,
                    cut: np.ndarray) -> tuple[np.ndarray, Optional[int]]:
    """Pruning and the winner check from one margin matrix.

    gap[a, b] = lo[a] - (hi[b] - cut[a, b]) is `dominates(a, b)`'s margin:
    a weakly dominates b when gap[a, b] >= 0 and strictly when > 0.
    Returns the mask of rows that no other row strictly dominates (no
    gap > 0 in the column) and the lowest row that weakly dominates every
    other row (no gap < 0 in the row), or None. `lo`, `hi` and `cut` are
    `Incidence` arrays over the same rows, so cut[a, a] = hi[a] - lo[a]
    and the diagonal gap[a, a] = 0 neither prunes nor blocks a row.

    Pruning never changes that row, so it is the same whether the check
    runs before pruning or on the survivors. Proof: cut[r, s] sums the
    spans of the open questions r and s share, and cut[s, s] those of all
    of s's. In cut[r, s] + cut[s, q] each open question of s counts at
    most twice, and twice only when r and q share it too. Every span is
    >= 0, so this inclusion-exclusion gives
    cut[r, s] + cut[s, q] <= cut[s, s] + cut[r, q]. If r weakly dominates
    s and s strictly dominates q, then

        lo[r] >= hi[s] - cut[r, s] >= lo[s] + cut[s, q] - cut[r, q]
              > hi[q] - cut[r, q],

    so r strictly dominates q; with q = r this would read
    lo[r] > hi[r] - cut[r, r] = lo[r], which is impossible.
    Hence strict dominance has no cycles, and following strict dominators
    from a pruned row ends at a survivor that strictly dominates it. A row
    r that weakly dominates every other row survives, since any s that
    strictly dominated it would make r strictly dominate itself. And a
    survivor that weakly dominates every other survivor weakly dominates
    each pruned row too, through that row's surviving dominator. So the
    first weak dominator of all rows is a survivor, and it is the first
    weak dominator of the survivors.

    Among rows tied at the top the winner need not be the lowest tied
    row: a tied row whose bounds are still open does not dominate yet.
    """
    gap = lo[:, None] - (hi[None, :] - cut)
    winners = np.flatnonzero(gap.min(axis=1) >= 0)
    return gap.max(axis=0) <= 0, (int(winners[0]) if len(winners) else None)
