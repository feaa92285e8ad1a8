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
    `score_bounds`, `unknown` the unanswered columns, and `cut[a, b]` the
    `elimination_cut` of rows a and b. Rows are never removed: the live
    ones are read off the margins (`prune_and_prove`). All are built from
    `knowns`, narrowed in place by `fold`, and always equal to their
    per-pair reference. The diagonal cut[a, a] sums row a's own open
    spans, hi - lo, and the build reads `hi` off it.

    The build loops in Python over entities and distinct keys, never over
    candidate x question pairs. Each member entity gets its rank in sorted
    order, and the question of construct r over ranks (x, y), or (y,) when
    unary, is coded as (r * n + x) * n + y with n entities and x = 0 when
    unary. The codes' numeric order is `question_universe` order, so
    `np.unique` of every row's codes yields the sorted keys and each
    row's columns. The cut adds, for each distinct span s among the open
    columns, s times the number of open questions of span s that each
    pair of rows shares. That number is one float64 product of the 0/1
    columns: every partial sum is a whole number no larger than the column
    count, so BLAS returns it exactly for any spec, and the product by s
    is taken in int64.
    """

    def __init__(self, candidates: Sequence[Candidate], spec: ScoringSpec,
                 knowns: KnownStore):
        if not candidates:
            raise ValidationError("no candidates")
        k = len(candidates[0].members)
        for c in candidates:
            if len(c.members) != k:
                raise ValidationError(
                    f"candidate {c.index} has {len(c.members)} members, "
                    f"not {k} like candidate {candidates[0].index}")
        flat = [e for c in candidates for e in c.members]
        entities = sorted(set(flat))
        n = len(entities)
        rank = {e: r for r, e in enumerate(entities)}
        # Column k reads rank 0, the x of a unary question.
        ranks = np.zeros((len(candidates), k + 1), dtype=np.int64)
        ranks[:, :k] = np.fromiter(map(rank.__getitem__, flat), dtype=np.int64,
                                   count=len(flat)).reshape(-1, k)
        # Each question of a row: its construct r and the columns of
        # `ranks` that hold its x and y.
        place_r, place_x, place_y = np.array(
            [(r, *(k,) * (2 - con.arity), *args)
             for r, con in enumerate(spec.constructs)
             for args in arg_tuples(con, range(k))],
            dtype=np.int64).reshape(-1, 3).T
        codes = (place_r * n + ranks[:, place_x]) * n + ranks[:, place_y]
        code, column = np.unique(codes, return_inverse=True)
        self.members = np.zeros((len(codes), len(code)), dtype=bool)
        # np.unique's inverse is flat in some numpy versions.
        np.put_along_axis(self.members, column.reshape(codes.shape), True, 1)
        construct, xy = np.divmod(code, n * n)
        x, y = np.divmod(xy, n)
        name = [con.name for con in spec.constructs]
        arity = [con.arity for con in spec.constructs]
        self.keys = [(name[r], (entities[a], entities[b])[2 - arity[r]:])
                     for r, a, b in zip(construct.tolist(), x.tolist(),
                                        y.tolist())]
        low, self.rise, self.span = np.array(
            [(spec.low[c.name], spec.rise[c.name], spec.span(c.name))
             for c in spec.constructs], dtype=np.int64).T[:, construct]
        position = {key: j for j, key in enumerate(self.keys)}
        index = np.full(len(self.keys), -1, dtype=np.int64)
        for q, i in knowns.items():
            j = position.get((q.construct, q.args))
            if j is not None:
                index[j] = i
        self.unknown = index < 0
        value = low + index * self.rise
        self.lo = self.members @ np.where(self.unknown, low, value)
        # With no open column, span 0 selects no column and the cut is 0.
        for g, s in enumerate(set(self.span[self.unknown].tolist()) or {0}):
            group = self.members[:, self.unknown & (self.span == s)
                                 ].astype(np.float64)
            shared = (group @ group.T).astype(np.int64)
            shared *= s
            if g:
                shared += self.cut
            self.cut = shared
        self.hi = self.lo + np.diagonal(self.cut)

    def question(self, j: int) -> Question:
        """The question of column j."""
        return Question(*self.keys[j])

    def fold(self, j: int, index: int) -> None:
        """Fold the answer `index` (a grid index) to open column j into
        `lo`, `hi`, `unknown` and `cut`, in place.

        Afterwards they equal the state built with j answered: the bounds
        of every row containing j change, and the cuts among those rows.
        """
        rows = np.flatnonzero(self.members[:, j])
        self.lo[rows] += index * self.rise[j]
        self.hi[rows] += index * self.rise[j] - self.span[j]
        self.cut[rows[:, None], rows] -= self.span[j]
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

    An answer never shrinks a margin. Folding the grid index i into an
    open question of rise r and span s >= i * r adds i * r to lo and
    i * r - s to hi of each row that holds it, and takes s off the cut of
    each pair of them. So gap[a, b] grows by i * r when only a holds it,
    by s - i * r when only b does, and stays put otherwise. A pruned row
    therefore stays pruned, every survivor survived the previous pass,
    and each row pruned is strictly dominated by a survivor. So the pass
    over every row gives the same mask and winner as the pass over the
    previous pass's survivors alone.

    Among rows tied at the top the winner need not be the lowest tied
    row: a tied row whose bounds are still open does not dominate yet.
    """
    gap = cut - hi
    gap += lo[:, None]
    winners = np.flatnonzero(gap.min(axis=1) >= 0)
    return gap.max(axis=0) <= 0, (int(winners[0]) if len(winners) else None)
