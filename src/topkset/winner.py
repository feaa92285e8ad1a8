"""Winner probability estimators: P(c is the true best) for each candidate.

Two estimators share one shape, a product of pairwise beat terms per
candidate followed by normalization:

- prob_ind treats every pairwise comparison on the candidates' full score
  pdfs, ignoring score dependence through shared questions. One pass
  over each unordered pair counts, from the two ranges' overlap, the
  lattice pairs where each side is at least the other: an arithmetic
  series gives one count, and the tie identity
  P(A >= B) + P(B >= A) = 1 + P(A = B) gives the other. Both are exact
  integers over the product of the two support sizes, so the cost per
  pair is constant and does not depend on the grid resolution.
- prob_dep first pins the unknowns shared by each compared pair to the
  range minimum, so terms that would move both scores identically drop
  out of the comparison. Each beat term walks one eliminated pdf against
  the other's cumulative sums (`geq_probability`), so its cost is linear
  in the support sizes and grows with the grid resolution. On candidates
  that share no entities it degenerates to prob_ind.

Both estimators read only the candidates' score bounds and, for
prob_dep, each pair's shared-unknown cut, as the incidence core holds
them (`bounds.Incidence`). brute_force_dist enumerates every grid
completion of the unknowns from (candidates, spec, knowns) and is the
exact reference the estimators are tested against.

Scores, bounds and pdf supports are integer counts of the spec's quantum,
so every comparison between candidate scores is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# perfbench/tracing.py wraps uniform_pdf, geq_probability and
# geq_probability_naive by name on `winner`; no estimator here calls
# geq_probability_naive any more, but keep it importable.
from .distributions import (DiscretePdf, geq_probability,
                            geq_probability_naive, uniform_pdf)
from .model import (Candidate, KnownStore, ScoringSpec, question_universe,
                    questions_of, unknown_questions)

CHUNK = 65_536  # completions per numpy batch in `brute_force_dist`


class CapExceededError(RuntimeError):
    """Exhaustive enumeration would exceed the configured assignment cap."""


@dataclass(frozen=True)
class WinnerDistribution:
    """Normalized winner probabilities aligned with candidate indices.

    `raw` keeps the unnormalized per-candidate products; no trace writes
    them, but tests read them as the exact products.
    """

    probs: tuple[float, ...]
    raw: tuple[float, ...]

    def top_index(self) -> int:
        """Index of the most probable candidate (`most_probable`)."""
        return most_probable(self.probs)


def most_probable(probs: Sequence[float]) -> int:
    """Index of the largest probability; ties go to the lowest index."""
    return probs.index(max(probs))


def normalize(raw: Sequence[float]) -> tuple[float, ...]:
    """Scale raw weights to sum to 1; an all-zero vector becomes uniform."""
    if any(r < 0 for r in raw):
        raise ValueError("raw weights must be nonnegative")
    total = sum(raw)
    if total == 0:
        n = len(raw)
        return (1.0 / n,) * n
    return tuple(r / total for r in raw)


def prob_ind(lo: Sequence[int], hi: Sequence[int]) -> WinnerDistribution:
    """Independence estimate: product of P(c beats c_i) over full pdfs.

    `lo[i]` and `hi[i]` are candidate i's `score_bounds` in quanta, as
    Python ints; the solve loop reads them from its incidence core.

    One inline pass per unordered pair (i, j), i < j. With the overlap
    [a, b] of the two ranges, candidate i's count of pairs (x, y) with
    x >= y is the arithmetic series over the overlap plus all of j's
    n_j values for each x above hi_j. Candidate j's count follows from
    the tie identity: pairs - count + ties, where ties is the overlap's
    length. Each exact count becomes a beat term by one correctly
    rounded division by n_i * n_j. Every candidate's product takes its
    factors in ascending opponent order: i's from j > i in its own
    pass, after those from every earlier candidate's pass.
    """
    spans = [(a, b, b - a + 1) for a, b in zip(lo, hi)]
    m = len(spans)
    raw = [1.0] * m
    for i, (lo_i, hi_i, n_i) in enumerate(spans):
        r = raw[i]
        for j in range(i + 1, m):
            lo_j, hi_j, n_j = spans[j]
            pairs = n_i * n_j
            # Conditional expressions instead of max/min: the builtin
            # calls cost several times more than the arithmetic.
            a = lo_i if lo_i > lo_j else lo_j
            b = hi_i if hi_i < hi_j else hi_j
            if a <= b:
                ties = b - a + 1
                beats = (a + b - 2 * lo_j + 2) * ties // 2
            else:
                ties = beats = 0
            if hi_i > hi_j:
                beats += (hi_i - (lo_i if lo_i > hi_j else hi_j + 1) + 1) * n_j
            r *= beats / pairs
            raw[j] *= (pairs - beats + ties) / pairs
        raw[i] = r
    return WinnerDistribution(normalize(raw), tuple(raw))


def prob_dep(lo: Sequence[int], hi: Sequence[int],
             cut: Sequence[Sequence[int]]) -> WinnerDistribution:
    """Pairwise estimate with shared-unknown elimination.

    `lo[i]` and `hi[i]` are candidate i's `score_bounds` and `cut[i][j]`
    (read for i < j) the `elimination_cut` of candidates i and j's shared
    unknowns, all in quanta, as Python ints; the solve loop reads them
    from its incidence core.

    Each beat term P(c >= c_i) is evaluated on the pair's eliminated pdfs
    by the linear walk of `geq_probability`, and every candidate's
    factors arrive in ascending opponent order. A candidate's eliminated
    pdf depends only on the cut, so each distinct (candidate, cut) pdf is
    built once and serves every opponent with that cut; every pair that
    shares no unknowns uses the full pdfs.
    """
    m = len(lo)
    pdfs: dict[tuple[int, int], DiscretePdf] = {}

    def eliminated(i: int, drop: int) -> DiscretePdf:
        pdf = pdfs.get((i, drop))
        if pdf is None:
            pdf = pdfs[i, drop] = uniform_pdf(lo[i], hi[i] - drop)
        return pdf

    raw = [1.0] * m
    for i in range(m):
        row = cut[i]
        for j in range(i + 1, m):
            pi, pj = eliminated(i, row[j]), eliminated(j, row[j])
            raw[i] *= geq_probability(pi, pj)
            raw[j] *= geq_probability(pj, pi)
    return WinnerDistribution(normalize(raw), tuple(raw))


def brute_force_dist(candidates: Sequence[Candidate], spec: ScoringSpec,
                     knowns: KnownStore,
                     cap: int = 10_000_000) -> WinnerDistribution:
    """Exact winner distribution by enumerating all unknown completions.

    Every grid assignment of the unknown questions is equally likely; per
    assignment the top scorer wins, with exact ties splitting the win
    fractionally. Raises CapExceededError when the assignment count
    exceeds `cap`.
    """
    unknowns = unknown_questions(question_universe(spec, candidates), knowns)
    g, u, m = spec.n_grid_values, len(unknowns), len(candidates)
    total = g ** u
    if total > cap:
        raise CapExceededError(f"{g}^{u} assignments exceed cap {cap}")

    # Scores in quanta: base plus, per unknown, its grid index times rise.
    base = np.zeros(m, dtype=np.int64)
    rise = np.zeros((u, m), dtype=np.int64)
    qpos = {q: r for r, q in enumerate(unknowns)}
    for ci, c in enumerate(candidates):
        for q in questions_of(c, spec):
            i = knowns.get(q)
            base[ci] += spec.low[q.construct]
            if i is not None:
                base[ci] += i * spec.rise[q.construct]
            else:
                rise[qpos[q], ci] += spec.rise[q.construct]

    counts = np.zeros(m)
    powers = g ** np.arange(u - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, CHUNK):
        idx = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % g
        scores = base[None, :] + digits @ rise
        tied = scores == scores.max(axis=1, keepdims=True)
        counts += (tied / tied.sum(axis=1, keepdims=True)).sum(axis=0)

    raw = tuple(float(x) for x in counts)
    return WinnerDistribution(normalize(raw), raw)
