"""Winner distributions: lattice pdfs, the estimators and their entropy.

Scores, bounds and pdf supports are integer counts of the spec's quantum,
so every comparison between candidate scores is exact. A partially known
score is a uniform pdf over the lattice points of its bound interval
(`uniform_pdf`), and P(A >= B) is an integer index computation on that
lattice (`geq_probability`). Two estimators give P(c is the true best)
for each candidate, a product of pairwise beat terms per candidate
followed by normalization, and `entropy` measures the result:

- prob_ind compares the candidates' full score pdfs, ignoring score
  dependence through shared questions. Its beat terms are exact pair
  counts over a table of the distinct spans, so none depends on the grid
  resolution, and its cost stays quadratic in the candidate count.
- prob_dep first pins the unknowns shared by each compared pair to the
  range minimum, so terms that would move both scores identically drop
  out of the comparison. Its beat terms walk the eliminated pdfs
  (`geq_probability`), so its cost grows with the grid resolution. On
  candidates that share no entities it degenerates to prob_ind.

Both estimators read only the candidates' score bounds and, for
prob_dep, each pair's shared-unknown cut, as the incidence core holds
them (`bounds.Incidence`). brute_force_dist enumerates every grid
completion of the unknowns from (candidates, spec, knowns) and is the
exact reference the estimators are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (Candidate, KnownStore, ScoringSpec, question_universe,
                    questions_of, unknown_questions)

CHUNK = 65_536  # completions per numpy batch in `brute_force_dist`
_MASS_TOL = 1e-9


class CapExceededError(RuntimeError):
    """Exhaustive enumeration would exceed the configured assignment cap."""


@dataclass(frozen=True)
class DiscretePdf:
    """Probability masses on consecutive lattice points.

    Support point i sits at origin + i quanta. Masses must sum to 1.
    """

    origin: int
    masses: tuple[float, ...]

    def __post_init__(self):
        if not self.masses:
            raise ValueError("pdf needs at least one support point")
        if any(m < 0 for m in self.masses):
            raise ValueError("masses must be nonnegative")
        if abs(sum(self.masses) - 1.0) > _MASS_TOL:
            raise ValueError(f"masses sum to {sum(self.masses)}, not 1")

    def __len__(self) -> int:
        return len(self.masses)

    def prefix_sums(self) -> tuple[float, ...]:
        """Cumulative masses; entry i is P(value <= origin + i)."""
        out = []
        acc = 0.0
        for m in self.masses:
            acc += m
            out.append(acc)
        return tuple(out)


def uniform_pdf(lo: int, hi: int) -> DiscretePdf:
    """Uniform pdf over the lattice points lo..hi (quanta, lo <= hi)."""
    m = hi - lo + 1
    return DiscretePdf(lo, (1.0 / m,) * m)


def geq_probability(a: DiscretePdf, b: DiscretePdf) -> float:
    """P(A >= B) for independent A ~ a, B ~ b on the lattice.

    Linear in the support sizes: walks a's masses against b's cumulative
    sums.
    """
    off = a.origin - b.origin
    cdf_b = b.prefix_sums()
    last = len(b) - 1
    total = 0.0
    for i, mass in enumerate(a.masses):
        j = i + off
        if j < 0:
            continue
        total += mass * cdf_b[min(j, last)]
    return total


def geq_probability_naive(a: DiscretePdf, b: DiscretePdf) -> float:
    """Reference double sum over all support pairs; quadratic.

    No estimator calls it: it is the reference that tests hold
    `geq_probability` to.
    """
    off = a.origin - b.origin
    total = 0.0
    for i, ma in enumerate(a.masses):
        for j, mb in enumerate(b.masses):
            if i + off >= j:
                total += ma * mb
    return total


@dataclass(frozen=True)
class WinnerDistribution:
    """Normalized winner probabilities aligned with candidate indices."""

    probs: tuple[float, ...]


def most_probable(probs: Sequence[float]) -> int:
    """Index of the largest probability; ties go to the lowest index."""
    return probs.index(max(probs))


def normalize(raw: Sequence[float]) -> tuple[float, ...]:
    """Scale raw weights to sum to 1; an all-zero vector becomes uniform."""
    if not raw:
        raise ValueError("empty candidate list: no weights to normalize")
    if any(r < 0 for r in raw):
        raise ValueError("raw weights must be nonnegative")
    total = sum(raw)
    if total == 0:
        n = len(raw)
        return (1.0 / n,) * n
    return tuple(r / total for r in raw)


def entropy(probs: Sequence[float]) -> float:
    """Shannon entropy in nats; zero-probability terms contribute nothing."""
    h = 0.0
    for p in probs:
        if p < 0:
            raise ValueError("probabilities must be nonnegative")
        if p > 0:
            h -= p * math.log(p)
    return max(h, 0.0)


def prob_ind(lo: Sequence[int], hi: Sequence[int]) -> WinnerDistribution:
    """Independence estimate: product of P(c beats c_i) over full pdfs.

    `lo[i]` and `hi[i]` are candidate i's `score_bounds` in quanta, as
    Python ints; the solve loop reads them from its incidence core.

    Each distinct span (lo, hi) gets a class id in order of first
    appearance, and a D x D table `beat`, D the number of distinct spans,
    holds beat[x][y] = P(X >= Y) for spans x and y. It is filled once per
    unordered class pair x <= y. With the overlap [a, b] of the two
    ranges, x's count of pairs (X, Y) with X >= Y is the arithmetic
    series over the overlap plus all of y's n_y values for each X above
    hi_y. y's count follows from the tie identity: pairs - count + ties,
    where ties is the overlap's length. Each exact count becomes a term
    by one correctly rounded division by n_x * n_y, so a term is the
    same float whichever side its count came from.

    The pair loop then multiplies one table term into each side of every
    unordered candidate pair (i, j), i < j: the cost stays quadratic in
    the candidate count, and only the counting scales with D. Every
    candidate's product takes its factors in ascending opponent order:
    i's from j > i in its own pass, after those from every earlier
    candidate's pass.

    Raises ValueError for an empty candidate list, for `lo` and `hi` of
    different lengths or for a span with lo > hi.
    """
    if len(lo) != len(hi):
        raise ValueError(f"lo and hi have {len(lo)} and {len(hi)} entries")
    classes: dict[tuple[int, int], int] = {}
    ids = [classes.setdefault(span, len(classes)) for span in zip(lo, hi)]
    spans = list(classes)
    for lo_x, hi_x in spans:
        if lo_x > hi_x:
            raise ValueError(f"inverted span: lo {lo_x} > hi {hi_x}")
    d = len(spans)
    beat = [[0.0] * d for _ in range(d)]
    for x, (lo_x, hi_x) in enumerate(spans):
        n_x = hi_x - lo_x + 1
        row = beat[x]
        for y in range(x, d):
            lo_y, hi_y = spans[y]
            n_y = hi_y - lo_y + 1
            pairs = n_x * n_y
            # Conditional expressions instead of max/min: the builtin
            # calls cost several times more than the arithmetic, and with
            # every span distinct the table has M^2 / 2 entries.
            a = lo_x if lo_x > lo_y else lo_y
            b = hi_x if hi_x < hi_y else hi_y
            if a <= b:
                ties = b - a + 1
                beats = (a + b - 2 * lo_y + 2) * ties // 2
            else:
                ties = beats = 0
            if hi_x > hi_y:
                beats += (hi_x - (lo_x if lo_x > hi_y else hi_y + 1) + 1) * n_y
            row[y] = beats / pairs
            beat[y][x] = (pairs - beats + ties) / pairs
    raw = [1.0] * len(ids)
    for i, ci in enumerate(ids):
        row, r = beat[ci], raw[i]
        for j in range(i + 1, len(ids)):
            cj = ids[j]
            r *= row[cj]
            raw[j] *= beat[cj][ci]
        raw[i] = r
    return WinnerDistribution(normalize(raw))


def prob_dep(lo: Sequence[int], hi: Sequence[int],
             cut: np.ndarray) -> WinnerDistribution:
    """Pairwise estimate with shared-unknown elimination.

    `lo[i]` and `hi[i]` are candidate i's `score_bounds` as Python ints,
    and `cut` is the incidence core's M x M int64 array of pair cuts:
    `cut[i, j]` (read for i < j) is the `elimination_cut` of candidates i
    and j's shared unknowns, all in quanta. Each row becomes Python ints
    as its pass begins (`cut[i].tolist()`), so the walk reads no numpy
    scalars and no M x M copy of the cut is ever made.

    Each beat term P(c >= c_i) is evaluated on the pair's eliminated pdfs
    by the linear walk of `geq_probability`, and every candidate's
    factors arrive in ascending opponent order. A candidate's eliminated
    pdf depends only on the cut, so each distinct (candidate, cut) pdf is
    built once and serves every opponent with that cut; every pair that
    shares no unknowns uses the full pdfs.

    Raises ValueError for an empty candidate list, inputs of different
    lengths, a span with lo > hi or a cut with hi - cut < lo.
    """
    m = len(lo)
    if not m == len(hi) == len(cut):
        raise ValueError(f"lo, hi and cut have {m}, {len(hi)} and "
                         f"{len(cut)} entries")
    for lo_i, hi_i in zip(lo, hi):
        if lo_i > hi_i:
            raise ValueError(f"inverted span: lo {lo_i} > hi {hi_i}")
    pdfs: dict[tuple[int, int], DiscretePdf] = {}

    def eliminated(i: int, drop: int) -> DiscretePdf:
        pdf = pdfs.get((i, drop))
        if pdf is None:
            if hi[i] - drop < lo[i]:
                raise ValueError(f"cut {drop} empties candidate {i}'s span "
                                 f"[{lo[i]}, {hi[i]}]")
            pdf = pdfs[i, drop] = uniform_pdf(lo[i], hi[i] - drop)
        return pdf

    raw = [1.0] * m
    for i in range(m):
        row = cut[i].tolist()
        for j in range(i + 1, m):
            pi, pj = eliminated(i, row[j]), eliminated(j, row[j])
            raw[i] *= geq_probability(pi, pj)
            raw[j] *= geq_probability(pj, pi)
    return WinnerDistribution(normalize(raw))


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
    g, u, m = spec.steps + 1, len(unknowns), len(candidates)
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

    return WinnerDistribution(normalize(counts.tolist()))
