"""Next-question selection: entropy, question scoring and the two policies.

The driver policy targets the currently most probable candidate and asks
the question that most separates its winner probability from the rest;
the random policy draws uniformly from the open questions.

A question's separation score (`qef_score`) is the sum of |P(c) - P(c')|
over the candidates c it touches and the candidates c' it does not.
`_separation` computes it as the reference, one pair at a time, left to
right. `select_entrred` returns exactly the question that reference loop
would pick, but scores the whole pool at once with one matrix product and
runs the loop only on the questions whose scores the product cannot tell
apart (see its docstring for the error bound).
"""

from __future__ import annotations

import math
import random
from typing import Sequence, TypeVar, Union

import numpy as np

from .model import Candidate, Question, ScoringSpec, questions_of
from .winner import most_probable

T = TypeVar("T")

# Pools with len(pool) * M * M below this go straight to the reference
# loop, which is faster there than the filter's fixed numpy cost. Measured
# on the 611 selections of twelve instances of each benchmark workload
# (Python 3.11, numpy 2.4, one core of a 2-core x86-64 VM): the filter
# takes 25-35 us at M <= 100 whatever the pool, the loop grows with
# len(pool) * M * M, and the two break even near 1000.
_LOOP_MAX_WORK = 1000


def entropy(probs: Sequence[float]) -> float:
    """Shannon entropy in nats; zero-probability terms contribute nothing."""
    h = 0.0
    for p in probs:
        if p < 0:
            raise ValueError("probabilities must be nonnegative")
        if p > 0:
            h -= p * math.log(p)
    return max(h, 0.0)


def qef_score(q: Question, probs: Sequence[float],
              candidates: Sequence[Candidate], spec: ScoringSpec) -> float:
    """Separation power of q: sum of |P(c) - P(c')| over affected c, unaffected c'.

    Zero whenever q touches every candidate or none, since then answering
    it shifts all winner probabilities together.
    """
    return _separation([q in questions_of(c, spec) for c in candidates], probs)


def _separation(affected: Sequence[bool], probs: Sequence[float]) -> float:
    inside = [i for i, hit in enumerate(affected) if hit]
    outside = [i for i, hit in enumerate(affected) if not hit]
    total = 0.0
    for i in inside:
        for j in outside:
            total += abs(probs[i] - probs[j])
    return total


def _first_best(pool: Sequence[int], rows: np.ndarray,
                probs: Sequence[float]) -> int:
    """The row of `pool` with the highest `_separation`; the first on ties."""
    if len(pool) == 1:
        return pool[0]
    scores = [_separation(rows[r].tolist(), probs) for r in pool]
    return pool[scores.index(max(scores))]


def select_entrred(unknowns: Sequence[T], probs: Sequence[float],
                   affected: Union[np.ndarray, Sequence[Sequence[bool]]]) -> T:
    """Highest-scoring open question of the most probable candidate.

    `unknowns` may be any sequence, a numpy array included, such as the
    incidence core's column indices that `solve` passes; the result is
    one of its elements. `affected` is an R x M boolean array (or a list
    of R rows): `affected[r][i]` says whether `unknowns[r]` contributes
    to candidate i's score, with candidates in `probs` order; `solve`
    passes the live rows of its incidence core. Each question scores as
    `qef_score`.

    Ties on probability go to the lowest candidate index; ties on question
    score go to the earliest question in `unknowns` order. When the top
    candidate has no open questions of its own, all open questions are
    considered. The choice is always the one the left-to-right reference
    sum would make, computed as follows.

    Every term d_ij = |p_i - p_j| is one correctly rounded subtraction,
    identical in numpy and Python, and nonnegative. Summing n nonnegative
    terms in any order, with unit roundoff u = 2**-53, gives the exact sum
    S to within a relative error of gamma(n - 1) = (n - 1)u / (1 - (n - 1)u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2).
    The reference adds |I| * |O| <= M**2 / 4 terms, so its score s lies
    within (M**2 / 4)u S of S, up to O(u**2) terms. The filter computes
    g = ((A @ D) * ~A).sum(axis=1) for the pool's rows A: two nested sums
    of M terms each, in whatever order BLAS and numpy add them, so g lies
    within 2Mu S of S. Hence |s - g| <= (M**2 / 4 + 2M)u g (1 + O(M**2 u)).
    The filter keeps each question whose g + tol reaches max(g - tol),
    with tol = 4(M**2 + 2M)u g, at least four times that bound. The
    margin absorbs the O(u**2) terms (valid while M**2 u is small, far
    beyond any M whose M x M distance matrix fits in memory) and the
    rounding of tol and of g +- tol. Underflow in tol: when S < 2**-1022,
    every partial sum is subnormal and so exact, and s = g = S; otherwise
    tol >= 12 * 2**-1075, and its rounding error, at most 2**-1075, stays
    inside the margin. The reference's first maximum therefore always
    survives, and the reference loop, run over the survivors in pool
    order, returns it as their first maximum. When a single question
    survives it is the answer; when every g is 0 every score is exactly 0
    and the first pool question is the answer.

    A single-question pool needs no score. Small pools, with
    len(pool) * M * M below `_LOOP_MAX_WORK`, go straight to the
    reference loop, which is faster there than the numpy calls.
    """
    if len(unknowns) == 0:
        raise ValueError("no unknown questions to select from")
    rows = np.asarray(affected, dtype=bool)
    m = len(probs)
    pool = rows[:, most_probable(probs)].nonzero()[0].tolist()
    if not pool:
        pool = list(range(len(unknowns)))
    if len(pool) == 1 or len(pool) * m * m < _LOOP_MAX_WORK:
        return unknowns[_first_best(pool, rows, probs)]
    p = np.asarray(probs, dtype=np.float64)
    d = np.abs(p[:, None] - p[None, :])
    a = rows[pool]
    g = ((a @ d) * ~a).sum(axis=1).tolist()
    rel = 4 * (m * m + 2 * m) * 2.0 ** -53
    floor = max(s - s * rel for s in g)
    if floor == 0:
        # Every g, and so every score, is exactly 0.
        return unknowns[pool[0]]
    near = [r for r, s in zip(pool, g) if s + s * rel >= floor]
    return unknowns[_first_best(near, rows, probs)]


def select_random(unknowns: Sequence[T],
                  rng: Union[int, random.Random]) -> T:
    """Uniform draw from `unknowns`, any sequence; reproducible per seed."""
    if not unknowns:
        raise ValueError("no unknown questions to select from")
    if isinstance(rng, int):
        rng = random.Random(rng)
    return unknowns[rng.randrange(len(unknowns))]
