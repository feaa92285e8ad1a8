"""Next-question selection: entropy, question scoring and the two policies.

The driver policy targets the currently most probable candidate and asks
the question that most separates its winner probability from the rest;
the random policy draws uniformly from the open questions.
"""

from __future__ import annotations

import math
import random
from typing import Sequence, TypeVar, Union

from .model import Candidate, Question, ScoringSpec, questions_of

T = TypeVar("T")


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


def select_entrred(unknowns: Sequence[T], probs: Sequence[float],
                   affected: Sequence[Sequence[bool]]) -> T:
    """Highest-scoring open question of the most probable candidate.

    `unknowns` may be any sequence, such as the incidence core's column
    indices that `solve` passes; the result is one of its elements.
    `affected[r][i]` says whether `unknowns[r]` contributes to candidate
    i's score, with candidates in `probs` order; the solve loop reads the
    rows from its incidence core. Each question scores as `qef_score`.

    Ties on probability go to the lowest candidate index; ties on question
    score go to the earliest question in `unknowns` order. When the top
    candidate has no open questions of its own, all open questions are
    considered.
    """
    if not unknowns:
        raise ValueError("no unknown questions to select from")
    top = 0
    for i in range(1, len(probs)):
        if probs[i] > probs[top]:
            top = i
    pool = ([r for r, row in enumerate(affected) if row[top]]
            or range(len(unknowns)))
    best = pool[0]
    best_score = _separation(affected[best], probs)
    for r in pool[1:]:
        s = _separation(affected[r], probs)
        if s > best_score:
            best, best_score = r, s
    return unknowns[best]


def select_random(unknowns: Sequence[T],
                  rng: Union[int, random.Random]) -> T:
    """Uniform draw from `unknowns`, any sequence; reproducible per seed."""
    if not unknowns:
        raise ValueError("no unknown questions to select from")
    if isinstance(rng, int):
        rng = random.Random(rng)
    return unknowns[rng.randrange(len(unknowns))]
