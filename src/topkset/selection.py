"""Next-question selection: entropy, question scoring and the two policies.

The driver policy targets the currently most probable candidate and asks
the question that most separates its winner probability from the rest;
the random policy draws uniformly from the open questions.
"""

from __future__ import annotations

import math
import random
from typing import Sequence, Union

from .model import Candidate, Question, ScoringSpec, questions_of


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


def select_entrred(candidates: Sequence[Candidate], probs: Sequence[float],
                   unknowns: Sequence[Question], spec: ScoringSpec) -> Question:
    """Highest-scoring open question of the most probable candidate.

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
    # `qef_score` per question, with each candidate's questions built once.
    touched = [set(questions_of(c, spec)) for c in candidates]
    pool = [q for q in unknowns if q in touched[top]] or list(unknowns)
    best = pool[0]
    best_score = _separation([best in t for t in touched], probs)
    for q in pool[1:]:
        s = _separation([q in t for t in touched], probs)
        if s > best_score:
            best, best_score = q, s
    return best


def select_random(unknowns: Sequence[Question],
                  rng: Union[int, random.Random]) -> Question:
    """Uniform draw from the open questions; reproducible per seed."""
    if not unknowns:
        raise ValueError("no unknown questions to select from")
    if isinstance(rng, int):
        rng = random.Random(rng)
    return unknowns[rng.randrange(len(unknowns))]
