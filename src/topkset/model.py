"""Core domain vocabulary: entities, constructs, questions, candidates.

A scoring function decomposes into weighted constructs (unary relevance,
binary diversity and the like). Each instantiated construct is a question
whose numeric score an oracle can supply. A candidate is a size-k entity
set; its total score is the aggregate of its construct scores, some of
which may still be unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

EntityId = str

GRID_TOL = 1e-9


class ValidationError(ValueError):
    """Raised when inputs violate a structural constraint."""


@dataclass(frozen=True)
class Construct:
    """One component of the scoring function, e.g. rel (arity 1) or div (arity 2)."""

    name: str
    arity: int
    weight: float = 1.0
    definition: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValidationError("construct name must be nonempty")
        if self.arity < 1:
            raise ValidationError(f"construct {self.name}: arity must be >= 1")
        if self.weight < 0:
            raise ValidationError(f"construct {self.name}: weight must be >= 0")


@dataclass(frozen=True)
class ScoringSpec:
    """Decomposable scoring function: constructs, response range and score grid."""

    constructs: tuple[Construct, ...]
    min_score: float = 0.0
    max_score: float = 1.0
    grid_step: float = 0.5
    aggregation: str = "sum"

    def __post_init__(self):
        if not self.constructs:
            raise ValidationError("at least one construct required")
        names = [c.name for c in self.constructs]
        if len(set(names)) != len(names):
            raise ValidationError("construct names must be unique")
        if self.aggregation != "sum":
            raise ValidationError(f"unsupported aggregation {self.aggregation!r}")
        if not self.min_score < self.max_score:
            raise ValidationError("min_score must be < max_score")
        if self.grid_step <= 0:
            raise ValidationError("grid_step must be positive")
        span = (self.max_score - self.min_score) / self.grid_step
        if abs(span - round(span)) > GRID_TOL:
            raise ValidationError("grid_step must divide the score range exactly")

    @property
    def n_grid_values(self) -> int:
        return round((self.max_score - self.min_score) / self.grid_step) + 1

    def grid_values(self) -> tuple[float, ...]:
        return tuple(self.min_score + i * self.grid_step
                     for i in range(self.n_grid_values))

    def is_on_grid(self, v: float) -> bool:
        if not (self.min_score - GRID_TOL <= v <= self.max_score + GRID_TOL):
            return False
        k = (v - self.min_score) / self.grid_step
        return abs(k - round(k)) <= GRID_TOL

    def construct_named(self, name: str) -> Construct:
        for c in self.constructs:
            if c.name == name:
                return c
        raise ValidationError(f"unknown construct {name!r}")

    def construct_index(self, name: str) -> int:
        for i, c in enumerate(self.constructs):
            if c.name == name:
                return i
        raise ValidationError(f"unknown construct {name!r}")


@dataclass(frozen=True)
class Question:
    """An instantiated construct awaiting a score.

    Binary questions are symmetric: args are stored in sorted order, so
    Question("div", ("b", "a")) and Question("div", ("a", "b")) compare and
    hash equal.
    """

    construct: str
    args: tuple[EntityId, ...]

    def __post_init__(self):
        if not self.args or any(not a for a in self.args):
            raise ValidationError("question args must be nonempty entity ids")
        if len(self.args) == 2:
            object.__setattr__(self, "args", tuple(sorted(self.args)))
        if len(set(self.args)) != len(self.args):
            raise ValidationError("question args must be distinct")

    def __str__(self) -> str:
        return f"{self.construct}({', '.join(self.args)})"


class KnownStore:
    """Immutable map from answered questions to their grid score values."""

    __slots__ = ("_answers",)

    def __init__(self, answers: Optional[Mapping[Question, float]] = None):
        self._answers: dict[Question, float] = dict(answers or {})

    def record(self, spec: ScoringSpec, q: Question, v: float) -> "KnownStore":
        """Return a new store with q answered as v.

        Recording the same value twice is a no-op; a different value for an
        already answered question is rejected, since oracle responses are
        final.
        """
        if not spec.is_on_grid(v):
            raise ValidationError(
                f"response {v} for {q} is off-grid for step {spec.grid_step} "
                f"in [{spec.min_score}, {spec.max_score}]")
        if q in self._answers:
            if self._answers[q] != v:
                raise ValidationError(
                    f"conflicting response for {q}: had {self._answers[q]}, got {v}")
            return self
        merged = dict(self._answers)
        merged[q] = v
        return KnownStore(merged)

    def get(self, q: Question) -> Optional[float]:
        return self._answers.get(q)

    def __contains__(self, q: Question) -> bool:
        return q in self._answers

    def __len__(self) -> int:
        return len(self._answers)

    def items(self) -> Iterator[tuple[Question, float]]:
        return iter(self._answers.items())


@dataclass(frozen=True)
class Candidate:
    """A size-k entity set that may be the query answer.

    `index` is the candidate's stable position in the problem's candidate
    list; ties between candidates are always broken toward the lower index.
    """

    index: int
    members: tuple[EntityId, ...]

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise ValidationError("candidate members must be distinct")
        if not self.members:
            raise ValidationError("candidate must have at least one member")
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    @property
    def member_set(self) -> frozenset:
        return frozenset(self.members)


@dataclass(frozen=True)
class Problem:
    """A full query instance: entities, scoring spec, candidates and state.

    `knowns` holds the initially revealed scores; `ground_truth` backs a
    simulated oracle and must cover every question the engine may ask.
    `query_text` is carried verbatim into oracle prompts and never enters
    any numeric computation.
    """

    entities: tuple[EntityId, ...]
    spec: ScoringSpec
    k: int
    candidates: tuple[Candidate, ...]
    knowns: KnownStore = field(default_factory=KnownStore)
    ground_truth: Optional[Mapping[Question, float]] = None
    query_text: str = ""

    def __post_init__(self):
        if len(set(self.entities)) != len(self.entities):
            raise ValidationError("duplicate entity ids")
        if self.k > len(self.entities):
            raise ValidationError("k exceeds entity count")
        pool = set(self.entities)
        for position, c in enumerate(self.candidates):
            if c.index != position:
                raise ValidationError(
                    f"candidate {c.index} is at position {position}; "
                    "a candidate's index must equal its position")
            if len(c.members) != self.k:
                raise ValidationError(f"candidate {c.index} is not a {self.k}-set")
            if not set(c.members) <= pool:
                raise ValidationError(f"candidate {c.index} references unknown entities")
        if self.ground_truth:
            for q, v in self.ground_truth.items():
                if not self.spec.is_on_grid(v):
                    raise ValidationError(f"ground truth {v} for {q} is off-grid")


def questions_of(c: Candidate, spec: ScoringSpec) -> tuple[Question, ...]:
    """Every question contributing to c's score, in deterministic order.

    Unary constructs yield one question per member; binary constructs one
    per member pair. Order is construct order, then sorted args.
    """
    out: list[Question] = []
    for con in spec.constructs:
        if con.arity == 1:
            out.extend(Question(con.name, (e,)) for e in c.members)
        elif con.arity == 2:
            ms = c.members
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    out.append(Question(con.name, (ms[i], ms[j])))
        else:
            raise ValidationError(
                f"constructs of arity {con.arity} are not supported")
    return tuple(out)


def question_universe(spec: ScoringSpec,
                      candidates: Sequence[Candidate]) -> tuple[Question, ...]:
    """All questions instantiable over the candidates' entities.

    Unary: one per entity appearing in any candidate. Binary: one per
    unordered entity pair co-occurring in at least one candidate. The
    result order (construct order, then sorted args) is independent of
    candidate order.
    """
    if not candidates:
        raise ValidationError("no candidates")
    entities = sorted({e for c in candidates for e in c.members})
    pairs = sorted({tuple(sorted((a, b)))
                    for c in candidates
                    for i, a in enumerate(c.members)
                    for b in c.members[i + 1:]})
    out: list[Question] = []
    for con in spec.constructs:
        if con.arity == 1:
            out.extend(Question(con.name, (e,)) for e in entities)
        elif con.arity == 2:
            out.extend(Question(con.name, p) for p in pairs)
        else:
            raise ValidationError(
                f"constructs of arity {con.arity} are not supported")
    return tuple(out)


def unknown_questions(universe: Iterable[Question],
                      knowns: KnownStore) -> tuple[Question, ...]:
    """Universe questions not yet answered, preserving universe order."""
    return tuple(q for q in universe if q not in knowns)
