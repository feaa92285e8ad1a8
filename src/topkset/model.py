"""Core domain vocabulary: entities, constructs, questions, candidates.

A scoring function decomposes into weighted constructs (unary relevance,
binary diversity and the like). Each instantiated construct is a question
whose numeric score an oracle can supply. A candidate is a size-k entity
set; its total score is the aggregate of its construct scores, some of
which may still be unknown.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

EntityId = str

# How far a float may sit from a grid value and still read as it.
GRID_TOL = 1e-9
# Spec numbers are read as fractions with at most this denominator.
MAX_DENOMINATOR = 10**6
# Largest lattice numerator whose float conversion is still exact.
MAX_QUANTA = 2**53


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


def _exact_fraction(x: float, what: str) -> Fraction:
    """x as the fraction with denominator <= 10**6 that converts back to
    exactly x: 0.1 reads as 1/10, 1/3 as 1/3. Below 4096 at most one does."""
    f = Fraction(x).limit_denominator(MAX_DENOMINATOR)
    if float(f) != x:
        raise ValidationError(f"{what} {x!r} is not a fraction with "
                              f"denominator <= {MAX_DENOMINATOR}")
    return f


def lattice_floats(n, quantum: Fraction):
    """Correctly rounded float of n quanta, n an int or an int64 array
    (exact while |n| * numerator and denominator stay <= 2**53)."""
    return n * quantum.numerator / quantum.denominator


@dataclass(frozen=True)
class ScoringSpec:
    """Decomposable scoring function: constructs, response range and score grid.

    Every score lives on one lattice: an integer count of `quantum`, the
    gcd of each construct's weight times the grid step and times the
    range minimum. An answer at grid index i to a question of construct
    c adds `low[c] + i * rise[c]` quanta to a candidate's total.
    """

    constructs: tuple[Construct, ...]
    min_score: float = 0.0
    max_score: float = 1.0
    grid_step: float = 0.5
    aggregation: str = "sum"
    quantum: Fraction = field(init=False, repr=False, compare=False)
    low: dict[str, int] = field(init=False, repr=False, compare=False)
    rise: dict[str, int] = field(init=False, repr=False, compare=False)
    _grid: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.constructs:
            raise ValidationError("at least one construct required")
        names = [c.name for c in self.constructs]
        if len(set(names)) != len(names):
            raise ValidationError("construct names must be unique")
        for c in self.constructs:
            if c.arity > 2:
                raise ValidationError(
                    f"constructs of arity {c.arity} are not supported")
        if self.aggregation != "sum":
            raise ValidationError(f"unsupported aggregation {self.aggregation!r}")
        if not self.min_score < self.max_score:
            raise ValidationError("min_score must be < max_score")
        if self.grid_step <= 0:
            raise ValidationError("grid_step must be positive")
        lo = _exact_fraction(self.min_score, "min_score")
        hi = _exact_fraction(self.max_score, "max_score")
        step = _exact_fraction(self.grid_step, "grid_step")
        if ((hi - lo) / step).denominator != 1:
            raise ValidationError("grid_step must divide the score range exactly")
        weights = [_exact_fraction(c.weight, f"construct {c.name}: weight")
                   for c in self.constructs]
        parts = [w * v for w in weights for v in (step, lo)]
        # All weights zero: every score is 0 and any quantum serves.
        quantum = Fraction(math.gcd(*(f.numerator for f in parts)) or 1,
                           math.lcm(*(f.denominator for f in parts)))
        grid = tuple(float(lo + i * step)
                     for i in range(int((hi - lo) / step) + 1))
        for name, value in (
                ("quantum", quantum),
                ("low", {c.name: int(w * lo / quantum)
                         for c, w in zip(self.constructs, weights)}),
                ("rise", {c.name: int(w * step / quantum)
                          for c, w in zip(self.constructs, weights)}),
                ("_grid", grid)):
            object.__setattr__(self, name, value)

    @property
    def n_grid_values(self) -> int:
        return len(self._grid)

    def grid_values(self) -> tuple[float, ...]:
        """The grid as correctly rounded floats."""
        return self._grid

    def grid_index(self, v: float) -> Optional[int]:
        """Index of the grid value v reads as, or None when v is off the grid.

        This is where scores from outside (responses, CSV scores, ground
        truth) enter the lattice; v may miss a grid value by GRID_TOL.
        """
        if not (self.min_score - GRID_TOL <= v <= self.max_score + GRID_TOL):
            return None
        k = (v - self.min_score) / self.grid_step
        return round(k) if abs(k - round(k)) <= GRID_TOL else None

    def span(self, construct: str) -> int:
        """Quanta between a construct answer's lowest and highest value."""
        return (self.n_grid_values - 1) * self.rise[construct]

    def construct_named(self, name: str) -> Construct:
        for c in self.constructs:
            if c.name == name:
                return c
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
    """Immutable map from answered questions to the grid index of their score."""

    __slots__ = ("_answers",)

    def __init__(self, answers: Optional[Mapping[Question, int]] = None):
        self._answers: dict[Question, int] = dict(answers or {})

    def record(self, spec: ScoringSpec, q: Question, v: float) -> "KnownStore":
        """Return a new store with q answered as the grid value v.

        Recording the same value twice is a no-op; a different value for an
        already answered question is rejected, since oracle responses are
        final.
        """
        i = spec.grid_index(v)
        if i is None:
            raise ValidationError(
                f"response {v} for {q} is off-grid for step {spec.grid_step} "
                f"in [{spec.min_score}, {spec.max_score}]")
        if q in self._answers:
            if self._answers[q] != i:
                raise ValidationError(
                    f"conflicting response for {q}: had "
                    f"{spec.grid_values()[self._answers[q]]}, got {v}")
            return self
        merged = dict(self._answers)
        merged[q] = i
        return KnownStore(merged)

    def get(self, q: Question) -> Optional[int]:
        return self._answers.get(q)

    def __contains__(self, q: Question) -> bool:
        return q in self._answers

    def __len__(self) -> int:
        return len(self._answers)

    def items(self) -> Iterator[tuple[Question, int]]:
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


@dataclass(frozen=True)
class Problem:
    """A full query instance: entities, scoring spec, candidates and state.

    `knowns` holds the initially revealed scores; `ground_truth` backs a
    simulated oracle and must cover every question the engine may ask.
    `query_text` and `entity_context` (entity id to free text) are
    carried verbatim into oracle prompts and never enter any numeric
    computation. The spec's lattice must hold every k-set's score exactly.
    """

    entities: tuple[EntityId, ...]
    spec: ScoringSpec
    k: int
    candidates: tuple[Candidate, ...]
    knowns: KnownStore = field(default_factory=KnownStore)
    ground_truth: Optional[Mapping[Question, float]] = None
    query_text: str = ""
    entity_context: Mapping[EntityId, str] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.entities)) != len(self.entities):
            raise ValidationError("duplicate entity ids")
        if self.k > len(self.entities):
            raise ValidationError("k exceeds entity count")
        spec = self.spec
        most = sum(math.comb(self.k, c.arity)
                   * max(abs(spec.low[c.name]),
                         abs(spec.low[c.name] + spec.span(c.name)))
                   for c in spec.constructs)
        if max(most * spec.quantum.numerator,
               spec.quantum.denominator) > MAX_QUANTA:
            raise ValidationError(
                f"a {self.k}-set's score needs up to {most} quanta of "
                f"{spec.quantum}, beyond the exact range of 2**53")
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
                if spec.grid_index(v) is None:
                    raise ValidationError(f"ground truth {v} for {q} is off-grid")


def arg_tuples(con: Construct,
               members: Sequence[EntityId]) -> Iterator[tuple[EntityId, ...]]:
    """Args of con's questions over a sorted member list: every
    arity-subset, in sorted order."""
    return itertools.combinations(members, con.arity)


def questions_of(c: Candidate, spec: ScoringSpec) -> tuple[Question, ...]:
    """Every question contributing to c's score, in deterministic order.

    Order is construct order, then sorted args.
    """
    return tuple(Question(con.name, args) for con in spec.constructs
                 for args in arg_tuples(con, c.members))


def question_universe(spec: ScoringSpec,
                      candidates: Sequence[Candidate]) -> tuple[Question, ...]:
    """All questions instantiable over the candidates: the union of their
    `questions_of`. The result order (construct order, then sorted args)
    is independent of candidate order.
    """
    if not candidates:
        raise ValidationError("no candidates")
    return tuple(Question(con.name, args) for con in spec.constructs
                 for args in sorted({args for c in candidates
                                     for args in arg_tuples(con, c.members)}))


def unknown_questions(universe: Iterable[Question],
                      knowns: KnownStore) -> tuple[Question, ...]:
    """Universe questions not yet answered, preserving universe order."""
    return tuple(q for q in universe if q not in knowns)
