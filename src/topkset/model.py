"""Core domain vocabulary: entities, constructs, questions, candidates.

A scoring function decomposes into weighted constructs (unary relevance,
binary diversity and the like). Each instantiated construct is a question
whose numeric score an oracle can supply. A candidate is a size-k entity
set; its total score is the aggregate of its construct scores, some of
which may still be unknown.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

EntityId = str

# How far a float may sit from a grid value and still read as it.
GRID_TOL = 1e-9
# Spec numbers are read as fractions with at most this denominator.
MAX_DENOMINATOR = 10**6
# Largest lattice numerator whose float conversion is still exact.
MAX_QUANTA = 2**53
# Most grid steps a spec may have: the finest grid MAX_DENOMINATOR admits
# on [0, 1]. It caps the resolution the validator accepts, and with it the
# quanta one answer spans, which the estimators' score supports grow with.
MAX_GRID_STEPS = 10**6


class ValidationError(ValueError):
    """Raised when inputs violate a structural constraint."""


def whole_number(value) -> int:
    """`value` as an int when it is a whole number: an int, a float without
    a fraction or a numeric string. A bool or a float with a fraction
    raises ValueError instead of being truncated."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def real_number(value) -> float:
    """`value` as a float when it is a number or a numeric string. A bool
    raises ValueError instead of reading as 0.0 or 1.0."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def instance_of(*types):
    """A `typed` kind that keeps a value of one of `types` as it is."""
    def kind(value):
        if not isinstance(value, types):
            raise TypeError(f"{value!r} is not of type {types}")
        return value
    return kind


def typed(key: str, value, kind, what: str, valid=lambda v: True):
    """kind(value) if `valid` accepts it, else a ValidationError
    "<key> <value> is not <what>": the one typed-field check."""
    try:
        out = kind(value)
        if valid(out):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{key} {value!r} is not {what}")


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in the UTF-8 file `path`, which may start with a
    byte-order mark, or a ValidationError naming `what` and the path."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} {path} is not a JSON object")
    return raw


def only_keys(raw: dict, allowed: Iterable[str], what: str = "key") -> None:
    """A ValidationError "unknown <what> <key>", listing the allowed keys,
    unless `allowed` holds every key of `raw`."""
    allowed = tuple(allowed)
    for key in raw:
        if key not in allowed:
            raise ValidationError(f"unknown {what} {key!r}; expected one of "
                                  f"{', '.join(allowed)}")


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
    if not math.isfinite(x):
        raise ValidationError(f"{what} {x!r} is not finite")
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
    quantum: Fraction = field(init=False, repr=False, compare=False)
    low: dict[str, int] = field(init=False, repr=False, compare=False)
    rise: dict[str, int] = field(init=False, repr=False, compare=False)
    steps: int = field(init=False, repr=False, compare=False)
    _first: int = field(init=False, repr=False, compare=False)
    _stride: int = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

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
        if not self.min_score < self.max_score:
            raise ValidationError("min_score must be < max_score")
        if self.grid_step <= 0:
            raise ValidationError("grid_step must be positive")
        lo = _exact_fraction(self.min_score, "min_score")
        hi = _exact_fraction(self.max_score, "max_score")
        step = _exact_fraction(self.grid_step, "grid_step")
        if ((hi - lo) / step).denominator != 1:
            raise ValidationError("grid_step must divide the score range exactly")
        steps = int((hi - lo) / step)
        if steps > MAX_GRID_STEPS:
            raise ValidationError(
                f"range [{self.min_score}, {self.max_score}] at grid step "
                f"{self.grid_step} has {steps} steps, above the limit of "
                f"{MAX_GRID_STEPS}; use a coarser step")
        weights = [_exact_fraction(c.weight, f"construct {c.name}: weight")
                   for c in self.constructs]
        parts = [w * v for w in weights for v in (step, lo)]
        # All weights zero: every score is 0 and any quantum serves.
        quantum = Fraction(math.gcd(*(f.numerator for f in parts)) or 1,
                           math.lcm(*(f.denominator for f in parts)))
        for name, value in (
                ("quantum", quantum),
                ("low", {c.name: int(w * lo / quantum)
                         for c, w in zip(self.constructs, weights)}),
                ("rise", {c.name: int(w * step / quantum)
                          for c, w in zip(self.constructs, weights)}),
                ("steps", steps),
                ("_first", lo.numerator * step.denominator),
                ("_stride", step.numerator * lo.denominator),
                ("_den", lo.denominator * step.denominator)):
            object.__setattr__(self, name, value)

    def grid_value(self, i: int) -> float:
        """Grid value i, `min_score + i * grid_step`, as a correctly rounded
        float. With both over one common denominator `_den` it is one
        int / int division, which rounds as float(Fraction) does. Raises
        IndexError when i is outside 0..steps."""
        if not 0 <= i <= self.steps:
            raise IndexError(f"grid index {i} outside 0..{self.steps}")
        return (self._first + i * self._stride) / self._den

    def grid_index(self, v: float) -> Optional[int]:
        """Index of the grid value v reads as, or None when v is off the grid,
        is a bool or is no real number (a string, None, a Decimal).

        This is where scores from outside (responses, CSV scores, ground
        truth) enter the lattice; v may miss a grid value by GRID_TOL in
        score units, at any step.
        """
        if not isinstance(v, numbers.Real) or isinstance(v, bool):
            return None
        # Also refuses NaN, ±inf and ints too large for a float.
        if not (self.min_score - GRID_TOL <= v <= self.max_score + GRID_TOL):
            return None
        i = round((v - self.min_score) / self.grid_step)
        if 0 <= i <= self.steps and abs(v - self.grid_value(i)) <= GRID_TOL:
            return i
        return None

    def span(self, construct: str) -> int:
        """Quanta between a construct answer's lowest and highest value."""
        return self.steps * self.rise[construct]

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
    """Immutable map from answered questions to the grid index of their score.

    `items()` yields the answers in the order they were recorded.
    """

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
            shown = repr(v) if isinstance(v, str) else v
            raise ValidationError(
                f"response {shown} for {q} is off-grid for step "
                f"{spec.grid_step} in [{spec.min_score}, {spec.max_score}]")
        if q in self._answers:
            if self._answers[q] != i:
                raise ValidationError(
                    f"conflicting response for {q}: had "
                    f"{spec.grid_value(self._answers[q])}, got {v}")
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
    list. `solve` returns an exact maximum: the lowest live row that weakly
    dominates all others when the proof completes. When several candidates
    tie at the maximum, which of them that is depends on the questions
    asked, not on the lowest index alone.
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
    return tuple(Question(*key) for key in universe_keys(spec, candidates))


def universe_keys(spec: ScoringSpec, candidates: Sequence[Candidate]
                  ) -> Iterator[tuple[str, tuple[EntityId, ...]]]:
    """(construct name, args) of each universe question, in universe
    order, without building the questions."""
    for con in spec.constructs:
        for args in sorted({args for c in candidates
                            for args in arg_tuples(con, c.members)}):
            yield con.name, args


def unknown_questions(universe: Iterable[Question],
                      knowns: KnownStore) -> tuple[Question, ...]:
    """Universe questions not yet answered, preserving universe order."""
    return tuple(q for q in universe if q not in knowns)
