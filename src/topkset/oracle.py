"""Oracle backends and response handling.

The engine asks one question at a time and accepts either a single score
or a score range per expert. A free-form reply scores its last number,
clamped into the response range and snapped onto the score grid. A
ground-truth table stands in for a live model during offline runs; the
HTTP client speaks the common chat-completion JSON shape.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Optional, Sequence

import requests

from .model import GRID_TOL, Question, ScoringSpec, ValidationError

_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


class OracleError(RuntimeError):
    """Oracle could not produce a usable response."""

    def __init__(self, message: str, raw_reply: Optional[str] = None):
        super().__init__(message)
        self.raw_reply = raw_reply


class ResponseKind(Enum):
    POINT = "point"
    RANGE = "range"


@dataclass(frozen=True)
class OracleResponse:
    kind: ResponseKind
    value: Optional[float] = None
    lo: Optional[float] = None
    hi: Optional[float] = None

    @classmethod
    def point(cls, value: float) -> "OracleResponse":
        return cls(ResponseKind.POINT, value=value)

    @classmethod
    def score_range(cls, lo: float, hi: float) -> "OracleResponse":
        if not lo < hi:
            raise ValidationError(f"range response needs lo < hi, got ({lo}, {hi})")
        return cls(ResponseKind.RANGE, lo=lo, hi=hi)

    def bounds(self) -> tuple[float, float]:
        if self.kind is ResponseKind.POINT:
            return self.value, self.value
        return self.lo, self.hi


@dataclass(frozen=True)
class ResponsePdf:
    """Frequency distribution over the desired response grid."""

    over: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        if len(self.over) != len(self.masses):
            raise ValidationError("support and masses must align")
        if abs(sum(self.masses) - 1.0) > 1e-9:
            raise ValidationError("masses must sum to 1")

    def support_min(self) -> float:
        return min(v for v, m in zip(self.over, self.masses) if m > 0)

    def support_max(self) -> float:
        return max(v for v, m in zip(self.over, self.masses) if m > 0)


def process_responses(responses: Sequence[OracleResponse],
                      grid: Sequence[float]) -> ResponsePdf:
    """Fold one or more expert responses into a pdf over the grid.

    A point response counts as the degenerate range (r, r). Each response
    contributes every grid value inside its closed range; the pooled
    multiset's relative frequencies become the masses.
    """
    if not responses:
        raise ValidationError("at least one response required")
    counts = {v: 0 for v in grid}
    total = 0
    for r in responses:
        lo, hi = r.bounds()
        hit = [v for v in grid if lo - GRID_TOL <= v <= hi + GRID_TOL]
        if not hit:
            raise OracleError(f"response range ({lo}, {hi}) contains no grid value")
        for v in hit:
            counts[v] += 1
        total += len(hit)
    return ResponsePdf(tuple(grid),
                       tuple(counts[v] / total for v in grid))


def snap_to_grid(v: float, spec: ScoringSpec) -> float:
    """Clamp v into the response range and round to the nearest grid value.

    Exact midpoints round down, toward the range minimum. The result is
    the grid value as a correctly rounded float.
    """
    if not math.isfinite(v):
        raise OracleError(f"non-finite oracle value {v!r}")
    v = min(max(v, spec.min_score), spec.max_score)
    k = (v - spec.min_score) / spec.grid_step
    lower = math.floor(k)
    k = lower if (k - lower) <= 0.5 else lower + 1
    return spec.grid_values()[min(k, spec.n_grid_values - 1)]


class TableOracle:
    """Ground-truth lookup; deterministic stand-in for a live model."""

    def __init__(self, table: Mapping[Question, float]):
        self._table = dict(table)

    def ask(self, q: Question) -> OracleResponse:
        if q not in self._table:
            raise OracleError(f"ground truth incomplete: no entry for {q}")
        return OracleResponse.point(self._table[q])


@dataclass(frozen=True)
class LlmOracleConfig:
    endpoint_url: str
    api_key_env: str = ""
    model: str = ""
    prompt_template: str = (
        "Query: {query}\n"
        "Score the {construct} ({definition}) of {entityA}{entityB} "
        "given this context: {entityContext}\n"
        "Reply with a single number between {minScore} and {maxScore}.")
    timeout_s: float = 30.0
    max_retries: int = 3
    temperature: float = 0.0

    @classmethod
    def from_json(cls, path: str | Path) -> "LlmOracleConfig":
        """Read an `llm.json`; a bad file or key is a ValidationError."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read LLM config {path}: {exc}")
        if not isinstance(raw, dict):
            raise ValidationError(f"LLM config {path} is not a JSON object")
        if "endpointUrl" not in raw:
            raise ValidationError(f"LLM config {path} lacks 'endpointUrl'")

        def bad(key: str, what: str) -> ValidationError:
            return ValidationError(
                f"LLM config {path}: {key} {raw[key]!r} is not {what}")

        def text(key: str, default: str) -> str:
            value = raw.get(key, default)
            if not isinstance(value, str):
                raise bad(key, "a string")
            return value

        def number(key, kind, default, what, valid=lambda v: True):
            try:
                value = kind(raw.get(key, default))
            except (TypeError, ValueError, OverflowError):
                raise bad(key, what) from None
            if not (math.isfinite(value) and valid(value)):
                raise bad(key, what)
            return value

        return cls(
            endpoint_url=text("endpointUrl", ""),
            api_key_env=text("apiKeyEnvVar", cls.api_key_env),
            model=text("model", cls.model),
            prompt_template=text("promptTemplate", cls.prompt_template),
            timeout_s=number("timeout", float, cls.timeout_s,
                             "a positive number", lambda v: v > 0),
            max_retries=number("maxRetries", int, cls.max_retries,
                               "a nonnegative integer", lambda v: v >= 0),
            temperature=number("temperature", float, cls.temperature,
                               "a number"))


# Seconds before the first retry; doubled per attempt. Module level so
# tests can shrink it.
RETRY_BACKOFF_S = 0.2


class LlmOracle:
    """HTTP chat-completion client that turns replies into grid scores."""

    def __init__(self, cfg: LlmOracleConfig, spec: ScoringSpec,
                 query_text: str = "",
                 entity_context: Optional[Mapping[str, str]] = None,
                 session: Optional[requests.Session] = None):
        self.cfg = cfg
        self.spec = spec
        self.query_text = query_text
        self.entity_context = dict(entity_context or {})
        self.session = session or requests.Session()
        self.last_retries = 0

    def _render(self, q: Question) -> str:
        con = self.spec.construct_named(q.construct)
        required = ["{entityA}"] if con.arity == 1 else ["{entityA}", "{entityB}"]
        for ph in required:
            if ph not in self.cfg.prompt_template:
                raise OracleError(
                    f"prompt template lacks {ph} needed for arity {con.arity}")
        ctx = "; ".join(
            f"{e}: {self.entity_context[e]}" for e in q.args
            if self.entity_context.get(e))
        return self.cfg.prompt_template.format(
            query=self.query_text,
            construct=con.name,
            definition=con.definition,
            entityA=q.args[0],
            entityB=f" and {q.args[1]}" if con.arity == 2 else "",
            entityContext=ctx,
            minScore=self.spec.min_score,
            maxScore=self.spec.max_score)

    def ask(self, q: Question) -> OracleResponse:
        prompt = self._render(q)
        payload = {
            "model": self.cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.cfg.temperature,
        }
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.cfg.api_key_env, "") if self.cfg.api_key_env else ""
        if key:
            headers["Authorization"] = f"Bearer {key}"

        last_error: Optional[str] = None
        raw: Optional[str] = None
        for attempt in range(self.cfg.max_retries + 1):
            self.last_retries = attempt
            if attempt:
                time.sleep(RETRY_BACKOFF_S * (2 ** (attempt - 1)))
            try:
                resp = self.session.post(self.cfg.endpoint_url, json=payload,
                                         headers=headers,
                                         timeout=self.cfg.timeout_s)
            except requests.RequestException as exc:
                last_error = f"request failed: {exc}"
                continue
            if resp.status_code < 200 or resp.status_code >= 300:
                last_error = f"HTTP {resp.status_code}"
                continue
            try:
                raw = resp.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError) as exc:
                last_error = f"malformed reply: {exc}"
                continue
            numbers = _NUMBER_RE.findall(raw)
            if not numbers:
                last_error = "no numeric token in reply"
                continue
            # The answer comes last: "On a 0-1 scale: 0.8" scores 0.8.
            return OracleResponse.point(snap_to_grid(float(numbers[-1]),
                                                     self.spec))
        raise OracleError(
            f"oracle gave no usable answer for {q} after "
            f"{self.cfg.max_retries + 1} attempts: {last_error}", raw_reply=raw)
