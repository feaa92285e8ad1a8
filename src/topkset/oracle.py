"""Oracle backends and response handling.

An oracle is any object whose `ask(question)` returns a score; the engine
asks one question at a time and records that score on the spec's grid. A
free-form reply scores the number in its `<score>` tag, or else its last
number, clamped into the response range and snapped onto the score grid.
A ground-truth table stands in for a live model during offline runs; the
HTTP client speaks the common chat-completion JSON shape. Several experts'
closed `(lo, hi)` score ranges fold into one pdf over the grid with
`process_responses`.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .model import (GRID_TOL, Question, ScoringSpec, ValidationError,
                    instance_of, only_keys, read_json_object, real_number,
                    typed, whole_number)

if TYPE_CHECKING:
    import requests

# Signed decimals with optional leading or trailing dot and exponent:
# "1", "0.5", ".5", "5.", "5e-1".
_NUMBER_RE = re.compile(r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")
# An explicit answer tag, "<score>0.5</score>".
_SCORE_TAG_RE = re.compile(r"<score>(.*?)</score>", re.IGNORECASE | re.DOTALL)


def _reply_score(reply: str) -> float:
    """The score a free-form reply gives, NaN when it gives none.

    The content of the last `<score>` tag wins and must be one number;
    without a tag the answer comes last: "On a 0-1 scale: 0.8" scores 0.8.
    """
    tags = _SCORE_TAG_RE.findall(reply)
    if tags:
        text = tags[-1].strip()
        return float(text) if _NUMBER_RE.fullmatch(text) else math.nan
    numbers = _NUMBER_RE.findall(reply)
    return float(numbers[-1]) if numbers else math.nan


class OracleError(RuntimeError):
    """Oracle could not produce a usable response."""

    def __init__(self, message: str, raw_reply: Optional[str] = None):
        super().__init__(message)
        self.raw_reply = raw_reply


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


def process_responses(responses: Sequence[tuple[float, float]],
                      grid: Sequence[float]) -> ResponsePdf:
    """Fold one or more experts' closed `(lo, hi)` ranges into a pdf over
    the grid.

    A point response r is the degenerate range (r, r). Each range
    contributes every grid value inside it; the pooled multiset's relative
    frequencies become the masses.
    """
    if not responses:
        raise ValidationError("at least one response required")
    counts = {v: 0 for v in grid}
    total = 0
    for lo, hi in responses:
        if not lo <= hi:
            raise ValidationError(f"response range needs lo <= hi, got "
                                  f"({lo}, {hi})")
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
    return spec.grid_value(min(k, spec.steps))


class TableOracle:
    """Ground-truth lookup; deterministic stand-in for a live model."""

    def __init__(self, table: Mapping[Question, float]):
        self._table = dict(table)

    def ask(self, q: Question) -> float:
        if q not in self._table:
            raise OracleError(f"ground truth incomplete: no entry for {q}")
        return self._table[q]


# A timeout ceiling in seconds within what the socket layer accepts; a
# longer timeout raises OverflowError inside the HTTP client at the first
# request.
_MAX_TIMEOUT_S = threading.TIMEOUT_MAX

# Each LlmOracleConfig field's key in an llm.json, which its errors name,
# and the rest of its `typed` check: kind, what it reads as, valid values.
_LLM_FIELDS = {
    "endpoint_url": ("endpointUrl", instance_of(str), "a string"),
    "api_key_env": ("apiKeyEnvVar", instance_of(str), "a string"),
    "model": ("model", instance_of(str), "a string"),
    "prompt_template": ("promptTemplate", instance_of(str), "a string"),
    "timeout_s": ("timeout", real_number,
                  f"a positive number of seconds up to {_MAX_TIMEOUT_S:.0f}",
                  lambda v: 0 < v <= _MAX_TIMEOUT_S),
    "max_retries": ("maxRetries", whole_number, "a nonnegative integer",
                    lambda v: v >= 0),
    "temperature": ("temperature", real_number, "a number", math.isfinite),
}


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

    def __post_init__(self):
        """Check every field as an llm.json would, before any request."""
        for name, (key, *check) in _LLM_FIELDS.items():
            object.__setattr__(self, name, typed(key, getattr(self, name),
                                                 *check))

    @classmethod
    def from_json(cls, path: str | Path) -> "LlmOracleConfig":
        """Read an `llm.json`; a bad file, value or unknown key is a
        ValidationError."""
        raw = read_json_object(path, "LLM config")
        if "endpointUrl" not in raw:
            raise ValidationError(f"LLM config {path} lacks 'endpointUrl'")
        try:
            only_keys(raw, (key for key, *_ in _LLM_FIELDS.values()))
            return cls(**{name: raw[key] for name, (key, *_)
                          in _LLM_FIELDS.items() if key in raw})
        except ValidationError as exc:
            raise ValidationError(f"LLM config {path}: {exc}") from None


# Seconds before the first retry; doubled per attempt. Module level so
# tests can shrink it.
RETRY_BACKOFF_S = 0.2


class LlmOracle:
    """HTTP chat-completion client that turns replies into grid scores.

    `requests` is imported here, on construction, not with the package:
    a table-oracle run never loads the HTTP stack.
    """

    def __init__(self, cfg: LlmOracleConfig, spec: ScoringSpec,
                 query_text: str = "",
                 entity_context: Optional[Mapping[str, str]] = None,
                 session: Optional[requests.Session] = None):
        self.cfg = cfg
        self.spec = spec
        self.query_text = query_text
        self.entity_context = dict(entity_context or {})
        import requests
        self._request_error = requests.RequestException
        self.session = session or requests.Session()
        self.last_retries = 0
        self._request, self._send_settings = self._prepare()
        # Render one question per construct before any request is paid for.
        for con in spec.constructs:
            for ph in ("{entityA}", "{entityB}")[:con.arity]:
                if ph not in cfg.prompt_template:
                    raise ValidationError(f"prompt template lacks {ph} "
                                          f"needed for arity {con.arity}")
            try:
                self._render(Question(con.name, ("a", "b")[:con.arity]))
            except (AttributeError, LookupError, ValueError) as exc:
                raise ValidationError("prompt template does not format: "
                                      f"{type(exc).__name__} {exc}") from None

    def _prepare(self) -> tuple:
        """The part of every request that no question changes, prepared
        once: the URL, the headers with the API key and the session's own,
        and the send settings with the environment's proxies and CA bundle.

        `ask` sends a copy of it with the jar's cookies and the question's
        body, as `session.post` would; a URL no request can go to is a
        ValidationError here, before any is sent.
        """
        import requests
        from requests.structures import CaseInsensitiveDict
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.cfg.api_key_env, "") if self.cfg.api_key_env else ""
        if key:
            headers["Authorization"] = f"Bearer {key}"
        url = self.cfg.endpoint_url
        try:
            request = self.session.prepare_request(
                requests.Request("POST", url, headers=headers))
            self.session.get_adapter(request.url)
            settings = self.session.merge_environment_settings(
                request.url, {}, None, None, None)
        except requests.RequestException as exc:
            raise ValidationError(
                f"endpointUrl {url!r} cannot be requested: {exc}") from None
        # Each ask sets these from its body and from the jar as it is then,
        # in the order `session.post` does; a Cookie header the session's
        # headers set themselves stays, as it would there.
        request.headers.pop("Content-Length", None)
        if CaseInsensitiveDict(self.session.headers).get("Cookie") is None:
            request.headers.pop("Cookie", None)
        settings["timeout"] = self.cfg.timeout_s
        return request, settings

    def _render(self, q: Question) -> str:
        con = self.spec.construct_named(q.construct)
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

    def ask(self, q: Question) -> float:
        prompt = self._render(q)
        payload = {
            "model": self.cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.cfg.temperature,
        }
        last_error: Optional[str] = None
        raw: Optional[str] = None
        for attempt in range(self.cfg.max_retries + 1):
            self.last_retries = attempt
            if attempt:
                time.sleep(RETRY_BACKOFF_S * (2 ** (attempt - 1)))
            try:
                request = self._request.copy()
                request.prepare_cookies(self.session.cookies)
                request.prepare_body(None, None, json=payload)
                resp = self.session.send(request, **self._send_settings)
            except self._request_error as exc:
                last_error = f"request failed: {exc}"
                continue
            if resp.status_code < 200 or resp.status_code >= 300:
                last_error = f"HTTP {resp.status_code}"
                # Another try may change a timeout (408), a rate limit
                # (429) or a server error (5xx); any other status, such as
                # a bad key (401) or a wrong URL (404), comes back the same.
                if resp.status_code in (408, 429) or resp.status_code >= 500:
                    continue
                break
            try:
                content = resp.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                last_error = f"malformed reply: {exc}"
                continue
            if not isinstance(content, str):
                last_error = f"malformed reply: content is {content!r}"
                continue
            raw = content
            value = _reply_score(raw)
            if not math.isfinite(value):
                last_error = "no finite number in reply"
                continue
            return snap_to_grid(value, self.spec)
        attempts = self.last_retries + 1
        raise OracleError(
            f"oracle gave no usable answer for {q} after {attempts} "
            f"attempt{'s' if attempts > 1 else ''}: {last_error}",
            raw_reply=raw)
