"""Spans and counters recorded around the engine's module functions.

The tracer swaps attributes of `topkset` modules and classes for
wrappers and puts the originals back afterwards; no program file is
edited. Functions the engine calls a few times per iteration get a span
(name, start, end, parent, solve id). Functions called per candidate or
per candidate pair are only counted, because a span each would cost more
than the work it measures. The open-span stack is thread-local, so solves
running on a thread pool keep their spans apart.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from topkset import (KnownStore, LlmOracle, TableOracle, bounds, engine,
                     selection, winner)

# Span name -> layer. "solve" is the root span; its self time is the
# engine's own work, which includes the inline pruning and winner check.
SPAN_LAYERS = {
    "solve": "engine",
    "prob_dep": "probability",
    "prob_ind": "probability",
    "entropy": "probability",
    "select_entrred": "selection",
    "select_random": "selection",
    "question_universe": "model",
    "unknown_questions": "model",
    "record": "model",
    "ask": "oracle",
}
LAYERS = ("engine", "probability", "selection", "model", "oracle")


@dataclass
class SolveTrace:
    """Everything recorded during one solve call."""

    solve_id: int
    # [name, start_ns, end_ns, parent index or -1]
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    last_probs: Optional[tuple] = None

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def _note_estimate(rec: SolveTrace, args, result) -> None:
    rec.add("estimates")
    rec.last_probs = result.probs


def _note_read(rec: SolveTrace, args, result) -> None:
    if rec.last_probs is not None and args[1] is rec.last_probs:
        rec.add("estimates_read")


def _note_retries(rec: SolveTrace, args, result) -> None:
    rec.add("retries", getattr(args[0], "last_retries", 0))


def _note_pruned(rec: SolveTrace, args, result) -> None:
    pruned = len(result.steps[-1].pruned) if result.steps else 0
    rec.add("pruned_frac", pruned / len(args[0].candidates))


class Tracer:
    """Wraps module attributes, collects one SolveTrace per solve call."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patches: list = []
        self.solves: list[SolveTrace] = []

    def _current(self) -> Optional[SolveTrace]:
        return getattr(self._local, "rec", None)

    def _spanned(self, rec: SolveTrace, name: str, fn: Callable, args, kwargs,
                 after: Optional[Callable]):
        open_spans = self._local.open
        span = [name, time.perf_counter_ns(), 0,
                open_spans[-1] if open_spans else -1]
        rec.spans.append(span)
        open_spans.append(len(rec.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            rec.add(name + ".errors")
            raise
        finally:
            span[2] = time.perf_counter_ns()
            open_spans.pop()
        if after is not None:
            after(rec, args, result)
        return result

    def root(self, fn: Callable) -> Callable:
        """`fn` (a solve) wrapped so each call opens a new SolveTrace."""
        def traced_solve(*args, **kwargs):
            with self._lock:
                rec = SolveTrace(next(self._ids))
                self.solves.append(rec)
            self._local.rec, self._local.open = rec, []
            try:
                return self._spanned(rec, "solve", fn, args, kwargs,
                                     _note_pruned)
            finally:
                self._local.rec = None
        return traced_solve

    def span(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        def spanned(*args, **kwargs):
            rec = self._current()
            if rec is None:
                return fn(*args, **kwargs)
            return self._spanned(rec, name, fn, args, kwargs, after)
        return spanned

    def count(self, name: str, fn: Callable,
              size_name: Optional[str] = None) -> Callable:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec = self._current()
            if rec is not None:
                rec.add(name)
                if size_name:
                    rec.add(size_name, len(result))
            return result
        return counted

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, root_owner) -> None:
        """Swap in the wrappers, with `root_owner.solve` as the root span."""
        self._patch(root_owner, "solve", self.root(root_owner.solve))
        for attr, after in (("prob_dep", _note_estimate),
                            ("prob_ind", _note_estimate),
                            ("entropy", None),
                            ("select_entrred", _note_read),
                            ("select_random", None),
                            ("question_universe", None),
                            ("unknown_questions", None)):
            self._patch(engine, attr,
                        self.span(attr, getattr(engine, attr), after))
        self._patch(KnownStore, "record",
                    self.span("record", KnownStore.record))
        for cls in (TableOracle, LlmOracle):
            self._patch(cls, "ask", self.span("ask", cls.ask, _note_retries))
        for owner, attr, size_name in (
                (engine, "score_bounds", None),
                (engine, "elimination_cut", None),
                (winner, "uniform_pdf", "support_points"),
                (winner, "geq_probability", None),
                (winner, "geq_probability_naive", None),
                (selection, "qef_score", None)):
            self._patch(owner, attr,
                        self.count(attr, getattr(owner, attr), size_name))
        # Every module that scans a candidate's questions, not only the
        # engine's own calls: selection and bounds do most of the scans.
        for owner in (engine, bounds, selection, winner):
            self._patch(owner, "questions_of",
                        self.count("questions_of", owner.questions_of))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.solves:
                for i, (name, start, end, parent) in enumerate(rec.spans):
                    fh.write(json.dumps({
                        "solve": rec.solve_id, "span": i, "name": name,
                        "layer": SPAN_LAYERS[name], "start": start,
                        "end": end, "parent": parent}) + "\n")

    def summary(self) -> dict:
        """Per-solve means of every count, of each layer's self time and of
        KnownStore.record time; `ask_ms` lists every oracle call's latency."""
        n = max(len(self.solves), 1)
        counts: dict[str, float] = {}
        self_ns = dict.fromkeys(LAYERS, 0)
        record_ns = 0
        ask_ns: list[int] = []
        for rec in self.solves:
            for name, value in rec.counts.items():
                counts[name] = counts.get(name, 0) + value
            child_ns = [0] * len(rec.spans)
            for name, start, end, parent in rec.spans:
                if parent >= 0:
                    child_ns[parent] += end - start
            for (name, start, end, _), inner in zip(rec.spans, child_ns):
                counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
                self_ns[SPAN_LAYERS[name]] += end - start - inner
                if name == "record":
                    record_ns += end - start
                elif name == "ask":
                    ask_ns.append(end - start)
        out = {name: value / n for name, value in counts.items()}
        out.update({f"{layer}.self_s": ns / 1e9 / n
                    for layer, ns in self_ns.items()})
        out["record_s"] = record_ns / 1e9 / n
        out["ask_ms"] = [ns / 1e6 for ns in ask_ns]
        return out

