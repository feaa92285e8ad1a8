"""Shared fixtures: the hotel worked example, the incidence core's arrays,
a fake clock and a chat stub."""

from __future__ import annotations

import itertools
import json
import random
import threading
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple

import numpy as np
import pytest

from topkset import (Candidate, Construct, KnownStore, Problem, Question,
                     ScoringSpec, generate_synthetic)
from topkset.bounds import Incidence
from topkset.model import question_universe, unknown_questions

HOTELS = ("HNY", "MLN", "HYN", "SHN", "WLD")

REL_KNOWN = {"MLN": 1.0, "HYN": 1.0, "SHN": 0.0, "WLD": 0.5}

DIV_KNOWN = {
    ("HNY", "MLN"): 1.0,
    ("HNY", "HYN"): 0.5,
    ("HNY", "SHN"): 0.5,
    ("HNY", "WLD"): 0.5,
    ("HYN", "WLD"): 0.5,
}

# Scores of the four initially hidden questions, fed to the table oracle.
HIDDEN_TRUTH = {
    Question("rel", ("HNY",)): 0.5,
    Question("div", ("MLN", "HYN")): 1.0,
    Question("div", ("MLN", "SHN")): 0.0,
    Question("div", ("MLN", "WLD")): 0.5,
}


def hotel_spec() -> ScoringSpec:
    return ScoringSpec(
        constructs=(
            Construct("rel", 1, definition="relevance of the hotel to the query"),
            Construct("div", 2, definition="how different two hotels are from each other"),
        ),
        min_score=0.0, max_score=1.0, grid_step=0.5)


def hotel_problem() -> Problem:
    spec = hotel_spec()
    ground_truth = {Question("rel", (e,)): v for e, v in REL_KNOWN.items()}
    ground_truth.update(
        (Question("div", pair), v) for pair, v in DIV_KNOWN.items())
    knowns = KnownStore()
    for q, v in ground_truth.items():
        knowns = knowns.record(spec, q, v)
    ground_truth.update(HIDDEN_TRUTH)
    candidates = tuple(
        Candidate(i, members) for i, members in enumerate(
            [("HNY", "MLN", "HYN"), ("HNY", "MLN", "SHN"), ("HNY", "MLN", "WLD")]))
    return Problem(
        entities=HOTELS, spec=spec, k=3, candidates=candidates,
        knowns=knowns, ground_truth=ground_truth,
        query_text="affordable hotels in midtown Manhattan")


def fraction_totals(problem: Problem) -> list[Fraction]:
    """Each candidate's exact total from the ground truth, in Fractions.

    Built without the engine's lattice: every weight and score is read
    as the nearest fraction with denominator <= 1000.
    """
    def exact(x):
        return Fraction(x).limit_denominator(1000)
    truth = {q: exact(v) for q, v in problem.ground_truth.items()}
    return [sum(exact(con.weight) * truth[Question(con.name, args)]
                for con in problem.spec.constructs
                for args in itertools.combinations(c.members, con.arity))
            for c in problem.candidates]


def partial_states(spec, count):
    """Seeded instances with a random half of their open questions answered."""
    for seed in range(count):
        rng = random.Random(seed)
        problem = generate_synthetic(
            rng.randrange(4, 8), rng.randrange(2, 5),
            candidate_cap=rng.choice((5, 12, 20)), seed=seed, spec=spec,
            unknown_count=rng.randrange(4, 14))
        knowns = problem.knowns
        for q in unknown_questions(
                question_universe(spec, problem.candidates), knowns):
            if rng.random() < 0.5:
                knowns = knowns.record(spec, q, problem.ground_truth[q])
        yield problem.candidates, knowns


class CoreArrays(NamedTuple):
    """What the solve loop passes the estimators and question selection."""

    lo: list[int]
    hi: list[int]
    cut: list[list[int]]
    unknowns: list[Question]
    affected: list[list[bool]]


def core_arrays(candidates, spec, knowns) -> CoreArrays:
    """Bounds, pair cuts, open questions and their incidence rows of every
    candidate, read from `Incidence` as `solve` reads them for its live rows.

    `prob_ind(a.lo, a.hi)`, `prob_dep(a.lo, a.hi, a.cut)` and
    `select_entrred(a.unknowns, probs, a.affected)` then estimate and
    select on the state (candidates, spec, knowns).
    """
    core = Incidence(candidates, spec)
    lb, ub, unknown = core.bounds(knowns)
    cut = core.cuts(unknown)
    cols = np.flatnonzero(unknown & core.members.any(axis=0))
    return CoreArrays(lb.tolist(), ub.tolist(), cut.tolist(),
                      [core.questions[j] for j in cols],
                      core.members[:, cols].T.astype(bool).tolist())


@pytest.fixture
def f1() -> Problem:
    return hotel_problem()


class FakeClock:
    """Deterministic nanosecond counter advancing a fixed amount per call."""

    def __init__(self, tick: int = 1000):
        self.now = 0
        self.tick = tick

    def __call__(self) -> int:
        self.now += self.tick
        return self.now


@pytest.fixture
def make_clock():
    return FakeClock


class ChatStub:
    """Tiny chat-completion endpoint running on a local port.

    `script` holds (status, payload) pairs served in order; once empty,
    every request gets a 200 with `default_reply` as the message text.
    Raw request bodies and headers end up in `requests`.
    """

    def __init__(self):
        self.script: list[tuple[int, object]] = []
        self.requests: list[dict] = []
        self.default_reply = "0.5"

        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                stub.requests.append(
                    {"body": body, "headers": dict(self.headers)})
                if stub.script:
                    status, payload = stub.script.pop(0)
                else:
                    status = 200
                    payload = {"choices": [
                        {"message": {"content": stub.default_reply}}]}
                data = (payload if isinstance(payload, str)
                        else json.dumps(payload)).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/v1/chat"
        # A short poll interval keeps `shutdown` from waiting out the
        # default 0.5 s.
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01},
            daemon=True)
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def chat_server():
    stub = ChatStub()
    yield stub
    stub.close()
