"""Identity sweep: digest what 1020 seeded solves return and trace.

Solves 17 seeded synthetic instances for each of five specs (grid steps
1/2, 1/8, 1/10 and 1/4, plus rel weight 0.3 at step 1/2) and k = 2, 3, 4
under all four policies, with a fake clock. Prints one SHA-256 per
(spec, policy) over, for every solve in order: the winner, the oracle
call count, the trace's step lines and `SolveResult.knowns`. The trace's
final summary line is left out, so the digests compare the solve itself
across changes to that line.

Half the instances use a shuffled subset of all k-sets as candidates
(not a lexicographic prefix) and entity ids that do not sort by number
(`b10` before `b2`), so candidate and question order both get exercised.

Run it against whichever tree is on the path:

    PYTHONPATH=src python tools/trace_sweep.py

`tools/trace_sweep.digests` holds the expected output, and
`tests/test_trace_sweep.py` reruns the sweep against it, so a change that
alters any winner, call count or trace step fails tier-1. Regenerate the
file only for a change that means to alter them, and say why in
CHANGES.md:

    PYTHONPATH=src python tools/trace_sweep.py > tools/trace_sweep.digests
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

from topkset import (Candidate, Construct, KnownStore, Policy, Problem,
                     Question, ScoringSpec, TableOracle, generate_synthetic,
                     solve)

INSTANCES = 17
KS = (2, 3, 4)
POLICIES = (Policy.ENTRRED_DEP, Policy.ENTRRED_IND, Policy.RANDOM,
            Policy.BASELINE)


def _spec(step: float, rel_weight: float = 1.0) -> ScoringSpec:
    return ScoringSpec((Construct("rel", 1, rel_weight), Construct("div", 2)),
                       0.0, 1.0, step)


SPECS = {
    "step-0.5": _spec(0.5),
    "step-0.125": _spec(0.125),
    "step-0.1": _spec(0.1),
    "step-0.25": _spec(0.25),
    "rel-weight-0.3": _spec(0.5, 0.3),
}


class FakeClock:
    """Nanosecond counter advancing 1000 per call."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        self.now += 1000
        return self.now


def _reshaped(problem: Problem, rng: random.Random) -> Problem:
    """The same ground truth with entities renamed `b<i>` and a shuffled
    subset of all k-sets as the candidate list."""
    rename = {e: f"b{i}" for i, e in enumerate(problem.entities)}

    def question(q: Question) -> Question:
        return Question(q.construct, tuple(rename[a] for a in q.args))

    spec = problem.spec
    sets = list(itertools.combinations(sorted(rename.values()), problem.k))
    rng.shuffle(sets)
    sets = sets[:rng.randrange(2, min(len(sets), 24) + 1)]
    knowns = KnownStore({question(q): i for q, i in problem.knowns.items()})
    return Problem(tuple(rename.values()), spec, problem.k,
                   tuple(Candidate(i, m) for i, m in enumerate(sets)),
                   knowns,
                   {question(q): v for q, v in problem.ground_truth.items()})


def instances(spec: ScoringSpec):
    for k in KS:
        for i in range(INSTANCES):
            seed = 1000 * k + i
            rng = random.Random(seed)
            reshape = i % 2 == 1
            # A reshaped instance draws its candidates from all k-sets,
            # so its ground truth must cover every pair.
            cap = None if reshape else rng.choice((None, 6, 12, 20))
            problem = generate_synthetic(
                rng.randrange(k + 2, k + 5), k, candidate_cap=cap,
                seed=seed, spec=spec, unknown_count=rng.randrange(3, 13))
            yield seed, (_reshaped(problem, rng) if reshape else problem)


def solve_record(problem: Problem, policy: Policy, seed: int,
                 trace: Path) -> str:
    result = solve(problem, policy, TableOracle(problem.ground_truth),
                   seed=seed, trace_path=str(trace), clock=FakeClock())
    steps = trace.read_text(encoding="utf-8").splitlines()[:-1]
    knowns = sorted((q.construct, q.args, i) for q, i in result.knowns.items())
    return json.dumps({"winner": list(result.winner.members),
                       "calls": result.oracle_calls,
                       "steps": steps,
                       "knowns": knowns}, separators=(",", ":"))


def digest_lines():
    """One line per (spec, policy) with its digest, then the solve count."""
    solves = 0
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.jsonl"
        for name, spec in SPECS.items():
            problems = list(instances(spec))
            for policy in POLICIES:
                digest = hashlib.sha256()
                for seed, problem in problems:
                    record = solve_record(problem, policy, seed, trace)
                    digest.update(record.encode() + b"\n")
                    solves += 1
                yield f"{name:15} {policy.value:12} {digest.hexdigest()}"
    yield f"solves {solves}"


def main() -> int:
    for line in digest_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
