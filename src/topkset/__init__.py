"""Engine for personalized top-k set queries over expensive construct scores.

Candidate sets are scored by a decomposable function whose construct
values come from an oracle one question at a time. The engine keeps
score bounds per candidate, estimates each candidate's probability of
being the true answer, asks the question expected to cut uncertainty
the most and stops as soon as the winner is provable.
"""

from .bounds import Interval, dominates, eliminated_bounds, score_bounds
from .engine import (Policy, SolveLimitError, SolveResult, Solver,
                     TraceStep, enumerate_candidates, solve)
from .harness import (ExperimentConfig, generate_synthetic, load_problem,
                      run_experiment, write_bundle)
from .model import (Candidate, Construct, KnownStore, Problem, Question,
                    ScoringSpec, ValidationError, question_universe,
                    questions_of, unknown_questions)
from .oracle import (LlmOracle, LlmOracleConfig, OracleError, ResponsePdf,
                     TableOracle, process_responses, snap_to_grid)
from .selection import qef_score, select_entrred, select_random
from .winner import (CapExceededError, DiscretePdf, WinnerDistribution,
                     brute_force_dist, entropy, geq_probability, normalize,
                     prob_dep, prob_ind, uniform_pdf)

__version__ = "0.1.0"

__all__ = [
    "Candidate", "CapExceededError", "Construct", "DiscretePdf",
    "ExperimentConfig", "Interval", "KnownStore",
    "LlmOracle", "LlmOracleConfig", "OracleError",
    "Policy", "Problem", "Question", "ResponsePdf", "ScoringSpec",
    "SolveLimitError", "SolveResult", "Solver", "TableOracle", "TraceStep",
    "ValidationError", "WinnerDistribution", "brute_force_dist", "dominates",
    "eliminated_bounds", "entropy", "enumerate_candidates",
    "generate_synthetic", "geq_probability", "load_problem", "normalize",
    "prob_dep", "prob_ind", "process_responses", "qef_score",
    "question_universe", "questions_of", "run_experiment", "score_bounds",
    "select_entrred", "select_random", "snap_to_grid", "solve",
    "uniform_pdf", "unknown_questions", "write_bundle",
]
