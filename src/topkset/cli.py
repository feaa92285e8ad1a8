"""Command line entry points: solve a dataset, run experiments, generate data.

Exit codes: 0 success, 2 validation problem, 3 oracle failure.
"""

from __future__ import annotations

import json
import sys

import click

from .engine import Policy, SolveLimitError, solve
from .harness import (ExperimentConfig, generate_synthetic, load_problem,
                      run_experiment, write_bundle)
from .model import ValidationError
from .oracle import LlmOracle, LlmOracleConfig, OracleError, TableOracle
from .winner import CapExceededError

_POLICY_TOKENS = {p.value: p for p in Policy}


@click.group()
def main():
    """Top-k set query engine with oracle-call-frugal question selection."""


@main.command("solve")
@click.option("--dataset", "dataset_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--k", required=True, type=int)
@click.option("--candidates", "candidate_cap", type=int, default=None,
              help="Cap the candidate list at this many entries.")
@click.option("--policy", type=click.Choice(sorted(_POLICY_TOKENS)),
              default=Policy.ENTRRED_DEP.value)
@click.option("--oracle", "oracle_kind", type=click.Choice(["table", "llm"]),
              default="table")
@click.option("--llm-config", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file with the LLM client settings.")
@click.option("--seed", type=int, default=0)
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False),
              default=None)
@click.option("--max-calls", type=int, default=None)
def solve_cmd(dataset_dir, k, candidate_cap, policy, oracle_kind, llm_config,
              seed, trace_path, max_calls):
    """Answer the query for one dataset and print the exact winner."""
    problem = load_problem(dataset_dir, k, candidate_cap,
                           require_ground_truth=(oracle_kind == "table"))
    if oracle_kind == "table":
        oracle = TableOracle(problem.ground_truth or {})
    else:
        if not llm_config:
            raise ValidationError("--oracle llm needs --llm-config")
        cfg = LlmOracleConfig.from_json(llm_config)
        oracle = LlmOracle(cfg, problem.spec, problem.query_text,
                           problem.entity_context)
    result = solve(problem, _POLICY_TOKENS[policy], oracle, seed=seed,
                   max_calls=max_calls, trace_path=trace_path)
    click.echo(f"winner: {{{', '.join(result.winner.members)}}}")
    click.echo(f"oracleCalls: {result.oracle_calls}")
    click.echo("perTaskNanos: " + json.dumps(result.per_task_nanos))
    if trace_path:
        click.echo(f"trace: {trace_path}")


@main.command("experiment")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def experiment_cmd(config_path, out_dir):
    """Run the seeded policy comparison described by a JSON config."""
    cfg = ExperimentConfig.from_json(config_path)
    paths = run_experiment(cfg, out_dir)
    for name, p in paths.items():
        click.echo(f"{name}: {p}")


@main.command("gen")
@click.option("--n", required=True, type=int)
@click.option("--k", required=True, type=int)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--step", type=float, default=0.5)
@click.option("--candidates", "candidate_cap", type=int, default=None)
@click.option("--unknown", "unknown_count", type=int, default=None,
              help="Leave exactly this many questions initially unknown.")
def gen_cmd(n, k, seed, out_dir, step, candidate_cap, unknown_count):
    """Write a seeded synthetic dataset directory."""
    from .harness import default_spec
    problem = generate_synthetic(n, k, candidate_cap=candidate_cap, seed=seed,
                                 spec=default_spec(step),
                                 unknown_count=unknown_count)
    root = write_bundle(problem, out_dir)
    click.echo(f"dataset: {root}")


def entrypoint(argv=None) -> int:
    try:
        main.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 2
    except (ValidationError, CapExceededError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (OracleError, SolveLimitError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(entrypoint())
