"""Command line entry points: solve a dataset, run experiments, generate data.

Exit codes: 0 success, 2 validation problem, 3 oracle failure, 130
interrupted (Ctrl-C).
"""

from __future__ import annotations

import json
import sys

import click

from .engine import Policy, SolveLimitError, solve
from .harness import (ExperimentConfig, default_spec, generate_synthetic,
                      load_problem, run_experiment, write_bundle)
from .model import ValidationError
from .oracle import LlmOracle, LlmOracleConfig, OracleError, TableOracle

@click.group()
def main():
    """Top-k set query engine with oracle-call-frugal question selection."""


@main.command("solve")
@click.option("--dataset", "dataset_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--k", required=True, type=int)
@click.option("--candidates", "candidate_cap", type=int, default=None,
              help="Cap the candidate list at this many entries.")
@click.option("--policy", type=click.Choice(sorted(p.value for p in Policy)),
              default=Policy.ENTRRED_DEP.value)
@click.option("--llm-config", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file with the LLM client settings; "
                                 "without it the ground truth answers.")
@click.option("--seed", type=int, default=0)
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False),
              default=None)
@click.option("--max-calls", type=int, default=None)
def solve_cmd(dataset_dir, k, candidate_cap, policy, llm_config, seed,
              trace_path, max_calls):
    """Answer the query for one dataset and print the exact winner."""
    problem = load_problem(dataset_dir, k, candidate_cap,
                           require_ground_truth=not llm_config)
    if llm_config:
        oracle = LlmOracle(LlmOracleConfig.from_json(llm_config), problem.spec,
                           problem.query_text, problem.entity_context)
    else:
        oracle = TableOracle(problem.ground_truth)
    result = solve(problem, Policy(policy), oracle, seed=seed,
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
              help="Leave this many questions initially unknown, or every "
                   "question when there are fewer.")
def gen_cmd(n, k, seed, out_dir, step, candidate_cap, unknown_count):
    """Write a seeded synthetic dataset directory."""
    problem = generate_synthetic(n, k, candidate_cap=candidate_cap, seed=seed,
                                 spec=default_spec(step),
                                 unknown_count=unknown_count)
    try:
        root = write_bundle(problem, out_dir)
    except OSError as exc:
        raise ValidationError(
            f"cannot write dataset {out_dir}: {exc.strerror}") from None
    click.echo(f"dataset: {root}")


def entrypoint(argv=None) -> int:
    try:
        return main.main(args=argv, standalone_mode=False) or 0
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 2
    except ValidationError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (OracleError, SolveLimitError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except click.exceptions.Abort:
        # What click makes of a KeyboardInterrupt.
        click.echo("error: interrupted", err=True)
        return 130


if __name__ == "__main__":
    sys.exit(entrypoint())
