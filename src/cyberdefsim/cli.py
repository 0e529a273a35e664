"""`simctl` command line front-end for the training/evaluation harness.

Exit codes: 0 success, 1 usage, configuration or file error, 2 training
divergence.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import click

from .attack_graph import load_graph
from .defense import load_catalog
from .harness import ExperimentConfig, default_catalog_path, default_graph_path
from .harness import evaluate as harness_evaluate
from .harness import sweep as harness_sweep
from .harness import train as harness_train
from .neural_net import DivergenceError

USAGE_ERROR = 1
DIVERGENCE = 2


def _fail(message: str, code: int = USAGE_ERROR):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Simctl(click.Group):
    """Ends every command's failure in one `error:` line and its exit code.

    ValueError covers ConfigError, GraphError and CatalogError; a broken
    stdout pipe goes on to click, which exits quietly."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DivergenceError as exc:
            _fail(f"training diverged: {exc}", DIVERGENCE)
        except BrokenPipeError:
            raise
        except (ValueError, KeyError, OSError) as exc:
            _fail(str(exc))


@click.group(cls=_Simctl)
def main():
    """Cyber-defense simulation laboratory."""


@main.command()
@click.option("--graph", "graph_path", default=None,
              help="Attack graph document (defaults to the built-in graph).")
def paths(graph_path):
    """Enumerate every attack path in a graph."""
    enumerated = load_graph(graph_path or default_graph_path()).enumerate_paths()
    for path in enumerated:
        click.echo(" -> ".join(str(t) for t in path.steps))
    click.echo(f"{len(enumerated)} paths "
               f"(lengths {min(len(p) for p in enumerated)}"
               f"..{max(len(p) for p in enumerated)})")


@main.command()
@click.option("--graph", "graph_path", default=None,
              help="Attack graph document (defaults to the built-in graph).")
@click.option("--catalog", "catalog_path", default=None,
              help="Defense catalog document (defaults to the built-in catalog).")
def validate(graph_path, catalog_path):
    """Check a graph and catalog for structural consistency."""
    graph = load_graph(graph_path or default_graph_path())
    catalog = load_catalog(catalog_path or default_catalog_path(), graph)
    n_paths = len(graph.enumerate_paths())
    click.echo(
        f"ok: {len(graph.techniques)} techniques, {graph.state_count} states, "
        f"{n_paths} paths, {len(catalog)} defense actions"
    )


@main.command()
@click.option("--config", "config_path", required=True,
              help="Experiment configuration document (JSON).")
@click.option("--seed", type=int, default=None,
              help="Override the configured seed list with a single seed.")
def train(config_path, seed):
    """Train an agent and write metrics.csv plus per-seed checkpoints."""
    config = ExperimentConfig.from_json(config_path)
    if seed is not None:
        config = replace(config, seeds=[seed])
    run_dir = harness_train(config)
    click.echo(f"run complete: {run_dir / 'metrics.csv'}")


@main.command("eval")
@click.option("--checkpoint", "checkpoint_path", required=True,
              help="Checkpoint written by `simctl train`.")
@click.option("--config", "config_path", required=True,
              help="Experiment configuration document (JSON).")
@click.option("--episodes", type=int, default=None,
              help="Override the configured evaluation episode count.")
@click.option("--out", "out_path", default=None,
              help="Also write the report as CSV to this path.")
def eval_cmd(checkpoint_path, config_path, episodes, out_path):
    """Evaluate a checkpoint on the held-out attack paths."""
    config = ExperimentConfig.from_json(config_path)
    if episodes is not None and episodes < 1:
        _fail(f"--episodes must be at least 1, got {episodes}")
    if not Path(checkpoint_path).exists():
        _fail(f"checkpoint does not exist: {checkpoint_path}")
    report = harness_evaluate(checkpoint_path, config, episodes=episodes)
    # write first, so an unwritable --out ends in the error line alone
    if out_path:
        report.write_csv(out_path)
    click.echo(report.to_text())
    if out_path:
        click.echo(f"wrote {out_path}")


@main.command()
@click.option("--config", "config_path", required=True,
              help="Experiment configuration document (JSON).")
@click.option("--axis", required=True,
              help="Sweep axis, e.g. gamma=0.6,0.7,0.8,0.9 or alpha=0.005,0.01.")
def sweep(config_path, axis):
    """Train once per axis value and rank by final defense win ratio."""
    config = ExperimentConfig.from_json(config_path)
    if "=" not in axis:
        _fail("axis must look like name=v1,v2,... (e.g. gamma=0.6,0.7)")
    name, _, raw = axis.partition("=")
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        _fail(f"non-numeric axis value in {raw!r}")
    result = harness_sweep(config, name.strip(), values)
    for value, run_dir, score in result["results"]:
        marker = " *" if value == result["winner"] else ""
        click.echo(f"{name}={value}: final dwr {score:.4f} ({run_dir}){marker}")
    click.echo(f"winner: {name}={result['winner']}")


if __name__ == "__main__":
    main()
