"""Unit tests for the simctl command line interface and its exit codes."""

import json

import pytest
from click.testing import CliRunner

from cyberdefsim.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(tmp_path, **kw):
    doc = {
        "algorithm": "dqn",
        "profile": "Av1",
        "hyperparams": {"epochs": 1, "steps_per_epoch": 500,
                        "eps_decay_steps": 300},
        "seeds": [0],
        "output_dir": str(tmp_path / "run"),
        "batch_episodes": 20,
        "eval_episodes": 30,
    }
    doc.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_paths_command(runner):
    result = runner.invoke(main, ["paths"])
    assert result.exit_code == 0
    assert "504 paths" in result.output


def test_validate_command(runner):
    result = runner.invoke(main, ["validate"])
    assert result.exit_code == 0
    assert "23 defense actions" in result.output


def test_validate_rejects_bad_graph(runner, tmp_path):
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps({"tactics": [], "techniques": [], "edges": []}))
    result = runner.invoke(main, ["validate", "--graph", str(bad)])
    assert result.exit_code == 1
    assert "error:" in result.output


def test_train_eval_cycle(runner, tmp_path):
    config = write_config(tmp_path)
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "metrics.csv" in result.output

    ckpt = tmp_path / "run" / "checkpoint-seed0.json"
    out = tmp_path / "report.csv"
    result = runner.invoke(
        main,
        ["eval", "--checkpoint", str(ckpt), "--config", str(config),
         "--episodes", "20", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "defense win ratio" in result.output
    assert out.exists()


def test_train_seed_override(runner, tmp_path):
    config = write_config(tmp_path)
    result = runner.invoke(main, ["train", "--config", str(config),
                                  "--seed", "7"])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "run" / "checkpoint-seed7.json").exists()
    assert not (tmp_path / "run" / "checkpoint-seed0.json").exists()


def test_train_bad_config_exit_code(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"algorithm": "alphago"}))
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert result.exit_code == 1
    assert "error:" in result.output

    config.write_text(json.dumps({"unknown_field": True}))
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert result.exit_code == 1


@pytest.mark.parametrize("doc", [
    {"hyperparams": {"epochz": 1}},
    {"hyperparams": {"epochs": "many"}},
    {"profile": {"name": "x", "rho": 0.5}},
    {"profile": "Av9"},
])
def test_train_rejects_bad_config_in_one_line(runner, tmp_path, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not an uncaught error
    assert result.output.startswith("error:")
    assert len(result.output.splitlines()) == 1
    assert "Traceback" not in result.output


def test_eval_missing_checkpoint(runner, tmp_path):
    config = write_config(tmp_path)
    result = runner.invoke(
        main, ["eval", "--checkpoint", str(tmp_path / "nope.json"),
               "--config", str(config)],
    )
    assert result.exit_code == 1
    assert "does not exist" in result.output


def test_sweep_command(runner, tmp_path):
    config = write_config(tmp_path, output_dir=str(tmp_path / "sweep"))
    result = runner.invoke(main, ["sweep", "--config", str(config),
                                  "--axis", "gamma=0.7,0.9"])
    assert result.exit_code == 0, result.output
    assert "winner: gamma=" in result.output
    assert (tmp_path / "sweep" / "sweep_summary.csv").exists()


def test_sweep_bad_axis(runner, tmp_path):
    config = write_config(tmp_path)
    for axis in ("gamma", "gamma=a,b", "tau=1,2"):
        result = runner.invoke(main, ["sweep", "--config", str(config),
                                      "--axis", axis])
        assert result.exit_code == 1, axis
