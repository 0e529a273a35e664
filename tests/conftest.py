"""Shared fixtures; training runs are cached per session and reused across tests."""

from __future__ import annotations

import pytest

from cyberdefsim.agents import a2c, a3c, ppo
from cyberdefsim.attack_graph import load_graph
from cyberdefsim.defense import load_catalog
from cyberdefsim.harness import (
    ExperimentConfig,
    default_catalog_path,
    default_graph_path,
    evaluate,
    train,
)
from cyberdefsim.neural_net import apply_update

# 1/50-scale training: full-length batches but minutes, not hours
DESK = {"epochs": 20, "steps_per_epoch": 2500}


@pytest.fixture
def before_apply_update(monkeypatch):
    """install(hook): every actor-critic learner's apply_update calls
    hook(net) first, on the thread that steps the net."""
    def install(hook):
        def patched(net, opt, grads):
            hook(net)
            return apply_update(net, opt, grads)
        for module in (a2c, a3c, ppo):
            monkeypatch.setattr(module, "apply_update", patched)
    return install


@pytest.fixture(scope="session")
def default_graph():
    return load_graph(default_graph_path())


@pytest.fixture(scope="session")
def default_catalog(default_graph):
    return load_catalog(default_catalog_path(), default_graph)


@pytest.fixture(scope="session")
def run_root(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


class RunCache:
    """Train-once storage so several tests can share expensive runs."""

    def __init__(self, root):
        self.root = root
        self._dirs: dict[str, object] = {}

    def config(self, key: str, **kw) -> ExperimentConfig:
        return ExperimentConfig(output_dir=str(self.root / key), **kw)

    def train(self, key: str, **kw) -> ExperimentConfig:
        cfg = self.config(key, **kw)
        if key not in self._dirs:
            self._dirs[key] = train(cfg)
        return cfg

    def metrics(self, key: str):
        return self.root / key / "metrics.csv"

    def eval_seed(self, key: str, cfg: ExperimentConfig, seed: int):
        return evaluate(self.root / key / f"checkpoint-seed{seed}.json", cfg)


@pytest.fixture(scope="session")
def run_cache(run_root):
    return RunCache(run_root)


@pytest.fixture(scope="session")
def dqn_av1_runs(run_cache):
    """Desk-scale DQN vs the weakest adversary profile, five seeds."""
    cfg = run_cache.train(
        "dqn-av1",
        algorithm="dqn",
        profile="Av1",
        hyperparams={**DESK, "gamma": 0.8, "alpha": 0.01,
                     "eps_decay_steps": 6000, "double_dqn": True},
        seeds=[0, 1, 2, 3, 4],
    )
    return "dqn-av1", cfg


@pytest.fixture(scope="session")
def dqn_av3_runs(run_cache):
    """Same training recipe against the most persistent profile."""
    cfg = run_cache.train(
        "dqn-av3",
        algorithm="dqn",
        profile="Av3",
        hyperparams={**DESK, "gamma": 0.8, "alpha": 0.01,
                     "eps_decay_steps": 6000, "double_dqn": True},
        seeds=[0, 1, 2, 3, 4],
    )
    return "dqn-av3", cfg


@pytest.fixture(scope="session")
def algorithm_comparison_runs(run_cache):
    """All four algorithms vs the hardest profile with shared hyperparameters."""
    shared = {**DESK, "gamma": 0.8, "alpha": 0.005, "eps_decay_steps": 10000}
    out = {}
    for algo in ("dqn", "a2c", "a3c", "ppo"):
        key = f"compare-{algo}-av3"
        cfg = run_cache.train(
            key, algorithm=algo, profile="Av3", hyperparams=dict(shared),
            seeds=[0, 1, 2],
        )
        out[algo] = (key, cfg)
    return out
