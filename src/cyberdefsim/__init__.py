"""Cyber-defense reinforcement-learning laboratory.

A tactic-staged attack-graph simulator, a scripted adversary, a defense-action
catalog, and from-scratch deep RL agents (DQN, A2C, A3C, PPO) with a batch
training/evaluation harness and the `simctl` command line tool.
"""

import os

# BLAS on one thread unless the user set a count: the nets are small. numpy
# reads these once, as it loads.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .adversary import AdversaryProfile, builtin_profiles, profile_by_name
from .attack_graph import AttackGraph, AttackPath, GraphError, load_graph, split_paths
from .defense import CatalogError, DefenseCatalog, load_catalog
from .environment import (
    ADVERSARY_WIN,
    CyberDefenseEnv,
    DEFENDER_WIN,
    EnvConfig,
    RewardModel,
    TRUNCATED,
    compute_p_goal,
)
from .harness import (
    ConfigError,
    EvalReport,
    ExperimentConfig,
    evaluate,
    sweep,
    train,
)
from .neural_net import DivergenceError

__all__ = [
    "AdversaryProfile",
    "AttackGraph",
    "AttackPath",
    "CatalogError",
    "ConfigError",
    "CyberDefenseEnv",
    "DefenseCatalog",
    "DivergenceError",
    "EnvConfig",
    "EvalReport",
    "ExperimentConfig",
    "GraphError",
    "RewardModel",
    "ADVERSARY_WIN",
    "DEFENDER_WIN",
    "TRUNCATED",
    "builtin_profiles",
    "compute_p_goal",
    "evaluate",
    "load_catalog",
    "load_graph",
    "profile_by_name",
    "split_paths",
    "sweep",
    "train",
]

__version__ = "0.1.0"
