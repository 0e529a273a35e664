"""Experiment orchestration: training runs, batch metrics, evaluation, sweeps."""

from __future__ import annotations

import csv
import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .adversary import AdversaryProfile, profile_by_name
from .agents.a2c import A2CTrainer
from .agents.a3c import A3CTrainer
from .agents.common import (
    EpisodeRunner,
    HyperParams,
    argmax_policy,
    random_policy,
)
from .agents.dqn import DqnAgent, DqnTrainer
from .agents.ppo import PPOTrainer
from .attack_graph import AttackGraph, load_graph, read_json, split_paths
from .defense import DefenseCatalog, load_catalog
from .environment import (
    CyberDefenseEnv,
    EnvConfig,
    RISK_RESIDUAL,
    RewardModel,
    best_block_table,
    scripted_best_return,
)
from .neural_net import net_from_dict, net_to_dict

ALGORITHMS = ("dqn", "a2c", "a3c", "ppo")
METRICS_COLUMNS = ("seed", "batch", "episodes", "wins", "dwr", "mean_return",
                   "mean_len")


class ConfigError(ValueError):
    """Bad experiment configuration or referenced file."""


def default_graph_path() -> Path:
    return Path(resources.files("cyberdefsim").joinpath("data/attack_graph.default"))


def default_catalog_path() -> Path:
    return Path(resources.files("cyberdefsim").joinpath("data/defense_catalog.default"))


@dataclass
class ExperimentConfig:
    algorithm: str = "dqn"
    profile: str | dict = "Av1"
    hyperparams: dict = field(default_factory=dict)
    graph: str | None = None
    catalog: str | None = None
    seeds: list[int] = field(default_factory=lambda: [0])
    train_fraction: float = 0.8
    split_seed: int = 0
    output_dir: str = "runs"
    horizon: int = 64
    impact: float = 10.0
    literal_iv: bool = False
    risk_mode: str = "residual"
    eval_episodes: int = 1000
    batch_episodes: int = 200

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if not (isinstance(self.seeds, list) and self.seeds
                and all(type(s) is int and s >= 0 for s in self.seeds)):
            raise ConfigError("seeds must be a non-empty list of integers >= 0")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"repeated seed in seeds={self.seeds}")
        for name in ("eval_episodes", "batch_episodes"):
            if type(getattr(self, name)) is not int or getattr(self, name) < 1:
                raise ConfigError(f"{name} must be an integer >= 1")
        if not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a path")
        for path in (self.graph, self.catalog):
            if path is not None and not (isinstance(path, str)
                                         and Path(path).exists()):
                raise ConfigError(f"referenced file does not exist: {path}")
        # graph-free stand-ins run only the settings' own checks in
        # EnvConfig, RewardModel and split_paths
        for name, resolve in (
                ("profile", self.resolved_profile),
                ("hyperparams", self.resolved_hp),
                ("environment", lambda: self.env_config(None, None, 0)),
                ("split", lambda: split_paths([None], self.train_fraction,
                                              self.split_seed))):
            try:
                resolve()
            except (TypeError, ValueError, KeyError) as exc:
                detail = exc.args[0] if isinstance(exc, KeyError) else exc
                raise ConfigError(f"bad {name}: {detail}") from exc

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            doc = read_json(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def resolved_profile(self) -> AdversaryProfile:
        if isinstance(self.profile, str):
            return profile_by_name(self.profile)
        return AdversaryProfile(**self.profile)

    def resolved_hp(self) -> HyperParams:
        return HyperParams().with_overrides(**self.hyperparams)

    def env_config(self, graph, catalog, seed) -> EnvConfig:
        model = RewardModel(impact=self.impact, literal_iv=self.literal_iv)
        return EnvConfig(graph=graph, catalog=catalog,
                         profile=self.resolved_profile(), reward_model=model,
                         horizon=self.horizon, seed=seed, risk_mode=self.risk_mode)

    def load_graph(self) -> AttackGraph:
        return load_graph(self.graph or default_graph_path())

    def load_catalog(self, graph: AttackGraph) -> DefenseCatalog:
        return load_catalog(self.catalog or default_catalog_path(), graph)


def mean_reward_percent(mean_return: float, best_return: float) -> float:
    """Reward achieved relative to the ideal stop-everything-immediately episode."""
    if best_return <= 0:
        raise ValueError(
            f"best_return must be positive (got {best_return}); "
            "reward configuration is degenerate"
        )
    return 100.0 * max(0.0, mean_return / best_return)


class BatchRecorder:
    """Aggregates completed episodes into fixed-size batch metric rows."""

    def __init__(self, seed: int, batch_episodes: int, writer):
        self.seed = seed
        self.batch_episodes = batch_episodes
        self.writer = writer
        self._wins = 0
        self._returns: list[float] = []
        self._lengths: list[int] = []
        self._batch = 0

    def __call__(self, win: bool, episode_return: float, episode_length: int,
                 info: dict):
        self._wins += bool(win)
        self._returns.append(episode_return)
        self._lengths.append(episode_length)
        if len(self._returns) == self.batch_episodes:
            row = {
                "seed": self.seed,
                "batch": self._batch,
                "episodes": self.batch_episodes,
                "wins": self._wins,
                "dwr": self._wins / self.batch_episodes,
                "mean_return": float(np.mean(self._returns)),
                "mean_len": float(np.mean(self._lengths)),
            }
            self.writer(row)
            self._batch += 1
            self._wins = 0
            self._returns = []
            self._lengths = []


def _format_row(row: dict) -> list[str]:
    """Counts as integers, then dwr, mean_return and mean_len to 6 places."""
    return ([str(row[k]) for k in METRICS_COLUMNS[:4]]
            + [f"{row[k]:.6f}" for k in METRICS_COLUMNS[4:]])


def _build_runners(config: ExperimentConfig, graph, catalog, hp, train_paths,
                   seed, on_episode_end):
    n_envs = 1 if config.algorithm == "dqn" else hp.num_workers
    seq = np.random.SeedSequence([seed, 0xE0A])
    env_seeds = seq.spawn(n_envs)
    runners = []
    for i, env_seed in enumerate(env_seeds):
        env = CyberDefenseEnv(config.env_config(graph, catalog, env_seed))
        path_rng = np.random.default_rng([i, seed, 0xA17])
        runners.append(
            EpisodeRunner(env, train_paths, path_rng, on_episode_end=on_episode_end)
        )
    return runners


def make_trainer(algorithm: str, runners, hp: HyperParams, seed):
    if algorithm == "dqn":
        agent = DqnAgent(
            runners[0].env.observation_dim, runners[0].env.action_count, hp, seed
        )
        return DqnTrainer(runners[0], agent)
    trainers = {"a2c": A2CTrainer, "a3c": A3CTrainer, "ppo": PPOTrainer}
    if algorithm not in trainers:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    return trainers[algorithm](runners, hp, seed)


def _trainer_networks(algorithm: str, trainer) -> dict:
    if algorithm == "dqn":
        return {"qnet": net_to_dict(trainer.agent.qnet)}
    return {
        "actor": net_to_dict(trainer.actor),
        "critic": net_to_dict(trainer.critic),
    }


def save_checkpoint(path, algorithm: str, hp: HyperParams, training_step: int,
                    networks: dict) -> None:
    doc = {
        "algorithm": algorithm,
        "hyperparams": asdict(hp),
        "training_step": training_step,
        "networks": networks,
    }
    # write beside the target, then rename over it: a crash mid-write leaves
    # the previous checkpoint intact, never a truncated one
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> dict:
    """Read a checkpoint; anything malformed raises ConfigError naming the file."""
    try:
        doc = read_json(path)
        doc["networks"] = {k: net_from_dict(v) for k, v in doc["networks"].items()}
        _policy_net(doc)
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"bad checkpoint {path}: {detail}") from exc
    return doc


def _policy_net(checkpoint: dict):
    return checkpoint["networks"][
        "qnet" if checkpoint["algorithm"] == "dqn" else "actor"]


def checkpoint_policy(path, obs_dim: int, n_actions: int):
    """Greedy (value) or mode (policy) action rule from a checkpoint file;
    its net must take obs_dim-wide input rows to n_actions outputs."""
    net = _policy_net(load_checkpoint(path))
    if (net.dims[0], net.dims[-1]) != (obs_dim, n_actions):
        raise ConfigError(
            f"bad checkpoint {path}: its net maps {net.dims[0]} inputs to "
            f"{net.dims[-1]} actions, the environment has {obs_dim} "
            f"observations and {n_actions} actions")
    return argmax_policy(net)


def split_for_config(config: ExperimentConfig, graph: AttackGraph):
    paths = graph.enumerate_paths()
    return split_paths(paths, config.train_fraction, config.split_seed)


def train(config: ExperimentConfig, run_dir=None) -> Path:
    """Run the configured training for every seed; returns the run directory.

    Outputs: metrics.csv (one row per completed episode batch, per seed) and
    checkpoint-seed<N>.json refreshed at every epoch boundary.
    """
    graph = config.load_graph()
    catalog = config.load_catalog(graph)
    hp = config.resolved_hp()
    train_paths, _ = split_for_config(config, graph)
    if not train_paths:
        raise ConfigError("empty training split")

    run_dir = Path(run_dir or config.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = run_dir / "metrics.csv"

    with metrics_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)

        for seed in config.seeds:
            recorder = BatchRecorder(
                seed, config.batch_episodes,
                writer=lambda row: writer.writerow(_format_row(row)),
            )
            runners = _build_runners(
                config, graph, catalog, hp, train_paths, seed, recorder
            )
            trainer = make_trainer(config.algorithm, runners, hp, seed)
            ckpt_path = run_dir / f"checkpoint-seed{seed}.json"
            steps_done = 0
            for _epoch in range(hp.epochs):
                trainer.run(hp.steps_per_epoch)
                steps_done += hp.steps_per_epoch
                save_checkpoint(
                    ckpt_path, config.algorithm, hp, steps_done,
                    _trainer_networks(config.algorithm, trainer),
                )
    return run_dir


@dataclass
class EvalReport:
    episodes: int
    dwr: float
    histogram: dict[int, float]  # stop depth -> fraction (goal depth = loss)
    cumulative_t3: float
    cumulative_t6: float
    mean_return: float
    best_return: float
    mean_reward_pct: float

    def to_text(self) -> str:
        lines = [
            f"episodes:          {self.episodes}",
            f"defense win ratio: {self.dwr:.4f}",
            f"stopped by T3:     {100 * self.cumulative_t3:.1f}%",
            f"stopped by T6:     {100 * self.cumulative_t6:.1f}%",
            f"mean reward:       {self.mean_reward_pct:.1f}% of best "
            f"({self.mean_return:.3f} / {self.best_return:.3f})",
            "stop-depth histogram:",
        ]
        for depth in sorted(self.histogram):
            lines.append(f"  tactic {depth}: {self.histogram[depth]:.4f}")
        return "\n".join(lines)

    def write_csv(self, path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["stop_depth", "fraction"])
            for depth in sorted(self.histogram):
                writer.writerow([depth, f"{self.histogram[depth]:.6f}"])
            writer.writerow(["dwr", f"{self.dwr:.6f}"])
            writer.writerow(["cumulative_t3", f"{self.cumulative_t3:.6f}"])
            writer.writerow(["cumulative_t6", f"{self.cumulative_t6:.6f}"])
            writer.writerow(["mean_reward_pct", f"{self.mean_reward_pct:.6f}"])


def _evaluate(make_policy, config: ExperimentConfig, test_paths, episodes,
              seed: int) -> EvalReport:
    """Roll `episodes` episodes of make_policy(obs_dim, n_actions) on the
    held-out paths; the policy and the path draws share one stream."""
    episodes = config.eval_episodes if episodes is None else episodes
    if type(episodes) is not int or episodes < 1:
        raise ValueError(f"episodes must be an integer >= 1, got {episodes!r}")
    graph = config.load_graph()
    catalog = config.load_catalog(graph)
    policy = make_policy(graph.state_count, len(catalog))
    if test_paths is None:
        _, test_paths = split_for_config(config, graph)
    if not test_paths:
        raise ConfigError("empty test split")
    env_cfg = config.env_config(graph, catalog,
                                np.random.SeedSequence([seed, 0xE7A]))
    rng = np.random.default_rng([seed, 0x5EED])
    wins, returns, stop_depths = [], [], []

    def record(win, episode_return, _length, info):
        wins.append(win)
        returns.append(episode_return)
        stop_depths.append(info["stop_depth"] if win else graph.goal_tactic)

    runner = EpisodeRunner(CyberDefenseEnv(env_cfg), test_paths, rng,
                           on_episode_end=record)
    while len(returns) < episodes:
        runner.step(policy(runner.obs, rng))

    histogram = {d: c / episodes for d, c in sorted(Counter(stop_depths).items())}
    cum_t3 = sum(f for d, f in histogram.items() if d <= 3)
    cum_t6 = sum(f for d, f in histogram.items() if d <= 6)
    mean_return = float(np.mean(returns))
    profile, model = env_cfg.profile, env_cfg.reward_model
    best_block = best_block_table(catalog, graph)
    residual = config.risk_mode == RISK_RESIDUAL
    best = float(np.mean([
        scripted_best_return(p, profile, model, residual_rho=(
            (1.0 - best_block[p.steps[0]]) * profile.rho if residual else 0.0))
        for p in test_paths
    ]))
    return EvalReport(
        episodes=episodes,
        dwr=sum(wins) / episodes,
        histogram=histogram,
        cumulative_t3=cum_t3,
        cumulative_t6=cum_t6,
        mean_return=mean_return,
        best_return=best,
        mean_reward_pct=mean_reward_percent(mean_return, best),
    )


def evaluate_policy(policy, config: ExperimentConfig, test_paths=None,
                    episodes=None, seed: int = 0) -> EvalReport:
    return _evaluate(lambda *_dims: policy, config, test_paths, episodes,
                     seed)


def evaluate(checkpoint_path, config: ExperimentConfig, test_paths=None,
             episodes=None, seed: int = 0) -> EvalReport:
    """Greedy/mode evaluation of a checkpoint on the held-out paths."""
    return _evaluate(
        lambda *dims: checkpoint_policy(checkpoint_path, *dims),
        config, test_paths, episodes, seed)


def random_baseline(config: ExperimentConfig, episodes=None,
                    seed: int = 0) -> EvalReport:
    return _evaluate(lambda _obs_dim, n_actions: random_policy(n_actions),
                     config, None, episodes, seed)


def final_dwr(metrics_path, last_n: int = 5) -> float:
    """Mean DWR of each seed's last `last_n` batches, averaged across seeds."""
    rows_by_seed: dict[str, list[float]] = {}
    with Path(metrics_path).open() as fh:
        for row in csv.DictReader(fh):
            rows_by_seed.setdefault(row["seed"], []).append(float(row["dwr"]))
    if not rows_by_seed:
        raise ValueError(f"no completed batches in {metrics_path}")
    return float(
        np.mean([np.mean(v[-last_n:]) for v in rows_by_seed.values()])
    )


def sweep(config: ExperimentConfig, axis: str, values) -> dict:
    """Train once per axis value, one after another, into `<axis>-<value>`
    under output_dir; rank by final-5-batch mean DWR.

    Returns {"axis", "results": [(value, run_dir, final_dwr)], "winner"}.
    """
    if axis not in ("gamma", "alpha"):
        raise ConfigError(f"sweep axis must be gamma or alpha, got {axis!r}")
    values = list(values)
    if not values:
        raise ConfigError("empty sweep axis")
    if len(set(values)) < len(values):
        raise ConfigError(f"repeated value in sweep axis {axis}={values}")
    root = Path(config.output_dir)
    root.mkdir(parents=True, exist_ok=True)
    subs = [
        replace(
            config,
            hyperparams={**config.hyperparams, axis: value},
            output_dir=str(root / f"{axis}-{value}"),
        )
        for value in values
    ]
    run_dirs = [train(sub) for sub in subs]
    results = [
        (value, str(run_dir), final_dwr(run_dir / "metrics.csv"))
        for value, run_dir in zip(values, run_dirs)
    ]
    winner = max(results, key=lambda r: r[2])[0]
    hp = config.resolved_hp()
    with (root / "sweep_summary.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "alpha", "run_dir", "final5_dwr", "winner"])
        for value, run_dir, score in results:
            gamma = value if axis == "gamma" else hp.gamma
            alpha = value if axis == "alpha" else hp.alpha
            writer.writerow(
                [gamma, alpha, run_dir, f"{score:.6f}",
                 "1" if value == winner else "0"]
            )
    return {"axis": axis, "results": results, "winner": winner}
