"""Unit tests for experiment configuration, metrics, checkpoints, and sweeps."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cyberdefsim
from cyberdefsim import harness
from cyberdefsim.agents.common import HyperParams
from cyberdefsim.harness import (
    ALGORITHMS,
    BatchRecorder,
    ConfigError,
    ExperimentConfig,
    METRICS_COLUMNS,
    checkpoint_policy,
    default_catalog_path,
    default_graph_path,
    evaluate,
    evaluate_policy,
    final_dwr,
    load_checkpoint,
    mean_reward_percent,
    random_baseline,
    save_checkpoint,
    split_for_config,
    sweep,
    train,
)
from cyberdefsim.neural_net import (DivergenceError, LINEAR, init_mlp,
                                   net_to_dict)

TINY = {"epochs": 1, "steps_per_epoch": 600, "eps_decay_steps": 300}


def tiny_config(tmp_path, **kw):
    base = dict(
        algorithm="dqn", profile="Av1", hyperparams=dict(TINY),
        seeds=[0], output_dir=str(tmp_path / "run"), batch_episodes=20,
        eval_episodes=50,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# -- configuration ----------------------------------------------------------------


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(algorithm="sarsa")
    with pytest.raises(ConfigError):
        ExperimentConfig(seeds=[])
    # a repeated seed would train twice into one checkpoint and repeat its
    # rows in metrics.csv
    with pytest.raises(ConfigError, match="repeated seed"):
        ExperimentConfig(seeds=[1, 1])
    with pytest.raises(ConfigError):
        ExperimentConfig(graph=str(tmp_path / "missing.json"))


def test_config_from_json(tmp_path):
    doc = {"algorithm": "a2c", "profile": "Av2", "seeds": [3, 4]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.algorithm == "a2c"
    assert cfg.resolved_profile().name == "Av2"

    path.write_text(json.dumps({**doc, "bogus_key": 1}))
    with pytest.raises(ConfigError, match="bogus_key"):
        ExperimentConfig.from_json(path)

    path.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(path)


def test_config_resolution():
    cfg = ExperimentConfig(hyperparams={"gamma": 0.9, "alpha": 0.002})
    hp = cfg.resolved_hp()
    assert isinstance(hp, HyperParams)
    assert (hp.gamma, hp.alpha) == (0.9, 0.002)
    custom = ExperimentConfig(
        profile={"name": "X", "rho": 0.5, "tau": 2, "obs_accuracy": 0.9}
    )
    assert custom.resolved_profile().tau == 2
    graph = cfg.load_graph()
    assert len(cfg.load_catalog(graph)) == 23


def test_default_data_files_exist():
    assert default_graph_path().exists()
    assert default_catalog_path().exists()


# -- metrics ---------------------------------------------------------------------


def test_mean_reward_percent():
    assert mean_reward_percent(5.0, 10.0) == 50.0
    assert mean_reward_percent(-3.0, 10.0) == 0.0  # clamped at zero
    with pytest.raises(ValueError):
        mean_reward_percent(1.0, 0.0)


def test_batch_recorder():
    written = []
    rec = BatchRecorder(seed=3, batch_episodes=2, writer=written.append)
    rec(True, 1.0, 5, {})
    assert not written
    rec(False, 3.0, 7, {})
    rec(True, -1.0, 4, {})
    assert len(written) == 1
    row = written[0]
    assert row["seed"] == 3 and row["batch"] == 0
    assert row["wins"] == 1 and row["dwr"] == 0.5
    assert row["mean_return"] == 2.0 and row["mean_len"] == 6.0


def test_final_dwr(tmp_path):
    path = tmp_path / "metrics.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRICS_COLUMNS)
        for seed, dwrs in ((0, [0.1, 0.5, 0.9]), (1, [0.3, 0.3, 0.7])):
            for b, d in enumerate(dwrs):
                w.writerow([seed, b, 10, int(d * 10), d, 0.0, 5.0])
    assert final_dwr(path, last_n=2) == pytest.approx(
        np.mean([np.mean([0.5, 0.9]), np.mean([0.3, 0.7])])
    )
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(METRICS_COLUMNS) + "\n")
    with pytest.raises(ValueError):
        final_dwr(empty)


# -- checkpoints --------------------------------------------------------------------


def test_checkpoint_roundtrip_and_policy(tmp_path):
    net = init_mlp([17, 8, 23], LINEAR, 0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, "dqn", HyperParams(), 123, {"qnet": net_to_dict(net)})
    doc = load_checkpoint(path)
    assert doc["algorithm"] == "dqn" and doc["training_step"] == 123
    policy = checkpoint_policy(path, obs_dim=17, n_actions=23)
    assert 0 <= policy(0, np.random.default_rng(0)) < 23
    for obs_dim, n_actions in ((17, 5), (15, 23), (19, 23)):
        with pytest.raises(ConfigError, match=str(path)):
            checkpoint_policy(path, obs_dim, n_actions)


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    net = init_mlp([17, 8, 23], LINEAR, 0)
    path = tmp_path / "checkpoint-seed0.json"
    save_checkpoint(path, "dqn", HyperParams(), 1, {"qnet": net_to_dict(net)})

    def crash_mid_write(doc, fh):
        text = json.dumps(doc)
        fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    # the second save dies halfway through streaming its bytes
    monkeypatch.setattr(json, "dump", crash_mid_write)
    with pytest.raises(OSError):
        save_checkpoint(path, "dqn", HyperParams(), 2,
                        {"qnet": net_to_dict(net)})
    monkeypatch.undo()
    assert load_checkpoint(path)["training_step"] == 1
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


# -- training and evaluation ----------------------------------------------------------


def diverging(*nets, raised=None):
    """A before_apply_update hook: steps of the named nets ("actor",
    "critic") raise DivergenceError, each noted in `raised` first."""
    def hook(net):
        name = "critic" if net.dims[-1] == 1 else "actor"
        if name in nets:
            if raised is not None:
                raised.append(name)
            raise DivergenceError(f"non-finite {name} gradient")
    return hook


@pytest.mark.parametrize("algorithm", ["a2c", "a3c", "ppo"])
def test_a_critic_divergence_reaches_the_caller_and_train_runs_again(
        tmp_path, monkeypatch, before_apply_update, algorithm):
    cfg = tiny_config(tmp_path, algorithm=algorithm)
    before_apply_update(diverging("critic"))
    with pytest.raises(DivergenceError, match="critic"):
        train(cfg)
    monkeypatch.undo()
    run_dir = train(cfg)
    assert load_checkpoint(run_dir / "checkpoint-seed0.json")["training_step"] == 600


@pytest.mark.parametrize("algorithm", ["a2c", "a3c", "ppo"])
def test_when_both_nets_diverge_the_actor_error_is_raised(
        tmp_path, before_apply_update, algorithm):
    raised = []
    before_apply_update(diverging("actor", "critic", raised=raised))
    with pytest.raises(DivergenceError, match="actor"):
        train(tiny_config(tmp_path, algorithm=algorithm))
    assert raised == ["actor"]  # the critic never steps once the actor diverged


def test_train_writes_metrics_and_checkpoints(tmp_path):
    cfg = tiny_config(tmp_path, seeds=[0, 1])
    run_dir = train(cfg)
    with (run_dir / "metrics.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == set(METRICS_COLUMNS)
    assert {r["seed"] for r in rows} == {"0", "1"}
    for seed in (0, 1):
        assert (run_dir / f"checkpoint-seed{seed}.json").exists()

    report = evaluate(run_dir / "checkpoint-seed0.json", cfg)
    assert report.episodes == 50
    assert 0.0 <= report.dwr <= 1.0
    assert abs(sum(report.histogram.values()) - 1.0) < 1e-9
    assert report.cumulative_t3 <= report.cumulative_t6 <= 1.0
    text = report.to_text()
    assert "defense win ratio" in text
    out = tmp_path / "report.csv"
    report.write_csv(out)
    assert "dwr" in out.read_text()


def test_split_is_disjoint_and_seeded():
    cfg = ExperimentConfig(train_fraction=0.8, split_seed=0)
    graph = cfg.load_graph()
    train_paths, test_paths = split_for_config(cfg, graph)
    assert len(train_paths) + len(test_paths) == 504
    assert not (
        {p.steps for p in train_paths} & {p.steps for p in test_paths}
    )


def test_random_baseline_bounds(tmp_path):
    cfg = tiny_config(tmp_path)
    report = random_baseline(cfg, episodes=100)
    assert 0.0 <= report.dwr <= 1.0


@pytest.mark.parametrize("episodes", [0, -3, 2.0, True, "10", np.int64(5)])
def test_evaluation_rejects_a_bad_episode_count(tmp_path, episodes):
    cfg = tiny_config(tmp_path)
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, "dqn", HyperParams(), 0,
                    {"qnet": net_to_dict(init_mlp([17, 8, 23], LINEAR, 0))})
    for run in (lambda: evaluate(ckpt, cfg, episodes=episodes),
                lambda: evaluate_policy(lambda obs, rng: 0, cfg, episodes=episodes),
                lambda: random_baseline(cfg, episodes=episodes)):
        with pytest.raises(ValueError, match="episodes must be an integer >= 1"):
            run()


def test_evaluation_rejects_an_empty_test_split(tmp_path):
    cfg = tiny_config(tmp_path, train_fraction=0.9995)  # 504 paths split 504/0
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, "dqn", HyperParams(), 0,
                    {"qnet": net_to_dict(init_mlp([17, 8, 23], LINEAR, 0))})
    for run in (lambda: evaluate(ckpt, cfg),
                lambda: evaluate_policy(lambda obs, rng: 0, cfg),
                lambda: random_baseline(cfg)):
        with pytest.raises(ConfigError, match="empty test split"):
            run()


# sha256 of EvalReport.write_csv for 300 episodes at seed 7. These reports
# run no network, so any change to the simulator's draws, their order, or the
# episode loop's path draws moves them.
PINNED_BASELINES = {
    ("random", "Av1"):
        "b3e4b7978672887a8928c6ca5c7d496e5d483ce5a72b2327dfb773f94833b1d2",
    ("null", "Av1"):
        "b4c66967cb0c1b1ce629e2ca7444b23f0ac13c890a068e9b36aa2dc7d38d2930",
    ("random", "Av2"):
        "e4020a0089a4eedf2a6c6621a474aa3706d9f5dcada5fce2e4b4e149a3887310",
    ("null", "Av2"):
        "a43f6e12e9beb0c870784b8ed3029505f819e166366d8edf0246cb06605c9bd3",
    ("random", "Av3"):
        "b76db05636f3c691048015ebc827f8a46ab290cc2dddb3f5acccf203741af5f4",
    ("null", "Av3"):
        "362dd638ccd4b07033132763df49c077122d80e2eb79f1367ca1007dd5f47166",
}


# 300 episodes per report, but the random policy's exact DWR on Av3 is
# 0.0048 and its 300 episodes at seed 7 win none, which is the null policy's
# report byte for byte; 1,000 episodes win 2
BASELINE_EPISODES = {("random", "Av3"): 1000}


@pytest.mark.parametrize("kind,profile", sorted(PINNED_BASELINES))
def test_baseline_reports_are_pinned(tmp_path, kind, profile):
    cfg = ExperimentConfig(profile=profile,
                           eval_episodes=BASELINE_EPISODES.get((kind, profile), 300))
    if kind == "random":
        report = random_baseline(cfg, seed=7)
    else:
        report = evaluate_policy(lambda obs, rng: 0, cfg, seed=7)
    out = tmp_path / "report.csv"
    report.write_csv(out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINNED_BASELINES[kind, profile]


@pytest.mark.parametrize("profile", ["Av1", "Av2", "Av3"])
def test_random_and_null_baseline_pins_differ(profile):
    """A random-policy pin that equals the null policy's would miss most
    changes to the random policy's draws."""
    assert PINNED_BASELINES["random", profile] != PINNED_BASELINES["null", profile]


# sha256 of metrics.csv and checkpoint-seed0.json for a short Av3 run per
# algorithm. Epsilon decays within the first epoch and the replay ring wraps,
# so DQN exploits, updates and samples across the ring's seam; any change to
# the learners' float operations, their order, or the draws moves these.
PINNED_TRAINING = {
    ("dqn", "metrics.csv"):
        "e7b4041871b71ae95a89bf288ed5442ede74a62ca0e14a29aac7724daa22802c",
    ("dqn", "checkpoint-seed0.json"):
        "b4a32078e3cf8aec19029af96203b85569b44226010e0161dec660d1ad290d5e",
    ("a2c", "metrics.csv"):
        "d1bd9f5543ec9122949475cf399a264e7e51e0565057cf0919a4c333d5a39d00",
    ("a2c", "checkpoint-seed0.json"):
        "c3abfa1ab9311a7417501da75d1cab75755ce519ffb2d6eda8c32adb3b180b5b",
    ("a3c", "metrics.csv"):
        "83701e20d63b8b71bbf46c78ef940272ce6a9b2b956a0f765679390f0912b243",
    ("a3c", "checkpoint-seed0.json"):
        "ea379d12b3e14cf62190138b7ab8b8d69980f604f6f3e27e12d1330a9227c699",
    ("ppo", "metrics.csv"):
        "5a1e29221e1a1142d1bbe462b725656ca8eb5fcca14aa94dd6b32a7e4cf5d443",
    ("ppo", "checkpoint-seed0.json"):
        "9f6189433b6e12920a67ecf65606ad91de86931ec747b1e099d7f9bc605b8bf8",
}

# sha256 of EvalReport.write_csv for 300 episodes at seed 7 of each pinned
# checkpoint: the greedy or mode policy acts through the trained net's
# forward_table rows, so a change to its input rows or that table moves these.
PINNED_CHECKPOINT_EVAL = {
    "dqn": "92c40dadb8fbe12ec7687bcd07c2a0bd26c74b889dede2d58ce66178243ad705",
    "a2c": "f3178ed50cfb2d9f40910a4f6d29376c9eedf1e65ee2a4c54635a9537b58726d",
    "a3c": "59cd9a6e200d9ecb458d145cad746c7130a23c15e7016810c8a26bc41d59d6ee",
    "ppo": "a81c648a5cc5f3c918ee6198af663170b33060bac43714a7aa5208a01dd8fb23",
}


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_training_artifacts_are_pinned(tmp_path, algo):
    hp = {"epochs": 2, "steps_per_epoch": 600, "eps_decay_steps": 300,
          "replay_capacity": 500, "num_workers": 2}
    cfg = tiny_config(tmp_path, algorithm=algo, profile="Av3", hyperparams=hp)
    run_dir = train(cfg)
    for name in ("metrics.csv", "checkpoint-seed0.json"):
        digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        assert digest == PINNED_TRAINING[algo, name], name
    out = tmp_path / "report.csv"
    evaluate(run_dir / "checkpoint-seed0.json", cfg, episodes=300,
             seed=7).write_csv(out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINNED_CHECKPOINT_EVAL[algo]


def test_algorithms_tuple():
    assert ALGORITHMS == ("dqn", "a2c", "a3c", "ppo")


def test_every_algorithm_trains_and_evaluates(tmp_path):
    for algo in ALGORITHMS:
        cfg = tiny_config(
            tmp_path, algorithm=algo,
            output_dir=str(tmp_path / algo),
            hyperparams={**TINY, "num_workers": 2},
        )
        run_dir = train(cfg)
        report = evaluate(run_dir / "checkpoint-seed0.json", cfg, episodes=20)
        assert report.episodes == 20


def test_sweep_ranks_by_final_dwr(tmp_path):
    cfg = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
    result = sweep(cfg, "gamma", [0.6, 0.9])
    assert {v for v, _, _ in result["results"]} == {0.6, 0.9}
    assert result["winner"] in (0.6, 0.9)
    summary = (tmp_path / "sweep" / "sweep_summary.csv").read_text()
    assert summary.splitlines()[0] == "gamma,alpha,run_dir,final5_dwr,winner"
    with pytest.raises(ConfigError):
        sweep(cfg, "tau", [1, 2])
    with pytest.raises(ConfigError):
        sweep(cfg, "gamma", [])


def test_sweep_trains_one_value_at_a_time(tmp_path, monkeypatch):
    running = most = 0
    real_train = harness.train

    def counting_train(config):
        nonlocal running, most
        running += 1
        most = max(most, running)
        try:
            return real_train(config)
        finally:
            running -= 1

    monkeypatch.setattr(harness, "train", counting_train)
    result = sweep(tiny_config(tmp_path, output_dir=str(tmp_path / "sweep")),
                   "gamma", [0.7, 0.8])
    assert most == 1
    assert [v for v, _, _ in result["results"]] == [0.7, 0.8]


BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "2"])
def test_importing_the_package_sets_blas_to_one_thread_unless_set(preset):
    """Before numpy loads, the package sets both BLAS thread counts to 1
    where the environment names none; a count the user set stands."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = str(Path(cyberdefsim.__file__).parents[1])
    if preset:
        env.update(dict.fromkeys(BLAS_THREADS, preset))
    code = ("import os, cyberdefsim; "
            f"print(*(os.environ[k] for k in {BLAS_THREADS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout.split()
    assert out == [preset or "1"] * 2
