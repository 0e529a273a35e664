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
from cyberdefsim import environment, harness
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


@pytest.mark.parametrize("risk_mode", ["residual", "action_aware"])
def test_the_ideal_return_is_the_mean_over_the_test_paths(tmp_path, risk_mode):
    # each proactive action its own block odds, so the residual skill of the
    # ideal episode differs by a path's first technique
    doc = json.loads(default_catalog_path().read_text())
    for action in doc["actions"][2:]:
        action["block_prob"] = 0.5 + 0.02 * action["id"]
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(doc))
    cfg = tiny_config(tmp_path, catalog=str(catalog), risk_mode=risk_mode)
    graph = cfg.load_graph()
    env_cfg = cfg.env_config(graph, cfg.load_catalog(graph), 0)
    best = environment.best_block_table(env_cfg.catalog, graph)
    _, test_paths = split_for_config(cfg, graph)
    profile, model = env_cfg.profile, env_cfg.reward_model
    rho = {p.steps[0]: (1.0 - best[p.steps[0]]) * profile.rho
           if risk_mode == "residual" else 0.0 for p in test_paths}
    assert len(set(rho.values())) == (2 if risk_mode == "residual" else 1)
    want = float(np.mean([environment.scripted_best_return(
        p, profile, model, residual_rho=rho[p.steps[0]]) for p in test_paths]))
    report = evaluate_policy(lambda obs, rng: 0, cfg, episodes=5)
    assert report.best_return == want


# sha256 of EvalReport.write_csv for 300 episodes at seed 7. These reports
# run no network, so any change to the simulator's draws, their order, or the
# episode loop's path draws moves them.
PINNED_BASELINES = {
    ("random", "Av1"):
        "2f96ab025094532399da8a45c38d9461243f45ec755d7956c81255b3e2278c2f",
    ("null", "Av1"):
        "844860167e8bbd98fb0196a7f1d9c6bca5cfaf47d17bd2709391eaeb40004e40",
    ("random", "Av2"):
        "b2f5c6022984167cd998702afe322ccdbc25724200f7f4d80faf18d561a8db52",
    ("null", "Av2"):
        "249cfefdb11abecf5bd9e42ee7efd31c7f86126e93e09121e53750a06a3d4a9d",
    ("random", "Av3"):
        "9b0535c70a9a25ff04eed0cdd940cf760e4680abe36f3276bec1045bfee8e902",
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
        "c3a418f13d87b3199dcfdb6fd370f5d37b59b87ff0cc8936916dc65e013e94f5",
    ("dqn", "checkpoint-seed0.json"):
        "68ce9a77f46218ffb9521c834e02e56d40a6d3e20b084b5cb52f4f19678e3150",
    ("a2c", "metrics.csv"):
        "5f6d5c31bbe964c9a6a50e6555fe90a9f647b4a604605578cdf4517a74bd086f",
    ("a2c", "checkpoint-seed0.json"):
        "83b2395817362a38613cc716654edc94eeb9a38725195e72fdfd72e41e626635",
    ("a3c", "metrics.csv"):
        "d19a0ce970142567eb19256c663b54623f5c548294db528e53a3b0031d375a5d",
    ("a3c", "checkpoint-seed0.json"):
        "28136329e1c65d257d38de6cdea4d012f214cfeccd44ec2fc7d941894855787a",
    ("ppo", "metrics.csv"):
        "bca782ac5933f7bcaae7a0595f4f035a2ba6db6447dacea4c1bf9f9fd3e63744",
    ("ppo", "checkpoint-seed0.json"):
        "0efec1c246722b7cfe901a5b56f1edeca228a81f51e98608073ce9da5701bdb4",
}

# sha256 of EvalReport.write_csv for 300 episodes at seed 7 of each pinned
# checkpoint: the greedy or mode policy acts through the trained net's
# forward_table rows, so a change to its input rows or that table moves these.
PINNED_CHECKPOINT_EVAL = {
    "dqn": "6d54fb42443fb3bb115a0173a687b404b3c6652b9960ff365aac5bedc1168365",
    "a2c": "b18793842ea83f3cc18558e1629094e6d3f7ca28de125abd8b7073525e3f18f3",
    "a3c": "765c75853b99b2d863ddb2df7acdb386c794df7e840b256e000cc1f8c157c83e",
    "ppo": "c97671dadea07e889e62e7508efa7fcf07a8f5ddd95ab8c7ff33bf44f5327d69",
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
