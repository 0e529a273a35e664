"""Unit tests for experiment configuration, metrics, checkpoints, and sweeps."""

import csv
import hashlib
import json

import numpy as np
import pytest

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
    assert sorted(raised) == ["actor", "critic"]


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
        "1492269e598423f9742fe11d3282771cd47eaf190fb18c42c8e6e9a1dd303f25",
    ("null", "Av1"):
        "f9c7c9d0a714fff03a8ed5ade3e6cf02bcb361e69ee6e258ba3c79624787cf66",
    ("random", "Av2"):
        "f70eeff083ad97d89f7dbedd9033f7a7835a815bdd36a34feef1027b51f0ca4d",
    ("null", "Av2"):
        "df91d453b2d5ee54c8788683c2ae3acb7e63ef37c446ba6e40549c6581042688",
    ("random", "Av3"):
        "26bc6ab14f19c68fc7dd18a1eb67e3ccdb7c3ff5cf781a9f727b91c1c663dfea",
    ("null", "Av3"):
        "362dd638ccd4b07033132763df49c077122d80e2eb79f1367ca1007dd5f47166",
}


@pytest.mark.parametrize("kind,profile", sorted(PINNED_BASELINES))
def test_baseline_reports_are_pinned(tmp_path, kind, profile):
    cfg = ExperimentConfig(profile=profile, eval_episodes=300)
    if kind == "random":
        report = random_baseline(cfg, seed=7)
    else:
        report = evaluate_policy(lambda obs, rng: 0, cfg, seed=7)
    out = tmp_path / "report.csv"
    report.write_csv(out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINNED_BASELINES[kind, profile]


# sha256 of metrics.csv and checkpoint-seed0.json for a short Av3 run per
# algorithm. Epsilon decays within the first epoch and the replay ring wraps,
# so DQN exploits, updates and samples across the ring's seam; any change to
# the learners' float operations, their order, or the draws moves these.
PINNED_TRAINING = {
    ("dqn", "metrics.csv"):
        "4097a2b320ab46cc3bd959dd699b51fb48febb3730a1a340c69c45f71e1ff95d",
    ("dqn", "checkpoint-seed0.json"):
        "140f6ee76c35bbcd74f37c65a81b4bc3647136be636eb2aa2aa2e0f5d3ad40fa",
    ("a2c", "metrics.csv"):
        "4b1062f5b141284e3fd2600d27256aa0ba670155204e8e33b127a86c0f341c61",
    ("a2c", "checkpoint-seed0.json"):
        "3a0a45cb2e15e167039b0cc3351fd27c9bc063a57b67dad951d847bf53d18da7",
    ("a3c", "metrics.csv"):
        "2c13d9366bf2329c122aaf9938f475aec43b25230db9b9b525b1e266ac66603a",
    ("a3c", "checkpoint-seed0.json"):
        "c4f2fc51a909708efb6727cadbdff26c795969ac53a3275fabc135b5f72786e9",
    ("ppo", "metrics.csv"):
        "63864a8346e8dfcd1f78a0d3f5d26fffc4caa1acd9e81df6b277a3382862b3ba",
    ("ppo", "checkpoint-seed0.json"):
        "edd5527cea66302bbc3b8691aa23442bd40b551e428a04c61fa2b4293c746544",
}

# sha256 of EvalReport.write_csv for 300 episodes at seed 7 of each pinned
# checkpoint: the greedy or mode policy acts through the trained net's
# forward_table rows, so a change to its input rows or that table moves these.
PINNED_CHECKPOINT_EVAL = {
    "dqn": "7db9ee8ad788f4ba470422d362e28f791515971b1bb9605a594003a114025771",
    "a2c": "cc4cae7ea819b6bdb29122bf88797280812b0f01180edb21c9234d6201ae41f7",
    "a3c": "7f095239269de939601d46627cb3e946f562b4e39d4edb1fec16a615c2e11bee",
    "ppo": "3a8f316bd03fb0575c0b025c1a476e67814f6ba59ed82caaa1ca5530d086103e",
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
