"""End-to-end acceptance suite.

One test per release criterion, each checked against an independent oracle or
a pre-registered empirical threshold. Training-dependent criteria share the
session-scoped cached runs from conftest.
"""

from __future__ import annotations

import csv
import json
import threading

import numpy as np
import pytest
from scipy import stats

import oracles
from cyberdefsim.adversary import AdversaryProfile, attempt, builtin_profiles
from cyberdefsim.agents.a2c import A2CTrainer
from cyberdefsim.agents.a3c import A3CTrainer, ParameterServer, a3c_worker_step
from cyberdefsim.agents.common import (
    EpisodeRunner,
    HyperParams,
    act_epsilon_greedy,
    epsilon,
)
from cyberdefsim.agents.dqn import DqnAgent, DqnTrainer
from cyberdefsim.agents.ppo import PPOTrainer
from cyberdefsim.attack_graph import AttackPath, AttackState, load_graph
from cyberdefsim.defense import sample_interruptions
from cyberdefsim.environment import (
    ADVERSARY_WIN,
    DEFENDER_WIN,
    ONGOING,
    RewardModel,
    TRUNCATED,
    compute_p_goal,
    observe,
    reward_of_transition,
)
from cyberdefsim.harness import (
    default_graph_path,
    evaluate,
    evaluate_policy,
    split_for_config,
    train,
)
from cyberdefsim.neural_net import (
    LINEAR,
    SOFTMAX,
    forward,
    backward,
    init_mlp,
)

from cyberdefsim.agents.common import random_policy


def _verdict(criterion: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {status}: {detail}")
    assert ok, f"[{criterion}] FAIL: {detail}"


# -- 1. reward formula ---------------------------------------------------------


def test_criterion_01_reward_formula():
    rng = np.random.default_rng(11)
    outcomes = (ONGOING, DEFENDER_WIN, ADVERSARY_WIN, TRUNCATED)
    for _ in range(10_000):
        p = float(rng.random())
        cost = float(rng.random() * 5)
        impact = float(rng.random() * 20 + 0.1)
        outcome = outcomes[int(rng.integers(4))]
        model = RewardModel(impact=impact)
        if outcome == DEFENDER_WIN:
            iv = -1.0
        elif outcome == ADVERSARY_WIN:
            iv = 1.0
        else:
            iv = 0.0
        expected = -p * impact - iv * impact - cost
        assert reward_of_transition(model, p, outcome, cost) == expected

    model = RewardModel(impact=10.0)
    examples_ok = (
        reward_of_transition(model, 0.0, DEFENDER_WIN, 0.0) == 10.0
        and reward_of_transition(model, 1.0, ADVERSARY_WIN, 0.5) == -20.5
        and reward_of_transition(model, 0.4, ONGOING, 1.2) == -5.2
    )
    _verdict("criterion 1 reward formula", examples_ok,
             "10^4 random tuples exact; worked examples +10 / -20.5 / -5.2")


# -- 2. goal-probability dynamic program vs Monte Carlo ------------------------


def test_criterion_02_goal_probability_oracle():
    worst = 0.0
    for L in range(1, 6):
        for b in (1, 2, 3, 5, 7):
            for k, rho in enumerate((0.75, 0.85, 0.95)):
                dp = compute_p_goal(AttackPath(tuple(range(L))), 0, b, rho)
                mc = oracles.mc_p_goal(L, b, rho, 10**6, (L, b, k))
                worst = max(worst, abs(dp - mc))
    closed_worst = max(
        abs(compute_p_goal(AttackPath((0,)), 0, b, rho) - (1 - (1 - rho) ** b))
        for b in range(1, 8)
        for rho in (0.75, 0.85, 0.95)
    )
    ok = worst <= 0.002 and closed_worst <= 1e-12
    _verdict("criterion 2 goal probability", ok,
             f"75-point grid worst |dp-mc| = {worst:.5f} (<= 0.002); "
             f"single-step closed form worst diff = {closed_worst:.2e}")


# -- 3. path enumeration vs brute force ----------------------------------------


def test_criterion_03_path_enumeration(default_graph):
    doc = json.loads(default_graph_path().read_text())
    mine = {p.steps for p in default_graph.enumerate_paths()}
    assert mine == oracles.brute_force_paths(doc)
    for p in default_graph.enumerate_paths():
        default_graph.validate_path(p)  # monotone, connected, goal-terminated

    rng = np.random.default_rng(7)
    for _ in range(100):
        small_doc = oracles.random_graph_doc(rng)
        g = load_graph(small_doc, relaxed_counts=True)
        got = {p.steps for p in g.enumerate_paths()}
        assert got == oracles.brute_force_paths(small_doc)
        for p in g.enumerate_paths():
            assert len(set(p.steps)) == len(p.steps)
    _verdict("criterion 3 path enumeration", True,
             f"{len(mine)} default-graph paths and 100 random graphs match "
             "the brute-force search")


# -- 4. exploration schedule ---------------------------------------------------


def test_criterion_04_exploration_schedule():
    hp = HyperParams()
    exact = (
        epsilon(0, hp) == 1.0
        and epsilon(300_000, hp) == pytest.approx(0.04, abs=1e-12)
        and epsilon(150_000, hp) == pytest.approx(0.52, abs=1e-12)
    )
    steps = np.arange(0, 400_001, 457)
    values = [epsilon(int(s), hp) for s in steps]
    monotone = all(a >= b for a, b in zip(values, values[1:]))
    _verdict("criterion 4 exploration schedule", exact and monotone,
             "anchors (0, 1.0), (150000, 0.52), (300000, 0.04) exact; "
             "non-increasing on 0..400000")


# -- 5. gradient correctness ---------------------------------------------------


def _relative_error(a: float, f: float) -> float:
    return abs(a - f) / max(abs(a), abs(f), 1e-8)


def _net_loss_and_grads(net, rng):
    x = rng.normal(size=net.dims[0])
    if net.head == LINEAR:
        y = rng.normal(size=net.dims[-1])

        def loss():
            out, _ = forward(net, x)
            return 0.5 * float(np.sum((out - y) ** 2))

        out, cache = forward(net, x)
        grads = backward(net, cache, out - y)
    else:
        target = int(rng.integers(net.dims[-1]))

        def loss():
            out, _ = forward(net, x)
            return -float(np.log(out[target]))

        out, cache = forward(net, x)
        grad_out = np.zeros(net.dims[-1])
        grad_out[target] = -1.0 / out[target]
        grads = backward(net, cache, grad_out)
    return loss, grads


def test_criterion_05_gradient_correctness():
    worst = 0.0
    for dims, head in (([3, 3, 2], LINEAR), ([5, 4, 3], SOFTMAX)):
        for seed in range(20):
            net = init_mlp(dims, head, seed)
            rng = np.random.default_rng(10_000 + seed)
            loss, grads = _net_loss_and_grads(net, rng)
            analytic = grads.d_weights + grads.d_biases
            fd = oracles.finite_diff(loss, net.weights + net.biases)
            for a, f in zip(analytic, fd):
                for ai, fi in zip(a.reshape(-1), f.reshape(-1)):
                    worst = max(worst, _relative_error(ai, fi))

    # full-size net: spot-check 8 random parameter entries per seed
    for seed in range(20):
        net = init_mlp([17, 256, 256, 23], LINEAR, seed)
        rng = np.random.default_rng(20_000 + seed)
        loss, grads = _net_loss_and_grads(net, rng)
        params = net.weights + net.biases
        analytic = grads.d_weights + grads.d_biases
        for _ in range(8):
            layer = int(rng.integers(len(params)))
            idx = int(rng.integers(params[layer].size))
            fd = oracles.finite_diff_at(loss, params[layer], idx)
            worst = max(worst, _relative_error(analytic[layer].reshape(-1)[idx], fd))

    _verdict("criterion 5 gradients", worst < 1e-4,
             f"worst analytic-vs-finite-difference relative error = {worst:.2e}")


# -- 6. small-MDP convergence ---------------------------------------------------


def _greedy_table(net) -> tuple[int, ...]:
    q, _ = forward(net, np.eye(2))
    return tuple(int(a) for a in np.argmax(q, axis=1))


def test_criterion_06_small_mdp_convergence():
    spec = oracles.TwoStateMdpSpec()
    v_star, pi_star = oracles.value_iteration(spec, gamma=0.8)
    assert np.allclose(v_star, [12.0, 15.0])
    optimal = tuple(int(a) for a in pi_star)

    results = {}
    for seed in range(5):
        hp = HyperParams(gamma=0.8, alpha=0.01, rollout_fragment=1,
                         batch_size=32, replay_capacity=2000, target_sync=50,
                         eps_decay_steps=1500, eps_final=0.05)
        runner = EpisodeRunner(
            oracles.TwoStateMdpEnv(spec, horizon=16, seed=(seed, 1)))
        agent = DqnAgent(2, 2, hp, seed, hidden=(32, 32))
        DqnTrainer(runner, agent).run(2030)
        assert agent.updates <= 2000
        results.setdefault("dqn", []).append(_greedy_table(agent.qnet))

        hp = HyperParams(gamma=0.8, alpha=0.005, entropy_coef=0.01,
                         rollout_fragment=8)
        runner = EpisodeRunner(
            oracles.TwoStateMdpEnv(spec, horizon=16, seed=(seed, 2)))
        a2c = A2CTrainer([runner], hp, seed, obs_dim=2, n_actions=2,
                         hidden=(32, 32))
        a2c.run(8 * 1000)  # 1000 synchronous updates
        results.setdefault("a2c", []).append(_greedy_table(a2c.actor))

        hp = HyperParams(gamma=0.8, alpha=0.01, entropy_coef=0.01,
                         rollout_fragment=8, ppo_epochs=3)
        runner = EpisodeRunner(
            oracles.TwoStateMdpEnv(spec, horizon=16, seed=(seed, 2)))
        ppo = PPOTrainer([runner], hp, seed, obs_dim=2, n_actions=2,
                         hidden=(32, 32))
        ppo.run(8 * 600)  # 600 rounds x 3 epochs = 1800 policy updates
        results.setdefault("ppo", []).append(_greedy_table(ppo.actor))

    bad = {
        algo: tables
        for algo, tables in results.items()
        if any(t != optimal for t in tables)
    }
    _verdict("criterion 6 small-MDP convergence", not bad,
             f"optimal policy {optimal} recovered 5/5 seeds by dqn/a2c/ppo"
             + (f"; mismatches: {bad}" if bad else ""))


# -- helpers for the trained-run criteria ---------------------------------------


def _per_seed_final_dwr(metrics_path, last_n: int = 5) -> dict[int, float]:
    rows: dict[int, list[float]] = {}
    with open(metrics_path) as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(int(row["seed"]), []).append(float(row["dwr"]))
    return {seed: float(np.mean(v[-last_n:])) for seed, v in rows.items()}


# -- 7. desk-scale training efficacy --------------------------------------------


def test_criterion_07_training_efficacy(run_cache, dqn_av1_runs):
    key, cfg = dqn_av1_runs
    final = _per_seed_final_dwr(run_cache.metrics(key))
    graph = cfg.load_graph()
    train_paths, _ = split_for_config(cfg, graph)
    baseline = evaluate_policy(
        random_policy(len(cfg.load_catalog(graph))), cfg,
        test_paths=train_paths, episodes=1000,
    ).dwr
    passing = [
        s for s, d in final.items() if d >= 0.7 and d >= baseline + 0.2
    ]
    _verdict("criterion 7 training efficacy", len(passing) >= 4,
             f"final-5-batch DWR per seed {final}; random baseline "
             f"{baseline:.3f}; {len(passing)}/5 seeds pass")


# -- 8. profile-hardness ordering ------------------------------------------------


def test_criterion_08_profile_hardness(run_cache, dqn_av1_runs, dqn_av3_runs):
    key1, cfg1 = dqn_av1_runs
    key3, cfg3 = dqn_av3_runs
    dwr1 = float(np.mean(
        [run_cache.eval_seed(key1, cfg1, s).dwr for s in range(5)]))
    dwr3 = float(np.mean(
        [run_cache.eval_seed(key3, cfg3, s).dwr for s in range(5)]))
    _verdict("criterion 8 profile hardness", dwr1 >= dwr3 + 0.05,
             f"test DWR vs weakest profile {dwr1:.3f} vs most persistent "
             f"{dwr3:.3f} (margin {dwr1 - dwr3:+.3f}, need >= 0.05)")


# -- 9. algorithm ordering --------------------------------------------------------


def test_criterion_09_algorithm_ordering(run_cache, algorithm_comparison_runs):
    means = {}
    for algo, (key, cfg) in algorithm_comparison_runs.items():
        pcts = [run_cache.eval_seed(key, cfg, s).mean_reward_pct
                for s in range(3)]
        means[algo] = float(np.mean(pcts))
    ok = all(means["dqn"] > means[a] for a in ("a2c", "a3c", "ppo"))
    _verdict("criterion 9 algorithm ordering", ok,
             "3-seed mean reward percentage "
             + ", ".join(f"{a}={means[a]:.1f}" for a in means)
             + " (value-based agent must exceed every policy-gradient agent)")


# -- 10. statistical channels ------------------------------------------------------


def test_criterion_10_statistical_channels(default_graph, default_catalog):
    n = 10**5
    # observation accuracy per profile
    state = default_graph.state_of(4)
    for pidx, profile in enumerate(builtin_profiles()):
        rng = np.random.default_rng(50 + pidx)
        hits = sum(
            observe(state, profile, rng, default_graph) == state.index
            for _ in range(n)
        )
        assert abs(hits / n - profile.obs_accuracy) < 0.01, profile

    # skill frequency on a grid
    for i, rho in enumerate((0.25, 0.5, 0.75, 0.95)):
        profile = AdversaryProfile("grid", rho=rho, tau=4, obs_accuracy=0.85)
        rng = np.random.default_rng(100 + i)
        rate = sum(attempt(profile, rng) for _ in range(n)) / n
        assert abs(rate - rho) < 0.01, rho

    # fully exploratory action choice is uniform over the catalog
    qnet = init_mlp([default_graph.state_count, 8, len(default_catalog)],
                    LINEAR, 3)
    rng = np.random.default_rng(5)
    obs = np.zeros(default_graph.state_count)
    counts = np.zeros(len(default_catalog))
    for _ in range(n):
        counts[act_epsilon_greedy(qnet, obs, 1.0, rng)] += 1
    assert np.max(np.abs(counts / n - 1 / len(default_catalog))) < 0.005

    # interruption counts follow the truncated power law (chi-square at 1%)
    action = next(a for a in default_catalog.actions if a.fp_scale == 1.0)
    rng = np.random.default_rng(123)
    draws = np.array(
        [sample_interruptions(default_catalog, action, 0, rng)
         for _ in range(n)]
    )
    kmax = default_catalog.cost_params.powerlaw_max
    k = np.arange(1, kmax + 1, dtype=float)
    pmf = k ** -default_catalog.cost_params.powerlaw_exponent
    pmf /= pmf.sum()
    expected = pmf * n
    solo = int(np.max(np.where(expected >= 5)[0])) + 1
    obs_counts = np.array(
        [(draws == i).sum() for i in range(1, solo)] + [(draws >= solo).sum()]
    )
    exp_counts = np.concatenate([expected[: solo - 1], [expected[solo - 1:].sum()]])
    _, p_value = stats.chisquare(obs_counts, exp_counts)
    _verdict("criterion 10 statistical channels", p_value > 0.01,
             "observation accuracy, skill rate, uniform exploration within "
             f"tolerance; power-law chi-square p = {p_value:.3f} (> 0.01)")


# -- 11. determinism ---------------------------------------------------------------


def test_criterion_11_determinism(run_cache):
    kw = dict(
        algorithm="dqn", profile="Av1", seeds=[0],
        hyperparams={"epochs": 2, "steps_per_epoch": 2500, "gamma": 0.8,
                     "alpha": 0.01, "eps_decay_steps": 6000},
    )
    cfg_a = run_cache.config("determinism-a", **kw)
    cfg_b = run_cache.config("determinism-b", **kw)
    dir_a, dir_b = train(cfg_a), train(cfg_b)

    same_metrics = (
        (dir_a / "metrics.csv").read_bytes() == (dir_b / "metrics.csv").read_bytes()
    )
    same_ckpt = (
        (dir_a / "checkpoint-seed0.json").read_bytes()
        == (dir_b / "checkpoint-seed0.json").read_bytes()
    )
    report_a = evaluate(dir_a / "checkpoint-seed0.json", cfg_a)
    report_b = evaluate(dir_b / "checkpoint-seed0.json", cfg_b)
    report_a.write_csv(dir_a / "eval.csv")
    report_b.write_csv(dir_b / "eval.csv")
    same_eval = (dir_a / "eval.csv").read_bytes() == (dir_b / "eval.csv").read_bytes()

    _verdict("criterion 11 determinism", same_metrics and same_ckpt and same_eval,
             "fixed-seed train + evaluate byte-identical across two runs "
             f"(metrics {same_metrics}, checkpoint {same_ckpt}, eval {same_eval})")


# -- 12. asynchronous learner contract ----------------------------------------------


class _RecordingServer(ParameterServer):
    """Parameter server that fingerprints every published version."""

    def __init__(self, actor, critic, hp):
        self.fingerprints = {}
        super().__init__(actor, critic, hp)

    def _fingerprint(self):
        return (
            float(sum(w.sum() for w in self._actor.weights)),
            float(sum(w.sum() for w in self._critic.weights)),
        )

    # ParameterServer sets version under its own lock, so each fingerprint is
    # recorded in the same hold that publishes its version
    @property
    def version(self):
        return self._version

    @version.setter
    def version(self, value):
        self._version = value
        self.fingerprints[value] = self._fingerprint()


def test_criterion_12_async_learner_contract():
    spec = oracles.TwoStateMdpSpec()

    def runner(seed):
        return EpisodeRunner(oracles.TwoStateMdpEnv(spec, horizon=16,
                                                    seed=(seed, 3)))

    # 1 worker: identical parameter trajectory to the synchronous learner
    hp = HyperParams(gamma=0.8, alpha=0.005, rollout_fragment=8, num_workers=1)
    a2c = A2CTrainer([runner(0)], hp, 42, obs_dim=2, n_actions=2, hidden=(16, 16))
    a3c = A3CTrainer([runner(0)], hp, 42, obs_dim=2, n_actions=2, hidden=(16, 16))
    trajectories_equal = True
    for _ in range(10):
        a2c.run(8 * 20)
        a3c.run(8 * 20)
        for n1, n2 in ((a2c.actor, a3c.actor), (a2c.critic, a3c.critic)):
            trajectories_equal &= all(
                np.array_equal(w1, w2) for w1, w2 in zip(n1.weights, n2.weights)
            ) and all(
                np.array_equal(b1, b2) for b1, b2 in zip(n1.biases, n2.biases)
            )
    assert trajectories_equal

    # 4 workers: version counter counts applied submissions exactly
    hp4 = HyperParams(gamma=0.8, alpha=0.005, rollout_fragment=8, num_workers=4)
    a3c4 = A3CTrainer([runner(i) for i in range(4)], hp4, 7,
                      obs_dim=2, n_actions=2, hidden=(16, 16))
    a3c4.run(8 * 4 * 25)
    versions_exact = (
        a3c4.server.version == len(a3c4.version_history)
        and a3c4.version_history == list(range(1, a3c4.server.version + 1))
    )
    assert versions_exact

    # concurrent snapshots are internally consistent with a published version
    hp_t = HyperParams(gamma=0.8, alpha=0.005, rollout_fragment=4, num_workers=4)
    base = A3CTrainer([runner(i) for i in range(4)], hp_t, 11,
                      obs_dim=2, n_actions=2, hidden=(16, 16))
    server = _RecordingServer(base.server._actor, base.server._critic, hp_t)
    workers = base.workers
    errors: list[str] = []

    def work(w):
        for _ in range(30):
            a3c_worker_step(w, server, hp_t)

    def watch():
        for _ in range(200):
            version, actor, critic = server.snapshot()
            fp = (
                float(sum(w.sum() for w in actor.weights)),
                float(sum(w.sum() for w in critic.weights)),
            )
            if server.fingerprints.get(version) != fp:
                errors.append(f"snapshot v{version} mixes parameter versions")

    threads = [threading.Thread(target=work, args=(w,)) for w in workers]
    threads += [threading.Thread(target=watch) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    consistent = not errors and server.version == 4 * 30

    _verdict("criterion 12 async learner contract",
             trajectories_equal and versions_exact and consistent,
             "1-worker trajectory equals the synchronous learner; version "
             f"counter exact; {server.version} threaded submissions with "
             "version-consistent snapshots" + (f"; {errors[:3]}" if errors else ""))
