"""Unit tests for shared agent machinery and the four learners."""

import copy
import os
import signal
import threading
import time

import numpy as np
import pytest
from scipy import stats

import oracles
from cyberdefsim.agents.a2c import (
    A2CTrainer,
    _critic_gradients,
    _policy_gradients,
    collect_fragment,
    make_actor_critic,
)
from cyberdefsim.agents.a3c import A3CTrainer
from cyberdefsim.agents.common import (
    EpisodeRunner,
    HyperParams,
    ReplayBuffer,
    act_epsilon_greedy,
    advantage,
    argmax_policy,
    epsilon,
    fragment_returns,
    random_policy,
    sample_policy_action,
)
from cyberdefsim.agents.dqn import DqnAgent, dqn_targets
from cyberdefsim.agents.ppo import PPOTrainer, ppo_gradients
from cyberdefsim.harness import ExperimentConfig, evaluate_policy, split_for_config, train
from cyberdefsim.neural_net import (
    LINEAR,
    SOFTMAX,
    GradientSet,
    OptimizerState,
    apply_update,
    as_float32,
    forward,
    forward_table,
    init_mlp,
    log_softmax,
)


def mdp_runner(seed, horizon=16):
    env = oracles.TwoStateMdpEnv(oracles.TwoStateMdpSpec(), horizon, seed)
    return EpisodeRunner(env)


# -- hyperparameters and exploration -------------------------------------------


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(gamma=1.0)
    with pytest.raises(ValueError):
        HyperParams(alpha=0.0)
    with pytest.raises(ValueError):
        HyperParams(eps_final=0.5, eps_initial=0.1)
    for bad, name in (({"eps_initial": 2.0}, "eps_initial"),
                      ({"eps_initial": -0.1, "eps_final": -0.5}, "eps_initial"),
                      ({"eps_final": 1.5, "eps_initial": 1.5}, "eps_initial"),
                      ({"eps_final": -0.5}, "eps_final"),
                      ({"ppo_clip": -0.3}, "ppo_clip"),
                      ({"ppo_clip": 0.0}, "ppo_clip")):
        with pytest.raises(ValueError, match=name):
            HyperParams(**bad)
    with pytest.raises(ValueError, match="replay_capacity"):
        HyperParams(replay_capacity=10)  # a batch of 48 would never fill
    with pytest.raises(ValueError):
        HyperParams(rollout_fragment=0)
    for name in ("gamma", "alpha", "eps_initial", "eps_final",
                 "entropy_coef", "ppo_clip", "grad_clip"):
        for bad in ("x", True, None, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                HyperParams(**{name: bad})
    assert HyperParams().with_overrides(gamma=0.9).gamma == 0.9


def test_epsilon_interpolation():
    hp = HyperParams(eps_initial=1.0, eps_final=0.2, eps_decay_steps=100)
    assert epsilon(0, hp) == 1.0
    assert epsilon(50, hp) == pytest.approx(0.6)
    assert epsilon(100, hp) == 0.2
    assert epsilon(10**9, hp) == 0.2
    with pytest.raises(ValueError):
        epsilon(-1, hp)


def test_act_epsilon_greedy_scale_invariance():
    net = init_mlp([50, 4, 5], LINEAR, 0)
    scaled = net.copy()
    for w in scaled.weights[-1:]:
        w *= 7.5
    for b in scaled.biases[-1:]:
        b *= 7.5
    rng = np.random.default_rng(0)
    for obs in range(50):
        assert act_epsilon_greedy(net, obs, 0.0, rng) == act_epsilon_greedy(
            scaled, obs, 0.0, rng
        )


# -- integer draws: int(u * n) from the caller's generator ----------------------


class _PathEnv:
    """Records the path of every reset; each step ends the episode, so each
    runner step draws the next path."""

    def __init__(self):
        self.paths = []

    def reset(self, path):
        self.paths.append(path)
        return 0

    def step(self, action):
        return 0, 0.0, True, {}


class _TopUniform:
    """A generator whose every random() is the largest float64 below 1."""

    def random(self):
        return 1 - 2 ** -53


def _policy_picks(rng, k, choices):
    policy = random_policy(len(choices))
    return [policy(0, rng) for _ in range(k)]


def _explore_picks(rng, k, choices):
    qnet = init_mlp([2, 4, len(choices)], LINEAR, 0)
    return [act_epsilon_greedy(qnet, 0, 1.0, rng) for _ in range(k)]


def _path_picks(rng, k, choices):
    env = _PathEnv()
    runner = EpisodeRunner(env, choices, rng)
    for _ in range(k - 1):
        runner.step(0)
    position = {path: i for i, path in enumerate(choices)}
    return [position[path] for path in env.paths]


# each site's picks, as positions in its choices, and the uniforms one pick
# takes: the explore branch reads one for the eps test, then one for the action
DRAW_SITES = {
    "random_policy": (_policy_picks, 1),
    "act_epsilon_greedy": (_explore_picks, 2),
    "EpisodeRunner._reset": (_path_picks, 1),
}


def _choices(site, graph):
    """The 101 held-out paths of the default split, or 23 actions."""
    if site == "EpisodeRunner._reset":
        return split_for_config(ExperimentConfig(), graph)[1]
    return list(range(23))


@pytest.mark.parametrize("site", sorted(DRAW_SITES))
def test_each_integer_draw_is_a_scaled_uniform(site, default_graph):
    """A clone of the generator predicts every pick as int(u * n) from its
    random() sequence, and the site takes no other draw."""
    picks, per_pick = DRAW_SITES[site]
    choices = _choices(site, default_graph)
    rng = np.random.default_rng(11)
    clone = copy.deepcopy(rng)
    got = picks(rng, 300, choices)
    uniforms = clone.random((300, per_pick))[:, -1]
    assert got == [int(u * len(choices)) for u in uniforms]
    assert rng.random() == clone.random()


@pytest.mark.parametrize("site", sorted(DRAW_SITES))
def test_the_largest_uniform_picks_the_last_choice(site, default_graph):
    """u = 1 - 2**-53 gives n - 1: the product rounds below n."""
    picks, _ = DRAW_SITES[site]
    choices = _choices(site, default_graph)
    assert picks(_TopUniform(), 5, choices) == [len(choices) - 1] * 5


@pytest.mark.parametrize("site", sorted(DRAW_SITES))
def test_scaled_draws_are_uniform(site, default_graph):
    """Chi-square over 200 picks per choice, each pick taking only its own
    uniforms from the stream."""
    picks, per_pick = DRAW_SITES[site]
    choices = _choices(site, default_graph)
    n = len(choices)
    assert n == (101 if site == "EpisodeRunner._reset" else 23)
    rng = np.random.default_rng(2024)
    clone = copy.deepcopy(rng)
    counts = np.bincount(picks(rng, 200 * n, choices), minlength=n)
    assert stats.chisquare(counts).pvalue > 1e-3
    clone.random(200 * n * per_pick)
    assert rng.random() == clone.random()


def test_random_policy_refuses_an_empty_action_set():
    for n_actions in (0, -1):
        with pytest.raises(ValueError, match="n_actions must be at least 1"):
            random_policy(n_actions)


def test_episode_runner_refuses_an_empty_path_pool():
    with pytest.raises(ValueError, match="path pool is empty"):
        EpisodeRunner(_PathEnv(), [], np.random.default_rng(0))


# -- forward table ----------------------------------------------------------------


def dense_table(net):
    """forward over every observation id, computed afresh."""
    return forward(net, np.eye(net.dims[0]))[0]


def uncached_argmax(net, obs, rng):
    return int(np.argmax(dense_table(net)[obs]))


def uncached_epsilon_greedy(net, obs, eps, rng):
    if rng.random() < eps:
        return int(rng.random() * net.dims[-1])
    return uncached_argmax(net, obs, rng)


def uncached_sample(actor, obs, rng):
    probs = dense_table(actor)[obs]
    return int(rng.choice(len(probs), p=probs / probs.sum()))


def test_forward_table_hit_is_the_same_read_only_arrays():
    for head in (LINEAR, SOFTMAX):
        net = init_mlp([17, 16, 23], head, 4)
        first = forward_table(net)
        assert net.table is first
        hit = forward_table(net)
        out, (acts, logits, cached_out) = hit
        # the cache keeps forward's pad rows, the output is its first 17
        assert hit is first and out.base is cached_out
        for a in (out, cached_out, logits, *acts):
            assert not a.flags.writeable
        dense, (dense_acts, dense_logits, _) = forward(net, np.eye(17))
        assert out.tobytes() == dense.tobytes()
        assert logits.tobytes() == dense_logits.tobytes()
        assert all(a.tobytes() == d.tobytes() for a, d in zip(acts, dense_acts))


def test_apply_update_drops_the_table():
    obs = 0
    qnet = init_mlp([2, 3], LINEAR, 0)
    actor = init_mlp([2, 3], SOFTMAX, 0)
    helpers = [
        (qnet, lambda rng: act_epsilon_greedy(qnet, obs, 0.0, rng),
         lambda rng: uncached_epsilon_greedy(qnet, obs, 0.0, rng)),
        (qnet, lambda rng: argmax_policy(qnet)(obs, rng),
         lambda rng: uncached_argmax(qnet, obs, rng)),
        (actor, lambda rng: argmax_policy(actor)(obs, rng),
         lambda rng: uncached_argmax(actor, obs, rng)),
        (actor, lambda rng: sample_policy_action(actor, obs, rng),
         lambda rng: uncached_sample(actor, obs, rng)),
    ]
    for net in (qnet, actor):
        net.weights[0][:] = 0.0  # every output ties, so the argmax is 0
    # policies built before the update must act on the parameters after it
    policies = [(net, argmax_policy(net)) for net in (qnet, actor)]
    for _, helper, _ in helpers:
        helper(np.random.default_rng(0))
    assert [policy(obs, None) for _, policy in policies] == [0, 0]
    # one Adam step of size lr moves the biases to [-1, 0, 1]
    for net in (qnet, actor):
        assert net.table is not None and net.greedy is not None
        grads = GradientSet([2, 3], np.array([0.0] * 6 + [1.0, 0.0, -1.0]))
        apply_update(net, OptimizerState(lr=1.0), grads)
        assert net.table is None and net.greedy is None and net.cdf is None
        assert uncached_argmax(net, obs, None) == 2
    assert actor.cdf is None
    for net, helper, uncached in helpers:
        assert helper(np.random.default_rng(1)) == uncached(
            np.random.default_rng(1))
    for net, policy in policies:
        assert policy(obs, None) == uncached_argmax(net, obs, None) == 2


def test_copy_starts_without_a_table():
    net = init_mlp([17, 8, 23], SOFTMAX, 0)
    argmax_policy(net)(3, None)
    sample_policy_action(net, 3, np.random.default_rng(0))
    assert all(v is not None for v in (net.table, net.greedy, net.cdf))
    twin = net.copy()
    assert twin.table is None and twin.greedy is None and twin.cdf is None
    assert "table" not in repr(net) and "cdf" not in repr(net)


def test_cached_cdf_draws_equal_rng_choice():
    """On float64 actors and on the trainers' float32 ones: the CDF is built
    from the rows cast to float64, as Generator.choice casts p."""
    draws = 0
    for seed in range(24):
        actor = init_mlp([17, 32, 23], SOFTMAX, seed)
        if seed % 3 == 0:
            actor.weights[-1][:] *= 50.0
        if seed % 2:
            actor = as_float32(actor)
        probs = dense_table(actor).astype(np.float64)
        # the scaled actors put most of a row's mass on one action
        assert (probs.max() > 0.9) == (seed % 3 == 0)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for obs in np.random.default_rng(100 + seed).integers(17, size=2000):
            p = probs[obs]
            assert sample_policy_action(actor, obs, rng) == int(
                twin.choice(len(p), p=p / p.sum()))
            draws += 1
        assert rng.bit_generator.state == twin.bit_generator.state
        assert actor.cdf.dtype == np.float64
    assert draws >= 40_000


def test_sampling_a_nan_row_raises_as_rng_choice_does():
    actor = init_mlp([17, 8, 23], SOFTMAX, 0)
    actor.biases[-1][3] = np.nan
    probs = dense_table(actor)[5]
    with pytest.raises(ValueError) as want:
        np.random.default_rng(0).choice(len(probs), p=probs / probs.sum())
    with pytest.raises(ValueError) as got:
        sample_policy_action(actor, 5, np.random.default_rng(0))
    assert str(got.value) == str(want.value)


def test_cached_greedy_is_the_row_argmax_lowest_index_first():
    nets = [init_mlp([17, 16, 23], head, seed)
            for head in (LINEAR, SOFTMAX) for seed in range(5)]
    for net in nets[:2]:
        # every row ties across actions 4, 9 and 17
        net.weights[-1][:] = 0.0
        net.biases[-1][[4, 9, 17]] = 1.0
    for net in nets:
        table = dense_table(net)
        policy, rng = argmax_policy(net), np.random.default_rng(0)
        for obs in range(17):
            want = int(np.argmax(table[obs]))
            assert policy(obs, None) == want
            assert act_epsilon_greedy(net, obs, 0.0, rng) == want
    assert [argmax_policy(net)(0, None) for net in nets[:2]] == [4, 4]


def test_policies_match_a_fresh_dense_forward():
    actor = init_mlp([17, 16, 23], SOFTMAX, 2)
    policy = argmax_policy(actor)
    rng, twin = np.random.default_rng(0), np.random.default_rng(0)
    for i in range(200):
        obs = i * 7 % 5
        if i % 3:
            assert sample_policy_action(actor, obs, rng) == uncached_sample(
                actor, obs, twin)
        else:
            assert policy(obs, rng) == uncached_argmax(actor, obs, twin)
    # one table serves every call of a parameter version, a full evaluation
    # (the loop `evaluate` runs on a checkpoint's net) included
    table = actor.table
    cfg = ExperimentConfig(profile="Av3")
    assert evaluate_policy(policy, cfg).episodes == cfg.eval_episodes
    assert actor.table is table


# -- replay buffer --------------------------------------------------------------


def test_replay_buffer_ring_and_sampling():
    buf = ReplayBuffer(4, np.random.default_rng(0))
    for i in range(6):
        buf.push(i, i, float(i), i + 1, False)
    assert len(buf) == 4
    obs, actions, rewards, next_obs, dones = buf.sample_n_step(4, 1, 1.0)[:5]
    assert set(actions) <= {2, 3, 4, 5}  # oldest entries overwritten
    assert np.array_equal(obs, actions) and np.array_equal(next_obs, obs + 1)
    assert obs.shape == (4,) and rewards.shape == (4,)
    with pytest.raises(ValueError):
        buf.sample_n_step(5, 1, 1.0)


def _windows_by_start(buf, n_steps, gamma):
    """Every window the buffer can draw, keyed by its first obs."""
    got = {}
    while len(got) < len(buf):
        obs, _, returns, next_obs, dones, discounts = buf.sample_n_step(
            len(buf), n_steps, gamma)
        got.update((int(o), (r, int(n), bool(d), disc))
                   for o, r, n, d, disc in zip(obs, returns, next_obs, dones,
                                               discounts))
    return got


def test_n_step_window_cut_at_done():
    buf = ReplayBuffer(16, np.random.default_rng(0))
    for i in range(6):
        buf.push(i, i, float(i + 1), i + 1, i == 2)
    got = _windows_by_start(buf, 4, 0.5)
    # windows from 0 and 1 stop after the done transition at 2
    assert got[0] == (1.0 + 0.5 * 2.0 + 0.25 * 3.0, 3, True, 0.5 ** 3)
    assert got[1] == (2.0 + 0.5 * 3.0, 3, True, 0.5 ** 2)
    assert got[2] == (3.0, 3, True, 0.5)
    # a window never reaches back across an episode boundary
    assert got[3][0] == 4.0 + 0.5 * 5.0 + 0.25 * 6.0


def test_n_step_window_cut_at_newest_entry():
    buf = ReplayBuffer(4, np.random.default_rng(0))
    for i in range(6):  # the ring holds 2..5 with 5 newest, stored at slot 1
        buf.push(i, i, 1.0, i + 1, False)
    got = _windows_by_start(buf, 3, 0.5)
    assert set(got) == {2, 3, 4, 5}
    assert got[2] == (1.75, 5, False, 0.125)  # full 3-step window
    assert got[4] == (1.5, 6, False, 0.25)  # stops at 5, not wrapping to 2
    assert got[5] == (1.0, 6, False, 0.5)


def test_n_step_return_and_discount_for_k_steps():
    gamma = 0.8
    rewards = [3.0, -1.0, 0.5, 2.0, -4.0]
    buf = ReplayBuffer(16, np.random.default_rng(1))
    for i, r in enumerate(rewards):
        buf.push(i, 0, r, i + 1, False)
    for k in range(1, 6):
        ret, last_next, done, disc = _windows_by_start(buf, k, gamma)[0]
        assert ret == pytest.approx(
            sum(gamma ** j * rewards[j] for j in range(k)))
        assert disc == pytest.approx(gamma ** k)
        assert last_next == k and not done


def test_n_step_returns_keep_the_sign_of_zero():
    """Windows of -0.0 and +0.0 rewards, cut early at a done and at the
    newest entry: -0.0 + -0.0 stays -0.0, and a +0.0 in the window makes
    the return +0.0, as in the scalar walk."""
    rewards = [-0.0, -0.0, -0.0, 0.0, -0.0, -0.0]
    dones = [False, True, False, False, True, False]
    buf = ReplayBuffer(16, np.random.default_rng(0))
    ref = oracles.ScalarReplay(16, np.random.default_rng(0))
    for i, (r, d) in enumerate(zip(rewards, dones)):
        buf.push(i, 0, r, i + 1, d)
        ref.push(i, 0, r, i + 1, d)
    for _ in range(20):
        for a, b in zip(buf.sample_n_step(6, 4, 0.5), ref.sample_n_step(6, 4, 0.5)):
            assert a.tobytes() == b.tobytes()
    got = _windows_by_start(buf, 4, 0.5)
    # start: (signbit of the return, last next_obs, done, discount)
    want = {0: (True, 2, True, 0.25), 1: (True, 2, True, 0.5),
            2: (False, 5, True, 0.125), 3: (False, 5, True, 0.25),
            4: (True, 5, True, 0.5), 5: (True, 6, False, 0.5)}
    assert {i: (bool(np.signbit(r)), n, d, disc)
            for i, (r, n, d, disc) in got.items()} == want
    assert all(r == 0.0 for r, *_ in got.values())


@pytest.mark.parametrize("capacity,pushes", [(37, 100), (64, 30)])
def test_n_step_windows_match_the_scalar_oracle(capacity, pushes):
    """Every output bit-equal to the per-sample walk, signs of zeros included,
    on a wrapped and on a partly filled ring."""
    gamma = 0.8
    rng = np.random.default_rng(capacity)
    buf = ReplayBuffer(capacity, np.random.default_rng(5))
    ref = oracles.ScalarReplay(capacity, np.random.default_rng(5))
    cuts = {"done": 0, "newest": 0}
    for t in range(pushes):
        reward = (-0.0, 0.0, -0.0 * rng.normal(), rng.normal())[t % 4]
        item = (int(rng.integers(17)), int(rng.integers(23)), reward,
                int(rng.integers(17)), bool(rng.random() < 0.15))
        buf.push(*item)
        ref.push(*item)
        if len(buf) < 8:
            continue
        for n_steps in range(1, 14):
            got = buf.sample_n_step(8, n_steps, gamma)
            want = ref.sample_n_step(8, n_steps, gamma)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
                assert np.array_equal(np.signbit(a), np.signbit(b))
            short = want[5] > 1.001 * gamma ** n_steps  # fewer than n_steps
            cuts["done"] += int(np.sum(short & want[4]))
            cuts["newest"] += int(np.sum(short & ~want[4]))
    assert len(buf) == min(capacity, pushes)
    assert cuts["done"] > 0 and cuts["newest"] > 0


def test_one_step_window_matches_dqn_targets():
    rng = np.random.default_rng(4)
    items = [(int(rng.integers(3)), int(rng.integers(2)), float(rng.normal()),
              int(rng.integers(3)), bool(rng.random() < 0.2)) for _ in range(40)]
    buf = ReplayBuffer(64, np.random.default_rng(7))
    for item in items:
        buf.push(*item)
    # the one-step sample, drawn from the same rng stream by hand
    picked = [items[i] for i in np.random.default_rng(7).integers(40, size=32)]
    obs, actions, rewards, next_obs, dones = (np.array(col)
                                              for col in zip(*picked))
    w_obs, w_actions, returns, w_next, w_dones, discounts = (
        buf.sample_n_step(32, 1, 0.9))
    for a, b in ((obs, w_obs), (actions, w_actions), (rewards, returns),
                 (next_obs, w_next), (dones, w_dones)):
        assert np.array_equal(a, b)
    assert np.all(discounts == 0.9)
    qnet = init_mlp([3, 8, 2], LINEAR, 0)
    target = init_mlp([3, 8, 2], LINEAR, 1)

    def q_rows(rows):
        return forward(qnet, rows)[0], forward(target, rows)[0]

    assert np.array_equal(
        dqn_targets(*q_rows(np.eye(3)[next_obs]), rewards, dones, 0.9, True),
        dqn_targets(*q_rows(np.eye(qnet.dims[0])[w_next]), returns, w_dones,
                    discounts, True),
    )


# -- return computation ------------------------------------------------------------


def test_compute_returns_known_values():
    out = fragment_returns([1.0, 2.0, 3.0], [False] * 3, 0.5, bootstrap_value=8.0)
    assert np.allclose(out, [1 + 0.5 * (2 + 0.5 * 7.0), 2 + 0.5 * 7.0, 3 + 4.0])


def test_fragment_returns_respect_episode_boundaries():
    rewards = [1.0, 2.0, 3.0, 4.0]
    dones = [False, True, False, False]
    out = fragment_returns(rewards, dones, 0.5, bootstrap_value=10.0)
    assert out[1] == 2.0  # terminal step keeps the raw reward
    assert out[0] == 1.0 + 0.5 * 2.0
    assert out[3] == 4.0 + 0.5 * 10.0
    assert out[2] == 3.0 + 0.5 * out[3]


def test_advantage_validation():
    with pytest.raises(ValueError):
        advantage([1.0, 2.0], [1.0])
    assert np.allclose(advantage([3.0, 1.0], [1.0, 1.0]), [2.0, 0.0])


# -- DQN ---------------------------------------------------------------------------


def test_dqn_targets_terminal_and_bootstrap():
    qnet = init_mlp([2, 8, 2], LINEAR, 0)
    target = init_mlp([2, 8, 2], LINEAR, 1)
    next_obs = np.eye(2)
    rewards = np.array([1.0, 2.0])
    q_o, _ = forward(qnet, next_obs)
    q_t, _ = forward(target, next_obs)
    done_targets = dqn_targets(q_o, q_t, rewards, [True, True], 0.9,
                               double=False)
    assert np.allclose(done_targets, rewards)
    boot = dqn_targets(q_o, q_t, rewards, [False, False], 0.9, double=False)
    assert np.allclose(boot, rewards + 0.9 * q_t.max(axis=1))


def test_double_dqn_uses_online_argmax():
    qnet = init_mlp([2, 8, 2], LINEAR, 0)
    target = init_mlp([2, 8, 2], LINEAR, 1)
    next_obs = np.eye(2)
    q_online, _ = forward(qnet, next_obs)
    q_target, _ = forward(target, next_obs)
    pick = np.argmax(q_online, axis=1)
    expected = 1.0 + 0.9 * q_target[np.arange(2), pick]
    got = dqn_targets(q_online, q_target, [1.0, 1.0], [False, False], 0.9,
                      double=True)
    assert np.allclose(got, expected)


def test_dqn_agent_update_cadence():
    hp = HyperParams(rollout_fragment=4, batch_size=8, replay_capacity=64)
    agent = DqnAgent(2, 2, hp, 0, hidden=(8,))
    for step in range(1, 33):
        agent.observe(0, 0, 0.0, 1, False)
    # updates start once the buffer holds a batch, then every 4th step
    assert agent.env_steps == 32
    assert agent.updates == 32 // 4 - 1  # first possible at step 8


@pytest.mark.parametrize("double", [True, False])
def test_dqn_update_matches_the_three_forward_reference(double):
    """The table-gathered update is bit-equal, step by step and across target
    syncs, to the update that runs three batch forwards and copies a target
    net (oracles.ReferenceDqn)."""
    hp = HyperParams(replay_capacity=300, target_sync=4, double_dqn=double)
    agent = DqnAgent(17, 23, hp, 3)
    twin = DqnAgent(17, 23, hp, 3)
    ref = oracles.ReferenceDqn(twin.qnet, twin.opt, twin.buffer, hp)
    rng = np.random.default_rng(11)
    for _ in range(500):
        item = (int(rng.integers(17)), int(rng.integers(23)),
                float(rng.normal()), int(rng.integers(17)),
                bool(rng.random() < 0.1))
        updates = agent.updates
        loss = agent.observe(*item)
        ref.buffer.push(*item)
        if agent.updates == updates:
            continue
        assert loss == ref.update()
        for a, b in ((agent.qnet.params, ref.qnet.params),
                     (agent.opt.m, ref.opt.m), (agent.opt.v, ref.opt.v)):
            assert a.tobytes() == b.tobytes()
    assert agent.updates == ref.updates >= 3 * hp.target_sync


def test_dqn_learning_reduces_td_error():
    hp = HyperParams(gamma=0.8, alpha=0.01, rollout_fragment=1, batch_size=16,
                     replay_capacity=512, target_sync=25, eps_decay_steps=400,
                     eps_final=0.05)
    runner = mdp_runner((0, 1))
    agent = DqnAgent(2, 2, hp, 0, hidden=(32, 32))
    from cyberdefsim.agents.dqn import DqnTrainer

    DqnTrainer(runner, agent).run(1200)
    q, _ = forward(agent.qnet, np.eye(2))
    # the learned state values should rank state 1 above state 0
    assert q[1].max() > q[0].max()


# -- actor-critic family --------------------------------------------------------------


def test_actor_critic_heads():
    actor, critic = make_actor_critic(4, 3, 0, hidden=(8,))
    probs, _ = forward(actor, np.ones(4))
    assert probs.shape == (3,) and probs.sum() == pytest.approx(1.0)
    value, _ = forward(critic, np.ones(4))
    assert value.shape == (1,)


def assert_gradients_match_finite_differences(net, grads, loss):
    fd = oracles.finite_diff(loss, net.weights + net.biases)
    for g, f in zip(grads.d_weights + grads.d_biases, fd):
        np.testing.assert_allclose(g, f, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("entropy_coef", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("seed", range(3))
def test_policy_gradients_match_finite_differences(entropy_coef, seed):
    """_policy_gradients is the gradient of -mean(coeff * log pi(a)) -
    entropy_coef * mean(H), the entropy bonus included, in every parameter
    of a float64 net, against that loss on a dense forward."""
    actor = init_mlp([3, 6, 5, 4], SOFTMAX, seed)
    rng = np.random.default_rng(seed)
    ids, actions = rng.integers(3, size=10), rng.integers(4, size=10)
    coeff = rng.normal(size=10)
    grads = _policy_gradients(actor, ids, actions, coeff,
                              HyperParams(entropy_coef=entropy_coef))

    def loss():
        # a dense forward: finite_diff writes the weights in place, which a
        # table kept on the net would not see
        logp = np.log(forward(actor, np.eye(3)[ids])[0])
        entropy = -np.sum(np.exp(logp) * logp, axis=1)
        return (-np.mean(coeff * logp[np.arange(10), actions])
                - entropy_coef * np.mean(entropy))

    assert_gradients_match_finite_differences(actor, grads, loss)


@pytest.mark.parametrize("seed", range(3))
def test_critic_gradients_match_finite_differences(seed):
    """_critic_gradients is the gradient of the values' mean squared error to
    the returns, in every parameter of a float64 net."""
    critic = init_mlp([3, 6, 5, 1], LINEAR, seed)
    rng = np.random.default_rng(seed)
    ids, returns = rng.integers(3, size=10), rng.normal(size=10)
    grads = _critic_gradients(critic, ids, returns)

    def loss():
        values = forward(critic, np.eye(3)[ids])[0][:, 0]
        return np.mean((values - returns) ** 2)

    assert_gradients_match_finite_differences(critic, grads, loss)


def test_collect_fragment_shapes():
    actor, critic = make_actor_critic(2, 2, 0, hidden=(8,))
    hp = HyperParams(rollout_fragment=6)
    runner = mdp_runner((1, 2))
    ids, actions, returns = collect_fragment(
        runner, actor, critic, hp, np.random.default_rng(0)
    )
    assert ids.shape == actions.shape == returns.shape == (6,)
    assert np.issubdtype(ids.dtype, np.integer) and set(ids) <= {0, 1}


def test_ppo_ratio_one_at_old_policy():
    # float64, so central differences resolve the gradient
    actor = init_mlp([2, 8, 2], SOFTMAX, 5)
    hp = HyperParams(entropy_coef=0.0, ppo_clip=0.2)
    rng = np.random.default_rng(0)
    ids = rng.integers(2, size=16)
    obs = np.eye(actor.dims[0])[ids]
    actions = rng.integers(2, size=16)
    _, cache = forward(actor, obs)
    old_logp = log_softmax(cache[1])[np.arange(16), actions]
    adv = rng.normal(size=16)

    def loss():
        # a dense forward: finite_diff_at writes the weights in place, which
        # a table kept on the net would not see
        probs, _ = forward(actor, obs)
        return oracles.ppo_loss(probs, actions, adv, old_logp, hp.ppo_clip,
                                hp.entropy_coef)

    # at the sampling policy the clipped surrogate equals -mean(advantage)
    assert loss() == pytest.approx(-float(np.mean(adv)))
    grads = ppo_gradients(actor, ids, actions, adv, old_logp, hp)
    assert all(np.isfinite(g).all() for g in grads.d_weights + grads.d_biases)
    # and ppo_gradients is the gradient of that loss
    for layer in range(len(actor.weights)):
        fd = oracles.finite_diff_at(loss, actor.weights[layer], 0)
        assert grads.d_weights[layer].reshape(-1)[0] == pytest.approx(fd, abs=1e-6)


def test_ppo_first_epoch_ratios_are_exactly_one(monkeypatch, tmp_path):
    """Each round's first epoch runs at the sampling policy, so every
    probability ratio is exactly 1 (Schulman et al. 2017), on the stock net."""
    ratios = []

    def recording(actor, ids, actions, adv, old_logp, hp):
        logits = forward(actor, np.eye(actor.dims[0])[ids])[1][1]
        new_logp = log_softmax(logits)[np.arange(len(actions)), actions]
        ratios.append(np.exp(new_logp - old_logp))
        return ppo_gradients(actor, ids, actions, adv, old_logp, hp)

    monkeypatch.setattr("cyberdefsim.agents.ppo.ppo_gradients", recording)
    cfg = ExperimentConfig(algorithm="ppo", profile="Av3", seeds=[0],
                           hyperparams={"epochs": 1, "steps_per_epoch": 480},
                           output_dir=str(tmp_path / "run"))
    train(cfg)
    # 10 rounds of 4 workers x 12 steps, each round 3 epochs
    rounds = np.reshape(ratios, (10, HyperParams().ppo_epochs, 48))
    assert np.all(rounds[:, 0] == 1.0)
    assert np.any(rounds[:, 1:] != 1.0)  # the policy did move


def test_trainers_step_accounting():
    """Every round lands through the server: one step of each net per A2C
    round, one per worker per A3C round, one per epoch per PPO round."""
    hp = HyperParams(rollout_fragment=8, num_workers=2)
    a2c = A2CTrainer([mdp_runner((s, 4)) for s in range(2)], hp, 0,
                     obs_dim=2, n_actions=2, hidden=(8,))
    a2c.run(40)  # rounds are whole multiples of fragment * workers
    assert a2c.env_steps == 48
    assert a2c.server.version == 3

    a3c = A3CTrainer([mdp_runner((s, 5)) for s in range(2)], hp, 0,
                     obs_dim=2, n_actions=2, hidden=(8,))
    a3c.run(32)
    assert a3c.env_steps == 32
    assert a3c.server.version == 2 * hp.num_workers
    assert a3c.version_history == list(range(1, a3c.server.version + 1))

    ppo = PPOTrainer([mdp_runner((s, 6)) for s in range(2)], hp, 0,
                     obs_dim=2, n_actions=2, hidden=(8,))
    ppo.run(16)
    assert ppo.env_steps == 16
    assert ppo.server.version == hp.ppo_epochs
    ppo.run(16)
    assert ppo.server.version == 2 * hp.ppo_epochs


def test_each_ppo_epoch_reads_the_net_after_the_last_step(
        monkeypatch, before_apply_update):
    """A PPO round's epochs are sequential on both nets: each gradient is
    made only after the previous step on that net has landed."""
    hp = HyperParams(rollout_fragment=8, num_workers=2)
    ppo = PPOTrainer([mdp_runner((s, 10)) for s in range(2)], hp, 0,
                     obs_dim=2, n_actions=2, hidden=(8,))
    log = {"actor": [], "critic": []}

    def logged(kind, name, fn):
        def call(*args, **kwargs):
            log[name].append(kind)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr("cyberdefsim.agents.ppo.ppo_gradients",
                        logged("grad", "actor", ppo_gradients))
    monkeypatch.setattr("cyberdefsim.agents.ppo._critic_gradients",
                        logged("grad", "critic", _critic_gradients))
    before_apply_update(lambda net: log[
        "critic" if net is ppo.critic else "actor"].append("step"))
    ppo.run(32)  # two rounds
    for name in ("actor", "critic"):
        assert log[name] == ["grad", "step"] * (2 * hp.ppo_epochs), name


@pytest.mark.parametrize("trainer_cls", [A2CTrainer, A3CTrainer, PPOTrainer])
def test_both_nets_step_on_the_callers_thread(trainer_cls, before_apply_update):
    """Each round steps the actor, then the critic, all on the thread that
    called run()."""
    hp = HyperParams(rollout_fragment=8, num_workers=2)
    trainer = trainer_cls([mdp_runner((s, 8)) for s in range(2)], hp, 0,
                          obs_dim=2, n_actions=2, hidden=(8,))
    steps = []
    before_apply_update(lambda net: steps.append(
        ("critic" if net is trainer.critic else "actor", threading.get_ident())))
    trainer.run(48)
    assert steps and {t for _, t in steps} == {threading.get_ident()}
    k = len(steps) // 6  # each net's steps per round; 3 rounds of 2 x 8 steps
    assert [name for name, _ in steps] == (["actor"] * k + ["critic"] * k) * 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_still_learns():
    """A forked child trains on from its parent's state, and neither hangs
    nor fails."""
    hp = HyperParams(rollout_fragment=8, num_workers=2)
    trainer = A2CTrainer([mdp_runner((s, 9)) for s in range(2)], hp, 0,
                         obs_dim=2, n_actions=2, hidden=(8,))
    trainer.run(16)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            trainer.run(16)
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_a3c_round_equals_snapshot_submissions():
    """The stock round collects with the server's live nets; by hand, every
    worker pulls a snapshot first. Both must land the same submissions."""
    hp = HyperParams(rollout_fragment=8, num_workers=2)

    def trainer():
        return A3CTrainer([mdp_runner((s, 7)) for s in range(2)], hp, 3,
                          obs_dim=2, n_actions=2, hidden=(8,))

    stock, by_hand = trainer(), trainer()
    for _ in range(6):
        stock.run(16)
        submissions = [w.compute_submission(by_hand.server)
                       for w in by_hand.workers]
        for i in by_hand.order_rng.permutation(len(submissions)):
            by_hand.server.submit(*submissions[i])
    assert stock.server.version == by_hand.server.version == 12
    for n1, n2 in ((stock.actor, by_hand.actor), (stock.critic, by_hand.critic)):
        for a, b in zip(n1.weights + n1.biases, n2.weights + n2.biases):
            assert np.array_equal(a, b)


def test_episode_runner_auto_reset_and_callback():
    ends = []
    runner = EpisodeRunner(
        oracles.TwoStateMdpEnv(oracles.TwoStateMdpSpec(), horizon=4, seed=0),
        on_episode_end=lambda win, ret, length, info: ends.append(
            (win, ret, length)
        ),
    )
    for _ in range(9):
        runner.step(0)
    assert len(ends) == 2
    assert all(length == 4 for _, _, length in ends)
    assert runner.episode_length == 1  # a fresh episode is underway
