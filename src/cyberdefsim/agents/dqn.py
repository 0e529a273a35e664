"""Q-learning agent: replay buffer, target Q table, optional double-Q targets."""

from __future__ import annotations

import numpy as np

from ..neural_net import (
    LINEAR,
    OptimizerState,
    apply_update,
    as_float32,
    backward_ids,
    forward_table,
    init_mlp,
)
from .common import HyperParams, ReplayBuffer, act_epsilon_greedy, epsilon


def dqn_targets(q_online, q_target, rewards, dones, gamma,
                double: bool) -> np.ndarray:
    """Bootstrap targets for a batch; terminal transitions take the raw reward.

    `q_online` and `q_target` are the online net's and the target table's Q
    rows at each sample's next observation; double-Q picks by `q_online`.
    `gamma` is one discount for the batch, or one per sample (gamma**k for
    k-step returns in `rewards`).
    """
    pick = np.argmax(q_online if double else q_target, axis=1)
    bootstrap = q_target[np.arange(len(pick)), pick]
    return np.asarray(rewards) + gamma * bootstrap * (~np.asarray(dones))


class DqnAgent:
    """Owns the online net, target Q table, replay buffer and update cadence."""

    def __init__(self, obs_dim: int, n_actions: int, hp: HyperParams, seed,
                 hidden=(256, 256)):
        seq = np.random.SeedSequence(seed)
        net_seed, buf_seed, act_seed = seq.spawn(3)
        self.hp = hp
        self.qnet = as_float32(init_mlp([obs_dim, *hidden, n_actions], LINEAR, net_seed))
        self.target_q, _ = forward_table(self.qnet)
        self.opt = OptimizerState(lr=hp.alpha, max_norm=hp.grad_clip)
        self.buffer = ReplayBuffer(hp.replay_capacity, np.random.default_rng(buf_seed))
        self.act_rng = np.random.default_rng(act_seed)
        self.env_steps = 0
        self.updates = 0

    def act(self, obs) -> int:
        eps = epsilon(self.env_steps, self.hp)
        return act_epsilon_greedy(self.qnet, obs, eps, self.act_rng)

    def observe(self, obs, action, reward, next_obs, done):
        """Record a transition; runs an update every rollout_fragment steps."""
        self.buffer.push(obs, action, reward, next_obs, done)
        self.env_steps += 1
        if (
            self.env_steps % self.hp.rollout_fragment == 0
            and len(self.buffer) >= self.hp.batch_size
        ):
            return dqn_update(self, self.buffer, self.hp)
        return None


def dqn_update(agent: DqnAgent, buffer: ReplayBuffer, hp: HyperParams) -> float:
    """One sampled-batch temporal-difference step; returns the scalar loss.

    Targets bootstrap after up to rollout_fragment steps of stored rewards,
    the horizon the actor-critic learners take their returns over. The
    batch and the double-Q pick read the online net's forward_table; Adam's
    step clips the gradient to grad_clip.
    """
    obs, actions, returns, next_obs, dones, discounts = buffer.sample_n_step(
        hp.batch_size, hp.rollout_fragment, hp.gamma)
    table = forward_table(agent.qnet)[0]
    targets = dqn_targets(table[next_obs], agent.target_q[next_obs], returns,
                          dones, discounts, hp.double_dqn)
    err = table[obs, actions] - targets
    loss = float(np.add.reduce(err * err)) / len(err)
    apply_update(agent.qnet, agent.opt,
                 backward_ids(agent.qnet, (obs, actions), 2.0 * err / len(err)))
    agent.updates += 1
    if agent.updates % hp.target_sync == 0:
        agent.target_q, _ = forward_table(agent.qnet)
    return loss


class DqnTrainer:
    """Single-environment training loop driving a DqnAgent."""

    def __init__(self, runner, agent: DqnAgent):
        self.runner = runner
        self.agent = agent

    def run(self, n_steps: int):
        for _ in range(n_steps):
            obs = self.runner.obs
            action = self.agent.act(obs)
            next_obs, reward, done, _ = self.runner.step(action)
            self.agent.observe(obs, action, reward, next_obs, done)
