"""Synchronous advantage actor-critic over fixed-length worker fragments."""

from __future__ import annotations

import os

import numpy as np

from ..neural_net import (
    LINEAR,
    SOFTMAX,
    Mlp,
    OptimizerState,
    apply_update,
    backward_ids,
    clip_gradients,
    forward_table,
    init_mlp,
    log_softmax,
)
from .common import (HyperParams, advantage, fragment_returns,
                     sample_policy_action)


_critic_thread = None  # (pid, executor): a forked child has no copy of the thread


def side_by_side(actor_job, critic_job) -> tuple:
    """Run critic_job on a second thread, started on first use in each
    process, while actor_job runs on this one; returns both results. numpy's
    BLAS and ufunc loops release the GIL, so the two overlap. Returns only
    once both jobs are done; raises the actor's error first, then the
    critic's."""
    global _critic_thread
    if _critic_thread is None or _critic_thread[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _critic_thread = os.getpid(), ThreadPoolExecutor(
            1, thread_name_prefix="critic")
    critic = _critic_thread[1].submit(critic_job)
    try:
        actor_out = actor_job()
    finally:
        critic.exception()  # waits for the critic, whatever the actor did
    return actor_out, critic.result()


def make_actor_critic(obs_dim: int, n_actions: int, seed, hidden=(256, 256)):
    seq = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    actor_seed, critic_seed = seq.spawn(2)
    actor = init_mlp([obs_dim, *hidden, n_actions], SOFTMAX, actor_seed)
    critic = init_mlp([obs_dim, *hidden, 1], LINEAR, critic_seed)
    return actor, critic


def _critic_gradients(critic: Mlp, ids, returns, grad_clip: float):
    """Clipped gradient of the mean squared error of the values at
    observation ids to `returns`."""
    values = forward_table(critic)[0][ids, 0]
    grads = backward_ids(critic, ids,
                         (2.0 * (values - returns) / len(returns))[:, None])
    clip_gradients(grads, grad_clip)
    return grads


def _policy_gradients(actor: Mlp, ids, actions, coeff, hp: HyperParams):
    """Clipped gradient of -mean(coeff * logpi(a)) - entropy_coef * mean(H)
    at observation ids, `coeff` held constant; returns (grads,
    log-probabilities, entropies)."""
    n = len(actions)
    _, (_, logits, probs) = forward_table(actor)
    probs = probs[ids]
    logp = log_softmax(logits[ids])
    ent = -np.sum(probs * logp, axis=1)
    grad_logits = probs.copy()
    grad_logits[np.arange(n), actions] -= 1.0
    grad_logits *= coeff[:, None]
    grad_logits += hp.entropy_coef * probs * (logp + ent[:, None])
    grad_logits /= n
    grads = backward_ids(actor, ids, grad_logits, from_logits=True)
    clip_gradients(grads, hp.grad_clip)
    return grads, logp, ent


def a2c_gradients(actor: Mlp, critic: Mlp, ids, actions, returns, hp: HyperParams):
    """Clipped actor/critic loss gradients at observation ids; plus loss statistics."""
    values = forward_table(critic)[0][ids, 0]
    adv = advantage(returns, values)
    actor_grads, logp, ent = _policy_gradients(actor, ids, actions, adv, hp)
    critic_grads = _critic_gradients(critic, ids, returns, hp.grad_clip)

    chosen_logp = logp[np.arange(len(actions)), actions]
    stats = {
        "policy_loss": float(-np.mean(chosen_logp * adv)
                             - hp.entropy_coef * np.mean(ent)),
        "value_loss": float(np.mean((returns - values) ** 2)),
        "entropy": float(np.mean(ent)),
    }
    return actor_grads, critic_grads, stats


def collect_fragment(runner, actor: Mlp, critic: Mlp, hp: HyperParams, rng):
    """Roll out rollout_fragment steps; returns the observation ids, the
    actions and the discounted returns."""
    obs_l, act_l, rew_l, done_l = [], [], [], []
    for _ in range(hp.rollout_fragment):
        obs = runner.obs
        action = sample_policy_action(actor, obs, rng)
        result = runner.step(action)
        obs_l.append(obs)
        act_l.append(action)
        rew_l.append(result.reward)
        done_l.append(result.done)
    bootstrap = 0.0 if done_l[-1] else forward_table(critic)[0][runner.obs, 0]
    returns = fragment_returns(rew_l, done_l, hp.gamma, bootstrap)
    return np.asarray(obs_l), np.asarray(act_l), returns


class A2CTrainer:
    """num_workers fragment collectors feeding one synchronous learner.

    A3C and PPO differ from A2C only in update() and sampling_streams().
    """

    def __init__(self, runners, hp: HyperParams, seed,
                 obs_dim=None, n_actions=None, hidden=(256, 256)):
        self.runners = runners
        self.hp = hp
        obs_dim = obs_dim or runners[0].env.observation_dim
        n_actions = n_actions or runners[0].env.action_count
        seq = np.random.SeedSequence(seed)
        net_seed, sample_seed, order_seed = seq.spawn(3)
        self.actor, self.critic = make_actor_critic(obs_dim, n_actions, net_seed,
                                                    hidden)
        self.actor_opt = OptimizerState(lr=hp.alpha)
        self.critic_opt = OptimizerState(lr=hp.alpha)
        self.sample_rngs = self.sampling_streams(sample_seed, len(runners))
        self.order_rng = np.random.default_rng(order_seed)
        self.env_steps = 0

    def sampling_streams(self, seed: np.random.SeedSequence, n: int) -> list:
        """One action-sampling stream per worker; A2C and A3C share this
        layout, so their single-worker runs walk identical trajectories."""
        return [np.random.default_rng(s) for s in seed.spawn(n)]

    def run(self, n_steps: int):
        """Advance in whole rounds until n_steps are consumed; each round rolls
        one fragment per worker, then hands them all to update()."""
        per_round = self.hp.rollout_fragment * len(self.runners)
        rounds = max(1, int(np.ceil(n_steps / per_round)))
        for _ in range(rounds):
            self.update([
                collect_fragment(r, self.actor, self.critic, self.hp, rng)
                for r, rng in zip(self.runners, self.sample_rngs)
            ])
            self.env_steps += per_round

    def update(self, batches):
        """One step of each net on the round's fragments, concatenated; the
        advantages come from the critic's table before its step."""
        ids, actions, returns = (np.concatenate(b) for b in zip(*batches))
        adv = advantage(returns, forward_table(self.critic)[0][ids, 0])
        side_by_side(
            lambda: apply_update(self.actor, self.actor_opt, _policy_gradients(
                self.actor, ids, actions, adv, self.hp)[0]),
            lambda: apply_update(self.critic, self.critic_opt, _critic_gradients(
                self.critic, ids, returns, self.hp.grad_clip)))
