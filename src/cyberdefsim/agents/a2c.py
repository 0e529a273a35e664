"""Synchronous advantage actor-critic over fixed-length worker fragments."""

from __future__ import annotations

import threading

import numpy as np

from ..neural_net import (
    LINEAR,
    SOFTMAX,
    Mlp,
    OptimizerState,
    apply_update,
    as_float32,
    backward_ids,
    forward_table,
    init_mlp,
    log_softmax,
)
from .common import (HyperParams, advantage, fragment_returns,
                     sample_policy_action)


def make_actor_critic(obs_dim: int, n_actions: int, seed, hidden=(256, 256)):
    seq = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    actor_seed, critic_seed = seq.spawn(2)
    actor = init_mlp([obs_dim, *hidden, n_actions], SOFTMAX, actor_seed)
    critic = init_mlp([obs_dim, *hidden, 1], LINEAR, critic_seed)
    return as_float32(actor), as_float32(critic)


def _critic_gradients(critic: Mlp, ids, returns):
    """Unclipped gradient of the mean squared error of the values at
    observation ids to `returns`; Adam's step clips it."""
    values = forward_table(critic)[0][ids, 0]
    return backward_ids(critic, ids,
                        (2.0 * (values - returns) / len(returns))[:, None])


def _policy_gradients(actor: Mlp, ids, actions, coeff, hp: HyperParams):
    """Unclipped gradient of -mean(coeff * logpi(a)) - entropy_coef * mean(H)
    at observation ids, `coeff` held constant (Adam's step clips it)."""
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
    return backward_ids(actor, ids, grad_logits, from_logits=True)


def collect_fragment(runner, actor: Mlp, critic: Mlp, hp: HyperParams, rng):
    """Roll out rollout_fragment steps; returns the observation ids, the
    actions and the discounted returns."""
    obs_l, act_l, rew_l, done_l = [], [], [], []
    for _ in range(hp.rollout_fragment):
        obs = runner.obs
        action = sample_policy_action(actor, obs, rng)
        _, reward, done, _ = runner.step(action)
        obs_l.append(obs)
        act_l.append(action)
        rew_l.append(reward)
        done_l.append(done)
    bootstrap = 0.0 if done_l[-1] else forward_table(critic)[0][runner.obs, 0]
    returns = fragment_returns(rew_l, done_l, hp.gamma, bootstrap)
    return np.asarray(obs_l), np.asarray(act_l), returns


class ParameterServer:
    """Authoritative parameter copy with a strictly increasing version; its
    Adam steps clip each submission to grad_clip as they apply it."""

    def __init__(self, actor: Mlp, critic: Mlp, hp: HyperParams):
        self._actor = actor
        self._critic = critic
        self._actor_opt = OptimizerState(lr=hp.alpha, max_norm=hp.grad_clip)
        self._critic_opt = OptimizerState(lr=hp.alpha, max_norm=hp.grad_clip)
        self._lock = threading.Lock()
        self.version = 0

    def snapshot(self):
        """Consistent (version, actor, critic) copy of a single version."""
        with self._lock:
            return self.version, self._actor.copy(), self._critic.copy()

    def submit(self, actor_grads, critic_grads) -> int:
        """Atomically apply one gradient submission; returns the new version.

        Submissions computed against stale snapshots are applied as-is; that
        staleness is the defining behavior of the asynchronous scheme.
        """
        return self.submit_round(lambda: [actor_grads],
                                 lambda: [critic_grads])[0]

    def submit_round(self, actor_grads, critic_grads) -> list[int]:
        """Atomically apply a round of submissions in order; returns the
        version after each. `actor_grads` and `critic_grads` return each
        net's gradients in apply order: a list is made before any step lands,
        an iterator makes each after the previous one has landed.

        Under one hold of the lock, the actor learns, then the critic, so an
        actor's error is raised before the critic's gradients are made."""
        def learn(net, opt, make_grads):
            n = 0
            for n, g in enumerate(make_grads(), 1):
                apply_update(net, opt, g)
            return n

        with self._lock:
            n = learn(self._actor, self._actor_opt, actor_grads)
            learn(self._critic, self._critic_opt, critic_grads)
            self.version += n
            return list(range(self.version - n + 1, self.version + 1))


class A2CTrainer:
    """num_workers fragment collectors feeding one synchronous learner.

    Every round lands through one ParameterServer. A3C and PPO differ from
    A2C only in submissions(), update() and sampling_streams().
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
        self.server = ParameterServer(self.actor, self.critic, hp)
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

    def submissions(self, batches) -> list:
        """The round's submissions in apply order: one, every fragment
        concatenated."""
        return [tuple(np.concatenate(b) for b in zip(*batches))]

    def update(self, batches) -> list[int]:
        """One server step of each net per submission, every gradient made
        before any step lands; the advantages come from the critic's table
        before its first step. Returns the server version after each."""
        subs = self.submissions(batches)
        values = forward_table(self.critic)[0]
        advs = [advantage(returns, values[ids, 0]) for ids, _, returns in subs]
        return self.server.submit_round(
            lambda: [_policy_gradients(self.actor, ids, actions, adv, self.hp)
                     for (ids, actions, _), adv in zip(subs, advs)],
            lambda: [_critic_gradients(self.critic, ids, returns)
                     for ids, _, returns in subs])
