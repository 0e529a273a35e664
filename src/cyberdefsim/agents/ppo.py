"""Proximal policy optimization with the clipped probability-ratio objective."""

from __future__ import annotations

import numpy as np

from ..neural_net import (
    Mlp,
    apply_update,
    backward,
    clip_gradients,
    forward,
    log_softmax,
)
from .common import HyperParams, advantage
from .a2c import A2CTrainer, _critic_gradients


def ppo_gradients(actor: Mlp, obs, actions, advantages, old_logp,
                  hp: HyperParams):
    obs = np.asarray(obs, dtype=float)
    actions = np.asarray(actions)
    advantages = np.asarray(advantages, dtype=float)
    old_logp = np.asarray(old_logp, dtype=float)
    n = len(actions)

    probs, cache = forward(actor, obs)
    logp = log_softmax(cache[1])
    new_logp = logp[np.arange(n), actions]
    ratio = np.exp(new_logp - old_logp)
    clipped = np.clip(ratio, 1 - hp.ppo_clip, 1 + hp.ppo_clip)
    unclipped_term = ratio * advantages
    clipped_term = clipped * advantages
    # gradient flows through the ratio only where the unclipped branch is taken
    active = unclipped_term <= clipped_term
    ent = -np.sum(probs * logp, axis=1)

    onehot_minus_p = -probs.copy()
    onehot_minus_p[np.arange(n), actions] += 1.0
    coeff = np.where(active, ratio * advantages, 0.0)
    grad_logits = -coeff[:, None] * onehot_minus_p
    grad_logits += hp.entropy_coef * probs * (logp + ent[:, None])
    grad_logits /= n
    grads = backward(actor, cache, grad_logits, from_logits=True)
    clip_gradients(grads, hp.grad_clip)
    return grads


class PPOTrainer(A2CTrainer):
    """A2C's fragment rounds, then ppo_epochs clipped policy passes per round."""

    def sampling_streams(self, seed: np.random.SeedSequence, n: int) -> list:
        """One action-sampling stream shared by every worker."""
        return [np.random.default_rng(seed)] * n

    def update(self, batches):
        obs, actions, returns, old_logp = (np.concatenate(b)
                                           for b in zip(*batches))
        values, _ = forward(self.critic, obs)
        adv = advantage(returns, values[:, 0])

        for _epoch in range(self.hp.ppo_epochs):
            grads = ppo_gradients(self.actor, obs, actions, adv, old_logp,
                                  self.hp)
            apply_update(self.actor, self.actor_opt, grads)
            values, c_cache = forward(self.critic, obs)
            c_grads = _critic_gradients(self.critic, values, c_cache, returns,
                                       self.hp.grad_clip)
            apply_update(self.critic, self.critic_opt, c_grads)
