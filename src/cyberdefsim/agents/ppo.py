"""Proximal policy optimization with the clipped probability-ratio objective."""

from __future__ import annotations

import numpy as np

from ..neural_net import Mlp, apply_update, forward_table, log_softmax
from .common import HyperParams, advantage
from .a2c import (A2CTrainer, _critic_gradients, _policy_gradients,
                  side_by_side)


def ppo_gradients(actor: Mlp, ids, actions, advantages, old_logp,
                  hp: HyperParams):
    _, (_, logits, _) = forward_table(actor)
    new_logp = log_softmax(logits[ids])[np.arange(len(actions)), actions]
    ratio = np.exp(new_logp - old_logp)
    clipped = np.clip(ratio, 1 - hp.ppo_clip, 1 + hp.ppo_clip)
    unclipped_term = ratio * advantages
    # gradient flows through the ratio only where the unclipped branch is taken
    active = unclipped_term <= clipped * advantages
    coeff = np.where(active, unclipped_term, 0.0)
    return _policy_gradients(actor, ids, actions, coeff, hp)[0]


class PPOTrainer(A2CTrainer):
    """A2C's fragment rounds, then ppo_epochs clipped policy passes per round."""

    def sampling_streams(self, seed: np.random.SeedSequence, n: int) -> list:
        """One action-sampling stream shared by every worker."""
        return [np.random.default_rng(seed)] * n

    def update(self, batches):
        ids, actions, returns = (np.concatenate(b) for b in zip(*batches))
        adv = advantage(returns, forward_table(self.critic)[0][ids, 0])
        # from the logits the first epoch reads, so its ratios are exactly 1
        _, (_, logits, _) = forward_table(self.actor)
        old_logp = log_softmax(logits[ids])[np.arange(len(actions)), actions]

        def actor():
            for _epoch in range(self.hp.ppo_epochs):
                apply_update(self.actor, self.actor_opt, ppo_gradients(
                    self.actor, ids, actions, adv, old_logp, self.hp))

        def critic():
            for _epoch in range(self.hp.ppo_epochs):
                apply_update(self.critic, self.critic_opt, _critic_gradients(
                    self.critic, ids, returns))

        side_by_side(actor, critic)
