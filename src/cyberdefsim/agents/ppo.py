"""Proximal policy optimization with the clipped probability-ratio objective."""

from __future__ import annotations

import numpy as np

from ..neural_net import Mlp, forward_table, log_softmax
from .common import HyperParams, advantage
from .a2c import A2CTrainer, _critic_gradients, _policy_gradients


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
    return _policy_gradients(actor, ids, actions, coeff, hp)


class PPOTrainer(A2CTrainer):
    """A2C's fragment rounds, then ppo_epochs clipped policy passes per round."""

    def sampling_streams(self, seed: np.random.SeedSequence, n: int) -> list:
        """One action-sampling stream shared by every worker."""
        return [np.random.default_rng(seed)] * n

    def update(self, batches) -> list[int]:
        """ppo_epochs server steps of each net on the round's fragments,
        concatenated; each epoch's gradients are made after the previous
        epoch's step has landed."""
        [(ids, actions, returns)] = self.submissions(batches)
        adv = advantage(returns, forward_table(self.critic)[0][ids, 0])
        # from the logits the first epoch reads, so its ratios are exactly 1
        _, (_, logits, _) = forward_table(self.actor)
        old_logp = log_softmax(logits[ids])[np.arange(len(actions)), actions]
        epochs = range(self.hp.ppo_epochs)
        return self.server.submit_round(
            lambda: (ppo_gradients(self.actor, ids, actions, adv, old_logp,
                                   self.hp) for _ in epochs),
            lambda: (_critic_gradients(self.critic, ids, returns)
                     for _ in epochs))
