"""Asynchronous advantage actor-critic: a parameter server plus free-running
workers that submit gradients computed on possibly stale snapshots.

The stock trainer is A2C's round with one submission per worker: all of a
round's submissions are computed against one server version, then land in a
seeded order, so each is stale by the number applied before it and runs stay
bit-reproducible. The server (ParameterServer, which A2C and PPO land their
rounds through too) is lock-protected, so thread-based workers (A3CWorker,
a3c_worker_step) are also supported.
"""

from __future__ import annotations

from ..neural_net import forward_table
from .common import HyperParams, advantage
from .a2c import (A2CTrainer, ParameterServer, _critic_gradients,
                  _policy_gradients, collect_fragment)


class A3CWorker:
    """Owns one environment runner and its action-sampling stream."""

    def __init__(self, runner, hp: HyperParams, rng):
        self.runner = runner
        self.hp = hp
        self.rng = rng

    def compute_submission(self, server: ParameterServer):
        """Pull a snapshot, roll one fragment, return its gradients: the
        actor's and the critic's, made as A2CTrainer.update makes them."""
        _version, actor, critic = server.snapshot()
        ids, actions, returns = collect_fragment(
            self.runner, actor, critic, self.hp, self.rng
        )
        adv = advantage(returns, forward_table(critic)[0][ids, 0])
        return (_policy_gradients(actor, ids, actions, adv, self.hp),
                _critic_gradients(critic, ids, returns))


def a3c_worker_step(worker: A3CWorker, server: ParameterServer,
                    hp: HyperParams) -> int:
    """One pull-rollout-submit cycle; returns the server version after apply."""
    return server.submit(*worker.compute_submission(server))


class A3CTrainer(A2CTrainer):
    """A2C's round loop; each worker's fragment is its own server submission."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.workers = [A3CWorker(r, self.hp, rng)
                        for r, rng in zip(self.runners, self.sample_rngs)]
        self.version_history: list[int] = []

    def submissions(self, batches) -> list:
        # every submission is computed before any lands, so all of them see
        # one server version; staleness comes only from the apply order
        return [batches[i] for i in self.order_rng.permutation(len(batches))]

    def update(self, batches):
        self.version_history += super().update(batches)
