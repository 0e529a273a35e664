"""Asynchronous advantage actor-critic: a parameter server plus free-running
workers that submit gradients computed on possibly stale snapshots.

The stock trainer is A2C's round with one submission per worker: all of a
round's submissions are computed against one server version, then land in a
seeded order, so each is stale by the number applied before it and runs stay
bit-reproducible. The server is lock-protected, so thread-based workers
(A3CWorker, a3c_worker_step) are also supported.
"""

from __future__ import annotations

import threading

from ..neural_net import Mlp, OptimizerState, apply_update
from .common import HyperParams
from .a2c import A2CTrainer, a2c_gradients, collect_fragment


class ParameterServer:
    """Authoritative parameter copy with a strictly increasing version."""

    def __init__(self, actor: Mlp, critic: Mlp, hp: HyperParams):
        self._actor = actor
        self._critic = critic
        self._actor_opt = OptimizerState(lr=hp.alpha)
        self._critic_opt = OptimizerState(lr=hp.alpha)
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
        with self._lock:
            apply_update(self._actor, self._actor_opt, actor_grads)
            apply_update(self._critic, self._critic_opt, critic_grads)
            self.version += 1
            return self.version


class A3CWorker:
    """Owns one environment runner and its action-sampling stream."""

    def __init__(self, runner, hp: HyperParams, rng):
        self.runner = runner
        self.hp = hp
        self.rng = rng

    def compute_submission(self, server: ParameterServer):
        """Pull a snapshot, roll one fragment, return its gradients."""
        _version, actor, critic = server.snapshot()
        ids, actions, returns = collect_fragment(
            self.runner, actor, critic, self.hp, self.rng
        )
        a_grads, c_grads, _ = a2c_gradients(actor, critic, ids, actions,
                                            returns, self.hp)
        return a_grads, c_grads


def a3c_worker_step(worker: A3CWorker, server: ParameterServer,
                    hp: HyperParams) -> int:
    """One pull-rollout-submit cycle; returns the server version after apply."""
    return server.submit(*worker.compute_submission(server))


class A3CTrainer(A2CTrainer):
    """A2C's round loop; each worker's fragment is its own server submission."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.server = ParameterServer(self.actor, self.critic, self.hp)
        self.workers = [A3CWorker(r, self.hp, rng)
                        for r, rng in zip(self.runners, self.sample_rngs)]
        self.version_history: list[int] = []

    def update(self, batches):
        # every submission is computed before any lands, so all of them see
        # one server version; staleness comes only from the apply order
        submissions = [a2c_gradients(self.actor, self.critic, ids, actions,
                                     returns, self.hp)[:2]
                       for ids, actions, returns in batches]
        for i in self.order_rng.permutation(len(submissions)):
            self.version_history.append(self.server.submit(*submissions[i]))
