"""Asynchronous advantage actor-critic: a parameter server plus free-running
workers that submit gradients computed on possibly stale snapshots.

The stock trainer is A2C's round with one submission per worker: all of a
round's submissions are computed against one server version, then land in a
seeded order, so each is stale by the number applied before it and runs stay
bit-reproducible. The critic's gradients and steps run beside the actor's, on
a second thread. The server is lock-protected, so thread-based workers
(A3CWorker, a3c_worker_step) are also supported.
"""

from __future__ import annotations

import threading

from ..neural_net import Mlp, OptimizerState, apply_update, forward_table
from .common import HyperParams, advantage
from .a2c import (A2CTrainer, _critic_gradients, _policy_gradients,
                  a2c_gradients, collect_fragment, side_by_side)


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
        net's gradients in apply order; under one hold of the lock, each
        net's are made and applied on a thread of its own (side_by_side)."""
        def learn(net, opt, make_grads):
            grads = make_grads()
            for g in grads:
                apply_update(net, opt, g)
            return len(grads)

        with self._lock:
            n, _ = side_by_side(
                lambda: learn(self._actor, self._actor_opt, actor_grads),
                lambda: learn(self._critic, self._critic_opt, critic_grads))
            versions = []
            for _ in range(n):
                self.version += 1
                versions.append(self.version)
            return versions


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
        frags = [batches[i] for i in self.order_rng.permutation(len(batches))]
        values = forward_table(self.critic)[0]
        advs = [advantage(returns, values[ids, 0]) for ids, _, returns in frags]
        hp = self.hp
        self.version_history += self.server.submit_round(
            lambda: [_policy_gradients(self.actor, ids, actions, adv, hp)[0]
                     for (ids, actions, _), adv in zip(frags, advs)],
            lambda: [_critic_gradients(self.critic, ids, returns)
                     for ids, _, returns in frags])
