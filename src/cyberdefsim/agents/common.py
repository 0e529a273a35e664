"""Shared agent machinery: hyperparameters, exploration, replay, rollouts."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..environment import DEFENDER_WIN, TRUNCATED
from ..neural_net import Mlp, forward_table


@dataclass(frozen=True)
class HyperParams:
    """Training knobs; defaults are the stock experiment configuration."""

    gamma: float = 0.8
    alpha: float = 0.005
    entropy_coef: float = 0.05
    eps_initial: float = 1.0
    eps_final: float = 0.04
    eps_decay_steps: int = 300_000
    num_workers: int = 4
    rollout_fragment: int = 12
    batch_size: int = 48
    ppo_clip: float = 0.4
    ppo_epochs: int = 3
    epochs: int = 100
    steps_per_epoch: int = 25_000
    replay_capacity: int = 50_000
    target_sync: int = 500
    double_dqn: bool = True
    grad_clip: float = 40.0

    def __post_init__(self):
        for name in ("gamma", "alpha", "eps_initial", "eps_final",
                     "entropy_coef", "ppo_clip", "grad_clip"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not 0 <= self.gamma < 1:
            raise ValueError("gamma must lie in [0,1)")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        for name in ("eps_initial", "eps_final"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0,1], got {getattr(self, name)!r}")
        if self.ppo_clip <= 0:
            raise ValueError(f"ppo_clip must be positive, got {self.ppo_clip!r}")
        if self.eps_final > self.eps_initial:
            raise ValueError("eps_final must not exceed eps_initial")
        if not isinstance(self.double_dqn, bool):
            raise ValueError(f"double_dqn must be true or false, got {self.double_dqn!r}")
        for name in ("eps_decay_steps", "num_workers", "rollout_fragment",
                     "batch_size", "ppo_epochs", "epochs", "steps_per_epoch",
                     "replay_capacity", "target_sync"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        # a buffer that holds fewer transitions than a batch never fills one
        if self.batch_size > self.replay_capacity:
            raise ValueError(f"batch_size {self.batch_size} exceeds replay_capacity "
                             f"{self.replay_capacity}, so DQN would never learn")

    def with_overrides(self, **kw) -> "HyperParams":
        return replace(self, **kw)


def epsilon(step: int, hp: HyperParams) -> float:
    """Linear decay from eps_initial to eps_final over eps_decay_steps."""
    if step < 0:
        raise ValueError("step must be non-negative")
    if step >= hp.eps_decay_steps:
        return hp.eps_final
    frac = step / hp.eps_decay_steps
    return hp.eps_initial + frac * (hp.eps_final - hp.eps_initial)


@lru_cache
def _window_steps(n_steps: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """arange(n_steps), and gamma**k for k = 0..n_steps by repeated products."""
    steps, powers = np.arange(n_steps), np.cumprod(np.r_[1.0, np.full(n_steps, gamma)])
    steps.flags.writeable = powers.flags.writeable = False
    return steps, powers


class ReplayBuffer:
    """Ring of transitions in column arrays, with uniform sampling;
    observations are state ids."""

    def __init__(self, capacity: int, rng):
        self.capacity = capacity
        self.rng = rng
        self._obs = np.empty(capacity, dtype=np.intp)
        self._actions = np.empty(capacity, dtype=np.int64)
        self._rewards = np.empty(capacity)
        self._next_obs = np.empty(capacity, dtype=np.intp)
        self._dones = np.empty(capacity, dtype=bool)
        self._size = 0
        self._pos = 0

    def push(self, obs, action, reward, next_obs, done):
        i = self._pos
        self._obs[i], self._next_obs[i] = obs, next_obs
        self._actions[i], self._rewards[i], self._dones[i] = action, reward, done
        self._pos = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def __len__(self):
        return self._size

    def sample_n_step(self, batch_size: int, n_steps: int, gamma: float):
        """Uniform draw of windows of up to n_steps consecutive transitions.

        A window starts at a uniformly drawn entry and runs forward in push
        order, so transitions must be pushed in the order one environment
        produced them; it ends after the first done transition or at the
        newest entry. Returns (obs, actions, returns, next_obs, dones, discounts):
        the first transition's obs and action, the discounted reward sum, the
        last transition's next_obs and done, and gamma**k for a k-step
        window. With n_steps=1 these are the stored transitions themselves.
        """
        size = self._size
        if size < batch_size:
            raise ValueError("buffer smaller than batch size")
        starts = self.rng.integers(size, size=batch_size)
        newest = (self._pos - 1) % size
        steps, powers = _window_steps(n_steps, gamma)
        window = (starts[:, None] + steps) % size
        # a window's last step is its first done or newest entry, else step n-1
        ends = self._dones[window] | (window == newest)
        ends[:, -1] = True
        # the k-step return is the running sum of discounted rewards, added
        # left to right, read after its last step
        sums = np.add.accumulate(self._rewards[window] * powers[:-1], axis=1)
        rows, extra = np.arange(batch_size), ends.argmax(axis=1)
        lasts = window[rows, extra]
        return (
            self._obs[starts],
            self._actions[starts],
            sums[rows, extra],
            self._next_obs[lasts],
            self._dones[lasts],
            powers[extra + 1],
        )


def act_epsilon_greedy(qnet: Mlp, obs, eps: float, rng) -> int:
    """int(u * n) with probability eps, else q-argmax (lowest index wins ties)."""
    n_actions = qnet.dims[-1]
    if rng.random() < eps:
        return int(rng.random() * n_actions)
    return _greedy_actions(qnet)[obs]


def fragment_returns(rewards, dones, gamma: float, bootstrap_value: float) -> np.ndarray:
    """Discounted returns over an ordered fragment, seeded by the bootstrap;
    a done step restarts the sum, so a fragment may span episodes."""
    g = float(bootstrap_value)
    out = np.empty(len(rewards))
    for t in range(len(rewards) - 1, -1, -1):
        if dones[t]:
            g = rewards[t]
        else:
            g = rewards[t] + gamma * g
        out[t] = g
    return out


def advantage(returns, values) -> np.ndarray:
    returns = np.asarray(returns, dtype=float)
    values = np.asarray(values, dtype=float)
    if returns.shape != values.shape:
        raise ValueError("returns/values length mismatch")
    return returns - values


def _greedy_actions(net: Mlp) -> list:
    """Per forward_table row, the highest output's index (the lowest on ties)."""
    if net.greedy is None:
        net.greedy = np.argmax(forward_table(net)[0], axis=1).tolist()
    return net.greedy


def sample_policy_action(actor: Mlp, obs, rng) -> int:
    """Draw from the forward_table row for obs, in float64, as
    rng.choice(n, p=probs / probs.sum())."""
    if actor.cdf is None:  # Generator.choice's CDF, one row per observation id
        probs = forward_table(actor)[0].astype(np.float64)
        cdf = (probs / probs.sum(axis=1, keepdims=True)).cumsum(axis=1)
        actor.cdf = cdf / cdf[:, -1:]
    cdf = actor.cdf[obs]
    if math.isnan(cdf[-1]):
        raise ValueError("Probabilities contain NaN")
    return int(cdf.searchsorted(rng.random(), side="right"))


def argmax_policy(net: Mlp):
    """Deterministic rule: the net's highest output (greedy Q, or policy mode)."""
    def policy(obs, rng):
        return _greedy_actions(net)[obs]

    return policy


def random_policy(n_actions: int):
    if n_actions < 1:
        raise ValueError(f"n_actions must be at least 1, got {n_actions!r}")

    def policy(obs, rng):
        return int(rng.random() * n_actions)

    return policy


class EpisodeRunner:
    """Drives one environment over a path pool, tracking episode statistics.

    `env` is any object with reset(...)/step(action); for the cyber defense
    environment a path is drawn uniformly from the pool at each reset.
    """

    def __init__(self, env, paths=None, rng=None, on_episode_end=None):
        if paths is not None and len(paths) == 0:
            raise ValueError("the path pool is empty")
        self.env = env
        self.paths = paths
        self.rng = rng
        self.on_episode_end = on_episode_end
        self.episode_return = 0.0
        self.episode_length = 0
        self.obs = self._reset()

    def _reset(self):
        self.episode_return = 0.0
        self.episode_length = 0
        if self.paths is None:
            return self.env.reset()
        path = self.paths[int(self.rng.random() * len(self.paths))]
        return self.env.reset(path)

    def step(self, action: int):
        """Apply an action; auto-resets on episode end. Returns the env's
        (observation, reward, done, info) tuple."""
        result = obs, reward, done, info = self.env.step(action)
        self.episode_return += reward
        self.episode_length += 1
        if done:
            if self.on_episode_end is not None:
                win = info.get("outcome") in (DEFENDER_WIN, TRUNCATED)
                self.on_episode_end(win, self.episode_return, self.episode_length, info)
            self.obs = self._reset()
        else:
            self.obs = obs
        return result
