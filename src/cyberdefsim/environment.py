"""Episodic attack/defense simulation with noisy state-index observations.

Per-timestep order: defense block draw, attack skill draw (only when not
blocked), adversary update, benign-interruption sampling, reward,
observation, termination bookkeeping.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain

import numpy as np

from .adversary import AdversaryProfile, attempt
from .attack_graph import AttackGraph, AttackPath, AttackState, TERMINATED
from .defense import INACTIVE, DefenseCatalog, block_probability, power_law_draw

ONGOING = "ongoing"
DEFENDER_WIN = "defender_win"
ADVERSARY_WIN = "adversary_win"
TRUNCATED = "truncated"

# Risk-term conditioning for the per-step reward. "residual" (default)
# evaluates the adversary's goal probability assuming the strongest available
# catalog defense against its next target — a state-intrinsic residual risk;
# "action_aware" conditions on the blocking odds of the action just executed;
# "inactive" evaluates it as if no defense were running.
RISK_RESIDUAL = "residual"
RISK_ACTION_AWARE = "action_aware"
RISK_INACTIVE = "inactive"


@dataclass(frozen=True)
class RewardModel:
    """Constants of the risk/win/cost payoff."""

    impact: float = 10.0
    # literal form keeps only the defender-win branch of the win/loss indicator
    literal_iv: bool = False

    def __post_init__(self):
        if isinstance(self.impact, bool) or not isinstance(self.impact, numbers.Real) \
                or not 0 < self.impact < math.inf:
            raise ValueError(f"impact must be a finite number > 0, got {self.impact!r}")
        if not isinstance(self.literal_iv, bool):
            raise ValueError(f"literal_iv must be true or false, got {self.literal_iv!r}")


@dataclass
class EnvConfig:
    graph: AttackGraph
    catalog: DefenseCatalog
    profile: AdversaryProfile
    reward_model: RewardModel = field(default_factory=RewardModel)
    horizon: int = 64
    seed: int | list[int] | np.random.SeedSequence = 0
    risk_mode: str = RISK_RESIDUAL

    def __post_init__(self):
        if type(self.horizon) is not int or self.horizon < 1:
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        if self.risk_mode not in (RISK_RESIDUAL, RISK_ACTION_AWARE, RISK_INACTIVE):
            raise ValueError(f"unknown risk_mode {self.risk_mode!r}")
        # the env builds its own PCG64 from the seed; a Generator would be
        # shared with its owner, each drawing from the other's stream
        if not isinstance(self.seed, np.random.SeedSequence):
            try:
                if self.seed is None or isinstance(self.seed, bool):
                    raise TypeError
                np.random.SeedSequence(self.seed)
            except (TypeError, ValueError):
                raise ValueError("seed must be an int, a list of ints or a "
                                 f"SeedSequence, got {self.seed!r}") from None


@lru_cache(maxsize=None)
def _p_goal(remaining: int, budget: int, rho: float) -> float:
    if remaining == 0:
        return 1.0
    if budget == 0:
        return 0.0
    return rho * _p_goal(remaining - 1, budget, rho) + (1 - rho) * _p_goal(
        remaining, budget - 1, rho
    )


def compute_p_goal(path: AttackPath, cursor: int, budget: int, rho: float) -> float:
    """Probability the adversary finishes the path suffix before its failure
    budget runs out, each attempt an independent Bernoulli(rho)."""
    if cursor > len(path):
        raise ValueError("cursor beyond path end")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    return _p_goal(len(path) - cursor, budget, float(rho))


def reward_of_transition(model: RewardModel, p_goal: float, outcome: str,
                         cost: float) -> float:
    """Risk/win/cost payoff for one transition."""
    if not 0 <= p_goal <= 1:
        raise ValueError("p_goal out of [0,1]")
    if cost < 0:
        raise ValueError("cost must be non-negative")
    if outcome == DEFENDER_WIN:
        iv = -1.0
    elif outcome == ADVERSARY_WIN and not model.literal_iv:
        iv = 1.0
    else:
        iv = 0.0
    return -p_goal * model.impact - iv * model.impact - cost


def observe(true_state: AttackState, profile: AdversaryProfile, rng,
            graph: AttackGraph) -> int:
    """Noisy observation of the attack position: a state index.

    With probability obs_accuracy the true state is reported; otherwise a
    uniformly random other live state. Terminated is always reported exactly
    so episode boundaries stay unambiguous.
    """
    if true_state.kind == TERMINATED or rng.random() < profile.obs_accuracy:
        return true_state.index
    # live states are indices 0..state_count-2; skip the true one. int(u*n)
    # is off an exact uniform integer by at most about n * 2**-53
    idx = int(rng.random() * (graph.state_count - 2))
    if idx >= true_state.index:
        idx += 1
    return idx


_BLOCK = 256  # uniforms read at a time


class _UniformDraws:
    """The `random()` draws of a numpy `Generator`, read from blocks of
    `Generator.random(_BLOCK)`, which gives the values as many per-call
    `random()` calls give, in the same order; the first block is drawn at
    the first read."""

    __slots__ = ("random",)

    def __init__(self, gen: np.random.Generator):
        self.random = partial(next, chain.from_iterable(
            iter(lambda: gen.random(_BLOCK).tolist(), None)))


class CyberDefenseEnv:
    """Single-owner episodic simulator; clone with distinct seeds to parallelize.

    Holds the adversary's position, path cursor and failure tally."""

    def __init__(self, config: EnvConfig):
        self.config = config
        self.graph = config.graph
        self.catalog = config.catalog
        self.profile = config.profile
        self._draws = _UniformDraws(np.random.Generator(np.random.PCG64(config.seed)))
        self._path: AttackPath | None = None
        self._len = 0
        self._position: AttackState | None = None
        self._cursor = 0
        self._failures = 0
        self._t = 0
        self._done = True
        # per-step lookups built once from the public formulas: block odds by
        # action id and technique id, tactic depth by (dense) state index, the
        # successor by technique id, cost rows by action id (None: draws
        # nothing), and the reward before cost
        g, catalog, rho = self.graph, self.catalog, self.profile.rho
        self._beta = [{tid: block_probability(catalog, a, tech)
                       for tid, tech in g.techniques.items()}
                      for a in catalog.actions]
        self._depth = [g.tactic_depth(s) for s in (
            g.initiated, *map(g.state_of, sorted(g.techniques)), g.terminated)]
        self._successor = {tid: g.state_of(tid) for tid in g.techniques}
        self._costs = [None if a.kind == INACTIVE else catalog.costs[a.id]
                       for a in catalog.actions]
        self._terminated, self._horizon = g.terminated, config.horizon
        # ongoing (and truncated) rewards are rows[remaining][budget], one row
        # set per distinct skill; action_aware reaches its rows by action id
        # and attempted technique, residual and inactive by the next target
        model, tau, rows = config.reward_model, self.profile.tau, {}

        def row_set(skill):
            skill = float(skill)
            if skill not in rows:
                rows[skill] = [[reward_of_transition(model, _p_goal(r, b, skill),
                                                     ONGOING, 0.0) for b in range(tau + 1)]
                               for r in range(len(g.techniques) + 1)]
            return rows[skill]

        self._action_aware = config.risk_mode == RISK_ACTION_AWARE
        if self._action_aware:
            self._risk = [{tid: row_set((1.0 - beta) * rho) for tid, beta in betas.items()}
                          for betas in self._beta]
        else:
            best = best_block_table(catalog, g) if config.risk_mode == RISK_RESIDUAL \
                else dict.fromkeys(g.techniques, 0.0)
            self._risk = {tid: row_set((1.0 - best[tid]) * rho) for tid in g.techniques}
        self._adversary_win_reward = reward_of_transition(model, 1.0, ADVERSARY_WIN, 0.0)
        self._defender_win_reward = reward_of_transition(model, 0.0, DEFENDER_WIN, 0.0)
        self._valid_paths: set[AttackPath] = set()

    @property
    def observation_dim(self) -> int:
        return self.graph.state_count

    @property
    def action_count(self) -> int:
        return len(self.catalog)

    def reset(self, path: AttackPath) -> int:
        if path not in self._valid_paths:
            self.graph.validate_path(path)
            self._valid_paths.add(path)
        self._path, self._len = path, len(path)
        self._position = self.graph.initiated
        self._cursor = 0
        self._failures = 0
        self._t = 0
        self._done = False
        # the pre-attack position is observed exactly
        return self.graph.initiated.index

    def step(self, action_id: int) -> tuple[int, float, bool, dict]:
        """(observation, reward, done, info), the classic Gym step."""
        if self._done:
            raise RuntimeError("step() after episode end; call reset()")
        costs = self._costs[action_id]
        path, profile, draws = self._path, self.profile, self._draws
        pre_depth = self._depth[self._position.index]

        target_id = path.steps[self._cursor]
        beta = self._beta[action_id][target_id]
        # the skill draw is made only when the defense did not block
        if draws.random() >= beta and attempt(profile, draws):
            self._position = self._successor[target_id]
            self._cursor += 1
        else:
            # blocks and skill failures spend the same episode-wide budget
            self._failures += 1
            if self._failures >= profile.tau:
                self._position = self._terminated

        cost = 0.0 if costs is None else \
            costs[pre_depth][power_law_draw(self.catalog, draws)]

        self._t += 1
        # the formula's last operation is `- cost`, and x - 0.0 == x
        if self._cursor >= self._len:
            outcome, reward = ADVERSARY_WIN, self._adversary_win_reward - cost
        elif self._failures >= profile.tau:
            outcome, reward = DEFENDER_WIN, self._defender_win_reward - cost
        else:
            outcome = TRUNCATED if self._t >= self._horizon else ONGOING
            rows = self._risk[action_id][target_id] if self._action_aware \
                else self._risk[path.steps[self._cursor]]
            reward = rows[self._len - self._cursor][profile.tau - self._failures] - cost
        obs = observe(self._position, profile, draws, self.graph)

        self._done = outcome != ONGOING
        info = {
            "outcome": outcome,
            "cost": cost,
            # stage the attack halted at, for stop-tactic reporting: the final
            # pre-termination position for defender wins, the current position
            # otherwise (truncation buckets where the attacker sits)
            "stop_depth": pre_depth if outcome == DEFENDER_WIN
            else self._depth[self._position.index],
        }
        return obs, reward, self._done, info


def scripted_best_return(path: AttackPath, profile: AdversaryProfile,
                         model: RewardModel, residual_rho: float = 0.0) -> float:
    """Return of the ideal episode: every attempt blocked with certainty and at
    zero cost until the adversary's budget is spent at the initial position.

    `residual_rho` is the effective skill used for the risk term of the
    intermediate steps (0 under the action-aware reading, the best-defense
    residual under the residual reading).
    """
    total = 0.0
    for failures in range(1, profile.tau):
        p = compute_p_goal(path, 0, profile.tau - failures, residual_rho)
        total += reward_of_transition(model, p, ONGOING, 0.0)
    total += reward_of_transition(model, 0.0, DEFENDER_WIN, 0.0)
    return total


def best_block_table(catalog: DefenseCatalog, graph: AttackGraph) -> dict[int, float]:
    """Strongest catalog block probability against each technique."""
    return {
        tid: max(block_probability(catalog, a, tech) for a in catalog.actions)
        for tid, tech in graph.techniques.items()
    }
