"""Independent reference implementations used only by the test suite.

Everything here is written against the problem statement, not against the
package internals, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cyberdefsim.adversary import attempt
from cyberdefsim.defense import action_cost, block_probability, sample_interruptions
from cyberdefsim.environment import (
    ADVERSARY_WIN,
    DEFENDER_WIN,
    ONGOING,
    RISK_ACTION_AWARE,
    RISK_RESIDUAL,
    TRUNCATED,
    StepOutcome,
    compute_p_goal,
    observe,
    reward_of_transition,
)
from cyberdefsim.neural_net import (
    BETA1,
    BETA2,
    EPS,
    DivergenceError,
    backward_ids,
    forward,
)


# -- brute-force path enumeration --------------------------------------------


def brute_force_paths(doc: dict) -> set[tuple[int, ...]]:
    """Every simple path from a stage-1 technique to a goal technique.

    Iterative stack-based search over the raw graph document; no reliance on
    the package's adjacency representation or ordering.
    """
    adj: dict[int, list[int]] = {}
    goals = set()
    starts = []
    stage = {}
    for t in doc["techniques"]:
        stage[t["id"]] = t["tactic"]
        if t["is_goal"]:
            goals.add(t["id"])
        if t["tactic"] == 1:
            starts.append(t["id"])
    def ref(x):
        if isinstance(x, str) and x.startswith("technique:"):
            return int(x.split(":", 1)[1])
        return x

    for frm, to in doc["edges"]:
        frm = ref(frm)
        if frm == "initiated":
            continue
        adj.setdefault(int(frm), []).append(int(ref(to)))

    found: set[tuple[int, ...]] = set()
    for start in starts:
        stack = [(start, (start,))]
        while stack:
            node, trail = stack.pop()
            if node in goals:
                found.add(trail)
                continue
            for nxt in adj.get(node, []):
                if nxt not in trail:
                    stack.append((nxt, trail + (nxt,)))
    return found


def random_graph_doc(rng: np.random.Generator) -> dict:
    """A random valid small graph document (at most 8 techniques)."""
    n_stages = int(rng.integers(2, 5))
    # at least one technique per stage, at most 8 total
    counts = [1] * n_stages
    budget = 8 - n_stages
    for _ in range(int(rng.integers(0, budget + 1))):
        counts[int(rng.integers(n_stages))] += 1
    techniques = []
    tid = 1
    by_stage: dict[int, list[int]] = {s: [] for s in range(1, n_stages + 1)}
    for s in range(1, n_stages + 1):
        for _ in range(counts[s - 1]):
            techniques.append(
                {"id": tid, "name": f"t{tid}", "tactic": s,
                 "is_goal": s == n_stages}
            )
            by_stage[s].append(tid)
            tid += 1

    edges = [["initiated", t] for t in by_stage[1]]
    for s in range(1, n_stages):
        for t in by_stage[s]:
            # every non-goal technique needs at least one forward edge
            targets = {int(rng.choice(by_stage[s + 1]))}
            # sprinkle extra lateral/forward/backward edges
            candidates = [
                c
                for d in (-1, 0, 1)
                if 1 <= s + d <= n_stages
                for c in by_stage[s + d]
                if c != t and not (s + d == n_stages and d <= 0)
            ]
            for c in candidates:
                if rng.random() < 0.25:
                    targets.add(c)
            edges.extend([t, x] for x in sorted(targets))
    return {
        "tactics": [{"id": s, "name": f"stage{s}"} for s in range(n_stages + 1)],
        "techniques": techniques,
        "edges": edges,
    }


# -- Monte Carlo goal probability ---------------------------------------------


def mc_p_goal(remaining: int, budget: int, rho: float, trials: int,
              seed) -> float:
    """Simulate the attempt process: independent Bernoulli(rho) tries until
    either `remaining` successes (goal) or `budget` failures (stopped).

    The episode is decided within the first remaining+budget-1 draws, so one
    fixed-width uniform matrix covers every trial.
    """
    if remaining == 0:
        return 1.0
    if budget == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    width = remaining + budget - 1
    hits = rng.random((trials, width)) < rho
    successes = hits.cumsum(axis=1)
    # reaching `remaining` successes within the decision window means the
    # goal attempt lands before the budget-th failure
    return float(np.mean(successes[:, -1] >= remaining))


# -- finite-difference gradients ----------------------------------------------


def finite_diff(loss_fn, params: list[np.ndarray], h: float = 1e-5):
    """Central finite differences of a scalar function of the parameter list."""
    grads = [np.zeros_like(p) for p in params]
    for p, g in zip(params, grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = loss_fn()
            flat_p[i] = orig - h
            down = loss_fn()
            flat_p[i] = orig
            flat_g[i] = (up - down) / (2 * h)
    return grads


def finite_diff_at(loss_fn, param: np.ndarray, flat_index: int,
                   h: float = 1e-5) -> float:
    """Central finite difference of one scalar parameter entry."""
    flat = param.reshape(-1)
    orig = flat[flat_index]
    flat[flat_index] = orig + h
    up = loss_fn()
    flat[flat_index] = orig - h
    down = loss_fn()
    flat[flat_index] = orig
    return (up - down) / (2 * h)


# -- PPO clipped surrogate ------------------------------------------------------


def ppo_loss(probs, actions, advantages, old_logp, clip: float,
             entropy_coef: float) -> float:
    """Negated clipped surrogate minus the entropy bonus (Schulman et al.
    2017, eq. 7), from the new policy's action probabilities per sample."""
    probs = np.asarray(probs, dtype=float)
    advantages = np.asarray(advantages, dtype=float)
    ratio = probs[np.arange(len(probs)), actions] / np.exp(old_logp)
    surrogate = np.minimum(ratio * advantages,
                           np.clip(ratio, 1 - clip, 1 + clip) * advantages)
    entropy = -np.sum(probs * np.log(probs), axis=1)
    return float(-np.mean(surrogate) - entropy_coef * np.mean(entropy))


# -- n-step replay windows, one transition at a time ---------------------------


class ScalarReplay:
    """List-of-tuples ring with a per-sample window walk.

    Draws `starts` with the same single rng call as the package's buffer, then
    walks each window in Python floats: it runs forward in push order and ends
    after the first done transition or at the newest entry.
    """

    def __init__(self, capacity: int, rng):
        self.capacity = capacity
        self.rng = rng
        self._data: list = []
        self._pos = 0

    def push(self, obs, action, reward, next_obs, done):
        item = (obs, int(action), float(reward), next_obs, bool(done))
        if len(self._data) < self.capacity:
            self._data.append(item)
        else:
            self._data[self._pos] = item
            self._pos = (self._pos + 1) % self.capacity

    def sample_n_step(self, batch_size: int, n_steps: int, gamma: float):
        data = self._data
        size = len(data)
        starts = self.rng.integers(size, size=batch_size).tolist()
        newest = (self._pos - 1) % size
        lasts, returns, discounts = [], [], []
        for j in starts:
            last = data[j]
            g, discount = last[2], gamma
            for _ in range(n_steps - 1):
                if last[4] or j == newest:
                    break
                j = (j + 1) % size
                last = data[j]
                g += discount * last[2]
                discount *= gamma
            lasts.append(last)
            returns.append(g)
            discounts.append(discount)
        firsts = [data[j] for j in starts]
        return (
            np.stack([t[0] for t in firsts]),
            np.asarray([t[1] for t in firsts]),
            np.asarray(returns),
            np.stack([t[3] for t in lasts]),
            np.asarray([t[4] for t in lasts]),
            np.asarray(discounts),
        )


# -- gradient clip, then Adam ---------------------------------------------------


def clip_then_adam(net, opt, grads, max_norm: float) -> None:
    """Global-norm clipping (Pascanu et al. 2013), then one Adam step with
    its bias corrections folded into the step size and epsilon (Kingma & Ba
    2015, section 2), as two separate passes over allocated temporaries.

    The clip scales `grads` in place when its float64 norm exceeds a positive
    `max_norm`. Adam runs in float32 on a float32 copy of the gradient and
    checks every (1 - beta2) g**2 term before writing anything, raising
    DivergenceError on a non-finite one. Reads and writes `opt`'s lr, step, m
    and v, never its max_norm or scratch; drops the net's forward table.
    """
    total = math.sqrt(np.square(grads.flat, dtype=np.float64).sum())
    if max_norm > 0 and total > max_norm:
        grads.flat *= max_norm / total
    p = net.params
    if opt.m is None:
        opt.m, opt.v = np.zeros((2, p.size), np.float32)
    with np.errstate(over="ignore"):
        g32 = grads.flat.astype(np.float32)
        sq = (1 - BETA2) * g32 * g32
    if not np.isfinite(sq).all():
        raise DivergenceError("non-finite gradient")
    opt.step += 1
    b2c = math.sqrt(1.0 - BETA2 ** opt.step)
    alpha = opt.lr * b2c / (1.0 - BETA1 ** opt.step)
    opt.v[...] = BETA2 * opt.v + sq
    opt.m[...] = BETA1 * opt.m + (1 - BETA1) * g32
    p -= alpha * opt.m / (np.sqrt(opt.v) + EPS * b2c)
    net.table = net.greedy = net.cdf = None


# -- DQN update, three batch forwards -------------------------------------------


class ReferenceDqn:
    """The DQN update with a target net: three batch forwards per update.

    The online net runs on `obs` and on `next_obs` (the double-Q pick), the
    target net on `next_obs`; the target net is a copy of the online net,
    taken every `target_sync` updates (Mnih et al. 2015; van Hasselt et al.
    2016). It runs on the package's net substrate (its per-id backward
    included) and replay buffer, so agreement checks how the package's
    update gathers its batch, not those. It clips, then steps, with
    clip_then_adam, and so ignores `opt.max_norm`.
    """

    def __init__(self, qnet, opt, buffer, hp):
        self.qnet, self.opt, self.buffer, self.hp = qnet, opt, buffer, hp
        self.target_net = qnet.copy()
        self.updates = 0

    def update(self) -> float:
        hp, qnet = self.hp, self.qnet
        obs, actions, returns, next_obs, dones, discounts = (
            self.buffer.sample_n_step(hp.batch_size, hp.rollout_fragment,
                                      hp.gamma))
        next_rows = np.eye(qnet.dims[0])[next_obs]
        q_target, _ = forward(self.target_net, next_rows)
        if hp.double_dqn:
            q_online, _ = forward(qnet, next_rows)
            pick = np.argmax(q_online, axis=1)
        else:
            pick = np.argmax(q_target, axis=1)
        bootstrap = q_target[np.arange(len(pick)), pick]
        targets = returns + discounts * bootstrap * ~dones
        q, _ = forward(qnet, np.eye(qnet.dims[0])[obs])
        err = q[np.arange(len(actions)), actions] - targets
        grad_out = np.zeros_like(q)
        grad_out[np.arange(len(actions)), actions] = 2.0 * err / len(actions)
        clip_then_adam(qnet, self.opt, backward_ids(qnet, obs, grad_out),
                       hp.grad_clip)
        self.updates += 1
        if self.updates % hp.target_sync == 0:
            self.target_net = qnet.copy()
        return float(np.mean(err ** 2))


# -- simulator step --------------------------------------------------------------


class ReferenceEnv:
    """The simulator's step written out against the public formulas and graph
    queries, each called afresh every step: stepped beside CyberDefenseEnv
    from the same seed, it checks that the env's precomputed lookups change
    no draw, no draw order and no output."""

    def __init__(self, config):
        self.config = config
        self.rng = np.random.default_rng(config.seed)

    def reset(self, path) -> int:
        self.path, self.position = path, self.config.graph.initiated
        self.cursor = self.failures = self.t = 0
        return self.position.index

    def step(self, action_id: int) -> StepOutcome:
        cfg, graph, catalog = self.config, self.config.graph, self.config.catalog
        profile, path = cfg.profile, self.path
        action = catalog.actions[action_id]
        pre_depth = graph.tactic_depth(self.position)
        target_id = path.steps[self.cursor]
        beta = block_probability(catalog, action, graph.techniques[target_id])
        if self.rng.random() >= beta and attempt(profile, self.rng):
            self.position = graph.state_of(target_id)
            self.cursor += 1
        else:
            self.failures += 1
            if self.failures >= profile.tau:
                self.position = graph.terminated
        interrupted = sample_interruptions(catalog, action, pre_depth, self.rng)
        cost = action_cost(catalog, action, interrupted)
        self.t += 1
        if self.cursor >= len(path):
            outcome, p_goal = ADVERSARY_WIN, 1.0
        elif self.failures >= profile.tau:
            outcome, p_goal = DEFENDER_WIN, 0.0
        else:
            outcome = TRUNCATED if self.t >= cfg.horizon else ONGOING
            rho = profile.rho
            if cfg.risk_mode == RISK_RESIDUAL:
                nxt = graph.techniques[path.steps[self.cursor]]
                rho = (1.0 - max(block_probability(catalog, a, nxt)
                                 for a in catalog.actions)) * rho
            elif cfg.risk_mode == RISK_ACTION_AWARE:
                rho = (1.0 - beta) * rho
            p_goal = compute_p_goal(path, self.cursor,
                                    profile.tau - self.failures, rho)
        reward = reward_of_transition(cfg.reward_model, p_goal, outcome, cost)
        obs = observe(self.position, profile, self.rng, graph)
        stop_depth = (pre_depth if outcome == DEFENDER_WIN
                      else graph.tactic_depth(self.position))
        return StepOutcome(obs, reward, outcome != ONGOING,
                           {"outcome": outcome, "cost": cost,
                            "stop_depth": stop_depth})


# -- two-state reference MDP and value iteration -------------------------------


@dataclass(frozen=True)
class TwoStateMdpSpec:
    """Deterministic 2-state / 2-action MDP.

    state 0: action 0 -> reward 1, stay;   action 1 -> reward 0, go to 1
    state 1: action 0 -> reward 3, stay;   action 1 -> reward 0, go to 0

    At gamma = 0.8 the optimal policy is (state 0 -> action 1,
    state 1 -> action 0): the myopic reward in state 0 is a trap.
    """

    rewards = ((1.0, 0.0), (3.0, 0.0))
    transitions = ((0, 1), (1, 0))


def value_iteration(spec: TwoStateMdpSpec, gamma: float,
                    tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Returns (optimal state values, optimal greedy policy)."""
    v = np.zeros(2)
    while True:
        q = np.array(
            [
                [spec.rewards[s][a] + gamma * v[spec.transitions[s][a]]
                 for a in range(2)]
                for s in range(2)
            ]
        )
        nv = q.max(axis=1)
        if np.max(np.abs(nv - v)) < tol:
            return nv, q.argmax(axis=1)
        v = nv


@dataclass(frozen=True)
class _MdpStep:
    observation: np.ndarray
    reward: float
    done: bool
    info: dict


class TwoStateMdpEnv:
    """Episodic wrapper over TwoStateMdpSpec with the simulator's step API."""

    observation_dim = 2
    action_count = 2

    def __init__(self, spec: TwoStateMdpSpec, horizon: int, seed):
        self.spec = spec
        self.horizon = horizon
        self.rng = np.random.default_rng(seed)
        self._state = 0
        self._t = 0

    def _obs(self):
        return self._state

    def reset(self):
        self._state = int(self.rng.integers(2))
        self._t = 0
        return self._obs()

    def step(self, action: int):
        reward = self.spec.rewards[self._state][action]
        self._state = self.spec.transitions[self._state][action]
        self._t += 1
        done = self._t >= self.horizon
        return _MdpStep(self._obs(), reward, done, {"outcome": "truncated" if done else "ongoing"})
