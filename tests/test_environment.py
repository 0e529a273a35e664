"""Unit tests for the episodic simulator, reward model, and risk term."""

import json
from collections import Counter

import numpy as np
import pytest

import oracles
from cyberdefsim.adversary import AdversaryProfile, profile_by_name
from cyberdefsim.attack_graph import AttackPath, GraphError, load_graph
from cyberdefsim.defense import load_catalog
from cyberdefsim.environment import (
    ADVERSARY_WIN,
    CyberDefenseEnv,
    DEFENDER_WIN,
    EnvConfig,
    ONGOING,
    RISK_ACTION_AWARE,
    RISK_INACTIVE,
    RISK_RESIDUAL,
    RewardModel,
    TRUNCATED,
    _BLOCK,
    _UniformDraws,
    best_block_table,
    compute_p_goal,
    observe,
    reward_of_transition,
    scripted_best_return,
)
from cyberdefsim.harness import default_catalog_path, default_graph_path


@pytest.fixture(scope="module")
def graph():
    return load_graph(default_graph_path())


@pytest.fixture(scope="module")
def catalog(graph):
    return load_catalog(default_catalog_path(), graph)


def make_env(graph, catalog, profile="Av1", **kw):
    if isinstance(profile, str):
        profile = profile_by_name(profile)
    return CyberDefenseEnv(EnvConfig(graph=graph, catalog=catalog,
                                     profile=profile, **kw))


# every attempt the defense lets through succeeds
CERTAIN_SKILL = AdversaryProfile("x", rho=1.0, tau=3, obs_accuracy=0.5)


def next_draws(env, n=2 * _BLOCK):
    """The next n uniforms of an env's stream (or the reference's): comparing
    two envs' lists compares their stream positions."""
    if isinstance(env, oracles.ReferenceEnv):
        return env.rng.random(n).tolist()
    return [env._draws.random() for _ in range(n)]


# -- goal probability ----------------------------------------------------------


def test_p_goal_boundaries():
    path = AttackPath((1, 2, 3))
    assert compute_p_goal(path, 3, 2, 0.8) == 1.0  # already at the goal
    assert compute_p_goal(path, 0, 0, 0.8) == 0.0  # no budget left
    assert 0.0 < compute_p_goal(path, 0, 2, 0.8) < 1.0


def test_p_goal_monotonicity():
    path = AttackPath((1, 2, 3, 4, 5))
    for rho in (0.5, 0.75, 0.9):
        for cursor in range(5):
            values = [compute_p_goal(path, cursor, b, rho) for b in range(8)]
            assert values == sorted(values)  # more budget helps
        for b in (1, 3, 5):
            by_cursor = [compute_p_goal(path, c, b, rho) for c in range(6)]
            assert by_cursor == sorted(by_cursor)  # shorter suffix helps
    for b in (1, 3):
        by_rho = [compute_p_goal(path, 0, b, r) for r in (0.3, 0.6, 0.9)]
        assert by_rho == sorted(by_rho)


def test_p_goal_validation():
    path = AttackPath((1, 2))
    with pytest.raises(ValueError):
        compute_p_goal(path, 3, 1, 0.5)
    with pytest.raises(ValueError):
        compute_p_goal(path, 0, -1, 0.5)


# -- reward model ---------------------------------------------------------------


def test_reward_branches():
    model = RewardModel(impact=10.0)
    assert reward_of_transition(model, 0.0, DEFENDER_WIN, 0.0) == 10.0
    assert reward_of_transition(model, 1.0, ADVERSARY_WIN, 0.0) == -20.0
    assert reward_of_transition(model, 0.5, ONGOING, 0.3) == -5.3
    assert reward_of_transition(model, 0.5, TRUNCATED, 0.3) == -5.3


def test_reward_literal_indicator():
    literal = RewardModel(impact=10.0, literal_iv=True)
    assert reward_of_transition(literal, 0.0, DEFENDER_WIN, 0.0) == 10.0
    assert reward_of_transition(literal, 1.0, ADVERSARY_WIN, 0.0) == -10.0


def test_reward_ongoing_decomposition():
    model = RewardModel(impact=10.0)
    rng = np.random.default_rng(1)
    for _ in range(200):
        p, cost = float(rng.random()), float(rng.random())
        # rounding is sign-symmetric, so the negated reward is exactly the
        # risk-plus-cost total
        assert -reward_of_transition(model, p, ONGOING, cost) == p * 10.0 + cost


from hypothesis import given, strategies as st


@given(
    p=st.floats(0.0, 1.0),
    cost=st.floats(0.0, 100.0),
    impact=st.floats(0.01, 100.0),
)
def test_reward_formula_property(p, cost, impact):
    model = RewardModel(impact=impact)
    assert reward_of_transition(model, p, ONGOING, cost) == -p * impact - cost
    assert (
        reward_of_transition(model, p, DEFENDER_WIN, cost)
        == -p * impact + impact - cost
    )
    assert (
        reward_of_transition(model, p, ADVERSARY_WIN, cost)
        == -p * impact - impact - cost
    )


@given(
    length=st.integers(1, 6),
    budget=st.integers(0, 6),
    rho=st.floats(0.05, 0.97),
)
def test_p_goal_is_probability(length, budget, rho):
    path = AttackPath(tuple(range(length)))
    p = compute_p_goal(path, 0, budget, rho)
    assert 0.0 <= p <= 1.0
    if budget == 0:
        assert p == 0.0
    else:
        assert p < 1.0  # at least one step remains, failure always possible


def test_reward_validation():
    model = RewardModel()
    with pytest.raises(ValueError):
        reward_of_transition(model, 1.5, ONGOING, 0.0)
    with pytest.raises(ValueError):
        reward_of_transition(model, 0.5, ONGOING, -1.0)
    for bad in (0.0, True, float("nan"), float("inf"), "x"):
        with pytest.raises(ValueError, match="impact"):
            RewardModel(impact=bad)
    with pytest.raises(ValueError, match="literal_iv"):
        RewardModel(literal_iv="x")


# -- observation channel -----------------------------------------------------------


def test_observe_terminated_exact(graph):
    profile = profile_by_name("Av3")
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert observe(graph.terminated, profile, rng, graph) \
            == graph.terminated.index


def test_observe_wrong_reports_are_live_states(graph):
    profile = profile_by_name("Av3")
    rng = np.random.default_rng(3)
    state = graph.state_of(5)
    seen_wrong = set()
    for _ in range(3000):
        idx = observe(state, profile, rng, graph)
        assert type(idx) is int
        if idx != state.index:
            seen_wrong.add(idx)
    assert graph.terminated.index not in seen_wrong
    assert state.index not in seen_wrong
    assert len(seen_wrong) == graph.state_count - 2  # every other live state


class _ChosenUniforms:
    """An rng stand-in that hands out the given uniforms in order."""

    def __init__(self, *uniforms):
        self.left = list(uniforms)

    def random(self):
        return self.left.pop(0)


def test_observe_wrong_report_is_the_kth_other_live_state(graph):
    # 0.5 >= obs_accuracy: the first draw misses, and the second, u, picks
    # the report among the n other live states (never the true one), counted
    # in index order
    profile = AdversaryProfile("x", rho=0.5, tau=3, obs_accuracy=0.25)
    n, grid = graph.state_count - 2, 2**53  # random() returns j / 2**53
    live = [graph.initiated, *map(graph.state_of, sorted(graph.techniques))]
    assert [s.index for s in live] == list(range(n + 1))

    def report(state, j):
        rng = _ChosenUniforms(0.5, j / grid)
        idx = observe(state, profile, rng, graph)
        assert not rng.left
        return idx

    for state in live:
        others = [s.index for s in live if s != state]
        for k in range(n):
            first = -(-k * grid // n)  # first j with j / grid >= k / n
            last = -(-(k + 1) * grid // n) - 1  # last j below (k + 1) / n
            for j in (first, first + 1, (first + last) // 2, last - 1):
                assert report(state, j) == others[k]
            # int(u * n) rounds u * n first, so the last uniform below a
            # boundary may report the next state: the n * 2**-53 bias
            assert report(state, last) in others[k:k + 2]
        assert report(state, grid - 1) == others[-1]  # u = 1 - 2**-53
    # terminated is reported exactly, and no draw is made
    rng = _ChosenUniforms()
    assert observe(graph.terminated, profile, rng, graph) == graph.terminated.index


# -- episode dynamics ----------------------------------------------------------------


def test_reset_returns_exact_initiated(graph, catalog):
    env = make_env(graph, catalog)
    path = graph.enumerate_paths()[0]
    obs = env.reset(path)
    assert type(obs) is int and obs == graph.initiated.index == 0


def test_reset_validates_each_distinct_path_once(graph, catalog, monkeypatch):
    env = make_env(graph, catalog)
    checked = []
    real_validate = graph.validate_path
    monkeypatch.setattr(graph, "validate_path",
                        lambda path: checked.append(path) or real_validate(path))
    first, second = graph.enumerate_paths()[:2]
    for path in (first, second, first, AttackPath(first.steps), second):
        env.reset(path)
    assert checked == [first, second]
    bad = AttackPath(first.steps[:-1])  # does not end at a goal
    for _ in range(2):
        with pytest.raises(GraphError):
            env.reset(bad)
    assert checked == [first, second, bad, bad]


def test_step_before_reset_and_after_done(graph, catalog):
    env = make_env(graph, catalog)
    with pytest.raises(RuntimeError):
        env.step(0)
    path = graph.enumerate_paths()[0]
    env.reset(path)
    while True:
        result = env.step(0)
        if result.done:
            break
    with pytest.raises(RuntimeError):
        env.step(0)


def test_inactive_defense_lets_skill_decide(graph, catalog):
    # with the null action, a max-skill adversary wins every episode
    env = make_env(graph, catalog, profile="Av3", seed=1)
    path = graph.enumerate_paths()[0]
    outcomes = []
    for _ in range(30):
        env.reset(path)
        while True:
            result = env.step(0)
            if result.done:
                outcomes.append(result.info["outcome"])
                break
    assert outcomes.count(ADVERSARY_WIN) > 25


def test_horizon_truncation(graph, catalog):
    env = make_env(graph, catalog, horizon=3, seed=0)
    path = graph.enumerate_paths()[0]
    env.reset(path)
    done_at = None
    for t in range(1, 10):
        result = env.step(1)  # reactive blocking stalls the attack
        if result.done:
            done_at = t
            break
    assert done_at <= 3
    if result.info["outcome"] == TRUNCATED:
        assert result.info["stop_depth"] == env.graph.tactic_depth(env._position)


def test_defender_win_reward_and_stop_depth(graph, catalog):
    # reactive defense against a weak adversary ends in defender wins
    env = make_env(graph, catalog, profile="Av1", seed=5)
    path = graph.enumerate_paths()[0]
    for _ in range(20):
        env.reset(path)
        while True:
            result = env.step(1)
            if result.done:
                break
        if result.info["outcome"] == DEFENDER_WIN:
            # win payoff minus the executed action's cost
            assert result.reward == pytest.approx(10.0 - result.info["cost"])
            assert 0 <= result.info["stop_depth"] <= graph.goal_tactic
            return
    pytest.fail("no defender win in 20 reactive episodes")


def test_seeded_episode_determinism(graph, catalog):
    path = graph.enumerate_paths()[3]
    traces = []
    for _ in range(2):
        env = make_env(graph, catalog, seed=42)
        trace = [env.reset(path)]
        while True:
            result = env.step(2)
            trace.append((result.observation, result.reward,
                          result.done, result.info))
            if result.done:
                break
        traces.append(trace)
    assert traces[0] == traces[1]


@pytest.mark.parametrize("literal_iv", [False, True])
@pytest.mark.parametrize("risk_mode",
                         [RISK_RESIDUAL, RISK_ACTION_AWARE, RISK_INACTIVE])
@pytest.mark.parametrize("profile", ["Av1", "Av2", "Av3"])
def test_step_matches_the_reference_step(graph, catalog, profile, risk_mode,
                                         literal_iv):
    # horizon 8 truncates most episodes; the pinned digests only cover the
    # residual, non-literal setting
    cfg = EnvConfig(graph, catalog, profile_by_name(profile),
                    RewardModel(literal_iv=literal_iv), horizon=8, seed=17,
                    risk_mode=risk_mode)
    env, ref = CyberDefenseEnv(cfg), oracles.ReferenceEnv(cfg)
    paths = graph.enumerate_paths()
    pick = np.random.default_rng(3)
    outcomes = Counter()
    for _ in range(400):
        path = paths[int(pick.integers(len(paths)))]
        assert env.reset(path) == ref.reset(path)
        done = False
        while not done:
            action = int(pick.integers(23))
            got, want = env.step(action), ref.step(action)
            assert got == want
            assert type(got.observation) is type(want.observation)
            done = got.done
        outcomes[got.info["outcome"]] += 1
    assert next_draws(env) == next_draws(ref)
    assert outcomes[TRUNCATED] and outcomes[ADVERSARY_WIN]
    # seven failures in eight steps: random defense never stops Av3 in time
    assert bool(outcomes[DEFENDER_WIN]) == (profile != "Av3")


@pytest.mark.parametrize("carried", [0, 1])
def test_block_reader_draws_what_the_generator_draws(carried):
    # the reader must equal per-call random() draws value for value, as
    # Python floats, across several blocks and into a part-read one, also
    # when the bit generator holds a 32-bit half, which random() never uses
    for seed in range(6):
        want = np.random.Generator(np.random.PCG64(seed))
        gen = np.random.Generator(np.random.PCG64(seed))
        if carried:  # start with a 32-bit half held by the bit generator
            want.integers(15), gen.integers(15)
        assert gen.bit_generator.state["has_uint32"] == carried
        draws = _UniformDraws(gen)
        for _ in range(3 * _BLOCK + 45):
            u = draws.random()
            assert type(u) is float
            assert u == want.random()
        assert gen.bit_generator.state["has_uint32"] == carried


def test_env_builds_its_own_generator_from_the_seed(graph, catalog):
    for seed in (0, 7, [3, 0xE7A], np.random.SeedSequence([3, 0xE7A])):
        env = make_env(graph, catalog, seed=seed)
        want = np.random.default_rng(seed).random(2 * _BLOCK).tolist()
        assert next_draws(env) == want
    # a Generator seed would be shared with its owner and advanced by the env
    for bad in (np.random.default_rng(1), 1.5, True, None, -1, "x", [1, 2.5]):
        with pytest.raises(ValueError, match="seed") as err:
            EnvConfig(graph=graph, catalog=catalog,
                      profile=profile_by_name("Av1"), seed=bad)
        assert repr(bad) in str(err.value)


def test_step_indexes_action_ids_as_the_catalog_does(graph, catalog):
    cfg = EnvConfig(graph, catalog, profile_by_name("Av2"), seed=4)
    env, ref = CyberDefenseEnv(cfg), oracles.ReferenceEnv(cfg)
    path = graph.enumerate_paths()[7]
    env.reset(path), ref.reset(path)
    for action in (-1, -23, 23, -24, 5):
        if -23 <= action < 23:
            assert env.step(action) == ref.step(action)
        else:
            # an unknown id raises before any draw and leaves the episode as
            # it was, in the env and in the reference alike
            with pytest.raises(IndexError):
                env.step(action)
            with pytest.raises(IndexError):
                ref.step(action)
    # env and reference stand at one stream position: no refused id drew
    assert next_draws(env) == next_draws(ref)


def test_success_advances_cursor_and_position(graph, catalog):
    # the null action never blocks, so every step succeeds
    env = make_env(graph, catalog, profile=CERTAIN_SKILL)
    path = graph.enumerate_paths()[0]
    env.reset(path)
    for i, tid in enumerate(path.steps):
        result = env.step(0)
        assert env._cursor == i + 1
        assert env._position == graph.state_of(tid)
        assert env._failures == 0
        assert result.done == (i + 1 == len(path))
    assert result.info["outcome"] == ADVERSARY_WIN


def test_failures_terminate_at_tau(graph):
    # a catalog whose reactive action blocks every attempt
    doc = json.loads(default_catalog_path().read_text())
    certain = load_catalog({**doc, "reactive_block_prob": 1.0}, graph)
    profile = AdversaryProfile("x", rho=0.5, tau=3, obs_accuracy=0.5)
    env = make_env(graph, certain, profile=profile)
    env.reset(graph.enumerate_paths()[0])
    for expected in range(1, profile.tau):
        assert not env.step(1).done
        assert env._failures == expected
        assert (env._cursor, env._position) == (0, graph.initiated)
    result = env.step(1)
    assert result.done and result.info["outcome"] == DEFENDER_WIN
    assert env._position == graph.terminated
    with pytest.raises(RuntimeError):
        env.step(1)


def test_no_step_after_path_end(graph, catalog):
    env = make_env(graph, catalog, profile=CERTAIN_SKILL)
    path = graph.enumerate_paths()[0]
    env.reset(path)
    for _ in path.steps:
        result = env.step(0)
    assert result.done and env._cursor == len(path)
    with pytest.raises(RuntimeError):
        env.step(0)


def test_risk_mode_alters_ongoing_reward(graph, catalog):
    rewards = {}
    for mode in (None, RISK_ACTION_AWARE, RISK_INACTIVE):
        kw = {"risk_mode": mode} if mode else {}
        env = make_env(graph, catalog, profile="Av3", seed=9, **kw)
        env.reset(graph.enumerate_paths()[0])
        rewards[mode or "residual"] = env.step(0).reward
    # with the null action the conditioned readings coincide with raw skill
    # only when no defense could apply; the residual term is never harsher
    assert rewards["residual"] >= rewards[RISK_INACTIVE]
    assert rewards[RISK_ACTION_AWARE] == rewards[RISK_INACTIVE]


def test_best_block_table(graph, catalog):
    table = best_block_table(catalog, graph)
    assert set(table) == set(graph.techniques)
    assert all(0 < v <= 1 for v in table.values())


def test_scripted_best_return_positive(graph, catalog):
    profile = profile_by_name("Av1")
    model = RewardModel(impact=10.0)
    path = graph.enumerate_paths()[0]
    best = scripted_best_return(path, profile, model, residual_rho=0.05)
    assert best > 0


def test_env_config_validation(graph, catalog):
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="horizon"):
            EnvConfig(graph=graph, catalog=catalog,
                      profile=profile_by_name("Av1"), horizon=bad)
    with pytest.raises(ValueError):
        EnvConfig(graph=graph, catalog=catalog,
                  profile=profile_by_name("Av1"), risk_mode="bogus")
