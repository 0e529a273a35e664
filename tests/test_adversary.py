"""Unit tests for adversary profiles, attempts, and episode status updates."""

import numpy as np
import pytest

from cyberdefsim.adversary import (
    AdversaryProfile,
    attempt,
    builtin_profiles,
    initial_status,
    next_target,
    profile_by_name,
    record_outcome,
)
from cyberdefsim.attack_graph import load_graph
from cyberdefsim.harness import default_graph_path


@pytest.fixture(scope="module")
def graph():
    return load_graph(default_graph_path())


def test_builtin_profiles_ordering():
    profiles = builtin_profiles()
    assert [p.name for p in profiles] == ["Av1", "Av2", "Av3"]
    # skill and persistence rise with sophistication; observability falls
    assert [p.rho for p in profiles] == sorted(p.rho for p in profiles)
    assert [p.tau for p in profiles] == sorted(p.tau for p in profiles)
    assert [p.obs_accuracy for p in profiles] == sorted(
        (p.obs_accuracy for p in profiles), reverse=True
    )


def test_profile_by_name():
    assert profile_by_name("Av2").rho == 0.85
    with pytest.raises(KeyError):
        profile_by_name("Av9")


@pytest.mark.parametrize(
    "kw",
    [
        {"rho": 0.0}, {"rho": 1.5}, {"tau": 0}, {"tau": 2.5}, {"obs_accuracy": 0.0},
        {"obs_accuracy": 1.2},
    ],
)
def test_profile_validation(kw):
    base = {"name": "x", "rho": 0.5, "tau": 3, "obs_accuracy": 0.5}
    with pytest.raises(ValueError):
        AdversaryProfile(**{**base, **kw})


def test_attempt_consumes_one_uniform():
    profile = profile_by_name("Av1")
    r1, r2 = np.random.default_rng(0), np.random.default_rng(0)
    outcome = attempt(profile, r1)
    assert outcome == (r2.random() < profile.rho)
    assert r1.random() == r2.random()  # streams still aligned


def test_success_advances_cursor_and_position(graph):
    path = graph.enumerate_paths()[0]
    profile = profile_by_name("Av1")
    status = initial_status(graph)
    for i, tid in enumerate(path.steps):
        assert next_target(status, path) == tid
        status = record_outcome(status, profile, True, path, graph)
        assert status.path_cursor == i + 1
        assert status.position == graph.state_of(tid)
        assert status.failures == 0
    assert not status.terminated


def test_failures_terminate_at_tau(graph):
    path = graph.enumerate_paths()[0]
    profile = AdversaryProfile("x", rho=0.5, tau=3, obs_accuracy=0.5)
    status = initial_status(graph)
    for expected in range(1, profile.tau):
        status = record_outcome(status, profile, False, path, graph)
        assert status.failures == expected
        assert not status.terminated
    status = record_outcome(status, profile, False, path, graph)
    assert status.terminated
    assert status.position == graph.terminated
    with pytest.raises(ValueError):
        record_outcome(status, profile, True, path, graph)
    with pytest.raises(ValueError):
        next_target(status, path)


def test_next_target_after_path_end(graph):
    path = graph.enumerate_paths()[0]
    profile = profile_by_name("Av1")
    status = initial_status(graph)
    for _ in path.steps:
        status = record_outcome(status, profile, True, path, graph)
    with pytest.raises(ValueError):
        next_target(status, path)
