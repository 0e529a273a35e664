"""Unit tests for adversary profiles and the skill draw."""

import numpy as np
import pytest

from cyberdefsim.adversary import (
    AdversaryProfile,
    attempt,
    builtin_profiles,
    profile_by_name,
)


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

