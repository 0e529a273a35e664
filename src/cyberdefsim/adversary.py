"""Adversary profiles (skill, persistence, stealth) and the skill draw."""

from __future__ import annotations

import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class AdversaryProfile:
    """An attack strategy class: per-attempt skill and failure tolerance.

    obs_accuracy is the defender-side alert-translation accuracy against this
    profile (stealthier adversaries produce noisier observations).
    """

    name: str
    rho: float
    tau: int
    obs_accuracy: float

    def __post_init__(self):
        for name in ("rho", "obs_accuracy"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not 0 < value <= 1:
                raise ValueError(f"{name} must be a number in (0,1], got {value!r}")
        if type(self.tau) is not int or self.tau < 1:
            raise ValueError(f"tau must be an integer >= 1, got {self.tau!r}")


def builtin_profiles() -> list[AdversaryProfile]:
    """The three stock adversary profiles, weakest to most sophisticated."""
    return [
        AdversaryProfile("Av1", rho=0.75, tau=4, obs_accuracy=0.85),
        AdversaryProfile("Av2", rho=0.85, tau=5, obs_accuracy=0.75),
        AdversaryProfile("Av3", rho=0.95, tau=7, obs_accuracy=0.65),
    ]


def profile_by_name(name: str) -> AdversaryProfile:
    for p in builtin_profiles():
        if p.name == name:
            return p
    raise KeyError(f"unknown adversary profile {name!r}")


def attempt(profile: AdversaryProfile, rng) -> bool:
    """One Bernoulli(rho) skill draw; consumes exactly one uniform."""
    return rng.random() < profile.rho
