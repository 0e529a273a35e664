"""Per-episode adversary behavior: skill, persistence, and termination logic."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .attack_graph import AttackGraph, AttackPath, AttackState


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
        if not 0 < self.rho <= 1:
            raise ValueError(f"rho must lie in (0,1], got {self.rho}")
        if type(self.tau) is not int or self.tau < 1:
            raise ValueError(f"tau must be an integer >= 1, got {self.tau!r}")
        if not 0 < self.obs_accuracy <= 1:
            raise ValueError(f"obs_accuracy must lie in (0,1], got {self.obs_accuracy}")


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


@dataclass(frozen=True)
class AdversaryStatus:
    """Where the adversary stands in an episode, and its failure tally."""

    position: AttackState
    path_cursor: int = 0
    failures: int = 0
    terminated: bool = False


def initial_status(graph: AttackGraph) -> AdversaryStatus:
    return AdversaryStatus(position=graph.initiated)


def next_target(status: AdversaryStatus, path: AttackPath) -> int:
    """Technique id the adversary will attempt next."""
    if status.terminated:
        raise ValueError("adversary already terminated")
    if status.path_cursor >= len(path):
        raise ValueError("path exhausted; episode should have ended")
    return path.steps[status.path_cursor]


def attempt(profile: AdversaryProfile, rng) -> bool:
    """One Bernoulli(rho) skill draw; consumes exactly one uniform."""
    return rng.random() < profile.rho


def record_outcome(
    status: AdversaryStatus,
    profile: AdversaryProfile,
    succeeded: bool,
    path: AttackPath,
    graph: AttackGraph,
) -> AdversaryStatus:
    """Advance on success; on failure burn budget and terminate at the tau-th.

    Blocked attempts and skill failures are indistinguishable here: both count
    against the same episode-wide failure budget.
    """
    if status.terminated:
        raise ValueError("adversary already terminated")
    if succeeded:
        tid = path.steps[status.path_cursor]
        return replace(
            status,
            position=graph.state_of(tid),
            path_cursor=status.path_cursor + 1,
        )
    failures = status.failures + 1
    if failures >= profile.tau:
        return replace(
            status, failures=failures, terminated=True, position=graph.terminated
        )
    return replace(status, failures=failures)
