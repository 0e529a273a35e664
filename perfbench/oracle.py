"""Exact null-action defense win ratio, written from the problem statement.

Under the inactive defense nothing is ever blocked and nothing is
interrupted, so each timestep is one Bernoulli(rho) skill draw: a success
advances the adversary one technique along its path, a failure burns one
unit of its budget tau. The adversary wins on reaching the path's end before
its tau-th failure. Episodes end within len + tau - 1 <= 15 steps, well under
the 64-step horizon, so truncation never happens.

Nothing here imports cyberdefsim, so agreement with its Monte Carlo
evaluation is independent evidence.
"""

from __future__ import annotations

import math

# stock adversary profiles: name -> (rho, tau)
PROFILES = {"Av1": (0.75, 4), "Av2": (0.85, 5), "Av3": (0.95, 7)}


def p_goal(remaining: int, budget: int, rho: float) -> float:
    """P(`remaining` successes arrive before `budget` failures), by recursion."""
    table = [[0.0] * (budget + 1) for _ in range(remaining + 1)]
    for b in range(budget + 1):
        table[0][b] = 1.0
    for r in range(1, remaining + 1):
        for b in range(1, budget + 1):
            table[r][b] = rho * table[r - 1][b] + (1 - rho) * table[r][b - 1]
    return table[remaining][budget]


def null_dwr(path_lengths, profile: str) -> float:
    """Exact defense win ratio of the always-inactive policy on a uniform
    draw from paths with these lengths."""
    rho, tau = PROFILES[profile]
    lengths = list(path_lengths)
    return 1.0 - sum(p_goal(n, tau, rho) for n in lengths) / len(lengths)


def binomial_two_sided_tail(k: int, n: int, p: float) -> float:
    """min(P(X <= k), P(X >= k)) for X ~ Binomial(n, p), exactly."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0

    def pmf(i):
        return math.exp(math.lgamma(n + 1) - math.lgamma(i + 1)
                        - math.lgamma(n - i + 1)
                        + i * math.log(p) + (n - i) * math.log1p(-p))

    lower = sum(pmf(i) for i in range(0, k + 1))
    upper = sum(pmf(i) for i in range(k, n + 1))
    return min(lower, upper)
