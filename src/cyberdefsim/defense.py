"""The 23-action defense space: coverage, block odds, and collateral costs."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .attack_graph import AttackGraph, Technique, read_json, typed

INACTIVE = "inactive"
REACTIVE = "reactive"
PROACTIVE = "proactive"


class CatalogError(ValueError):
    """Raised when a catalog document fails validation."""


@dataclass(frozen=True)
class CostParams:
    impl_cost: float = 0.2
    unit_interruption_cost: float = 0.1
    powerlaw_exponent: float = 2.5
    powerlaw_max: int = 50
    depth_attenuation: float = 0.7

    def __post_init__(self):
        for name, value in vars(self).items():
            try:
                typed(value, int if name == "powerlaw_max" else float, name)
            except (TypeError, ValueError) as exc:
                raise CatalogError(exc) from None
        if self.impl_cost < 0 or self.unit_interruption_cost < 0:
            raise CatalogError("costs must be non-negative")
        if self.powerlaw_exponent <= 1:
            raise CatalogError("powerlaw_exponent must exceed 1")
        if self.powerlaw_max < 1:
            raise CatalogError("powerlaw_max must be positive")
        if not 0 < self.depth_attenuation <= 1:
            raise CatalogError("depth_attenuation must lie in (0,1]")


@dataclass(frozen=True)
class DefenseAction:
    id: int
    kind: str
    name: str
    covered_techniques: frozenset[int]
    block_prob: float
    fp_scale: float


class DefenseCatalog:
    """Immutable action catalog; shareable read-only across workers."""

    def __init__(self, actions, reactive_block_prob, cost_params, graph):
        self.actions: list[DefenseAction] = sorted(actions, key=lambda a: a.id)
        self.reactive_block_prob = float(reactive_block_prob)
        self.cost_params = cost_params
        self._validate(graph)
        # truncated power-law CDF for interruption draws, as a list for bisect;
        # the float sum can fall short of 1, so its last entry is set to 1 and
        # no uniform in [0, 1) draws past powerlaw_max
        k = np.arange(1, cost_params.powerlaw_max + 1, dtype=float)
        w = k ** (-cost_params.powerlaw_exponent)
        self._pl_cdf = np.cumsum(w / w.sum()).tolist()
        self._pl_cdf[-1] = 1.0
        self._build_cost_table(k, graph.goal_tactic)

    def _build_cost_table(self, k, goal_depth: int):
        """`costs[a][depth][i]`: the collateral cost of action `a` at stage
        `depth` (0..goal) on the power-law draw k = i + 1. Actions of one kind
        and fp_scale share their rows, and the rows share one float per
        count."""
        attenuation = np.array([self.cost_params.depth_attenuation ** d
                                for d in range(goal_depth + 1)])[:, None]
        self.costs = [None] * len(self)
        for inactive in (True, False):  # the cost differs only by kind
            group = [a for a in self.actions if (a.kind == INACTIVE) == inactive]
            scales = sorted({a.fp_scale for a in group})
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                counts = _interrupted(k, np.array(scales)[:, None, None], attenuation)
            counts[np.isnan(counts)] = math.inf  # inf * 0.0
            counts = counts.tolist()
            cost_of = {c: action_cost(self, group[0], int(c)) if c < math.inf else c
                       for c in set(chain.from_iterable(chain.from_iterable(counts)))}
            rows = {fp: [list(map(cost_of.__getitem__, row)) for row in n]
                    for fp, n in zip(scales, counts)}
            if not all(map(math.isfinite, cost_of.values())):
                a = next(a for a in group if not all(
                    map(math.isfinite, chain.from_iterable(rows[a.fp_scale]))))
                raise CatalogError(f"action {a.id}: collateral cost is not finite "
                                   f"(fp_scale {a.fp_scale!r})")
            for a in group:
                self.costs[a.id] = rows[a.fp_scale]

    def _validate(self, graph: AttackGraph):
        ids = [a.id for a in self.actions]
        if ids != list(range(len(self.actions))):
            raise CatalogError(f"action ids must be contiguous from 0, got {ids}")
        if not 0 <= self.reactive_block_prob <= 1:
            raise CatalogError("reactive_block_prob out of [0,1]")
        kinds = [a.kind for a in self.actions]
        if kinds.count(INACTIVE) != 1 or self.actions[0].kind != INACTIVE:
            raise CatalogError("exactly one inactive action, at id 0")
        if kinds.count(REACTIVE) != 1 or self.actions[1].kind != REACTIVE:
            raise CatalogError("exactly one reactive action, at id 1")
        if kinds.count(PROACTIVE) != 21:
            raise CatalogError(
                f"expected 21 proactive actions, got {kinds.count(PROACTIVE)}"
            )
        for a in self.actions:
            if not 0 <= a.block_prob <= 1:
                raise CatalogError(f"action {a.id}: block_prob out of [0,1]")
            if a.fp_scale < 0:
                raise CatalogError(f"action {a.id}: fp_scale must be non-negative")
            if a.kind == INACTIVE and (a.covered_techniques or a.fp_scale != 0):
                raise CatalogError("inactive action must have no coverage and fp_scale 0")
            for tid in a.covered_techniques:
                if tid not in graph.techniques:
                    raise CatalogError(f"action {a.id} covers unknown technique {tid}")
        covered = set().union(
            *(a.covered_techniques for a in self.actions if a.kind == PROACTIVE),
            set(),
        )
        missing = set(graph.techniques) - covered
        if missing:
            raise CatalogError(
                f"techniques without any proactive mitigation: {sorted(missing)}"
            )

    def __len__(self) -> int:
        return len(self.actions)


def load_catalog(source, graph: AttackGraph) -> DefenseCatalog:
    """Build a validated DefenseCatalog from a dict or a JSON file path.

    Every error raised for a file names the file.
    """
    where = f"{source}: " if isinstance(source, (str, Path)) else ""
    try:
        doc = read_json(source) if where else source
        cost = CostParams(**{k: typed(v, int if k == "powerlaw_max" else float, k)
                             for k, v in doc.get("cost", {}).items()})
        actions = [
            DefenseAction(
                id=typed(a["id"], int, "action id"),
                kind=typed(a["kind"], str, "kind"),
                name=typed(a["name"], str, "action name"),
                covered_techniques=frozenset(typed(t, int, "covers")
                                             for t in a.get("covers", [])),
                block_prob=typed(a.get("block_prob", 0.0), float, "block_prob"),
                fp_scale=typed(a.get("fp_scale", 0.0), float, "fp_scale"),
            )
            for a in doc["actions"]
        ]
        reactive_p = typed(doc["reactive_block_prob"], float, "reactive_block_prob")
        for a in actions:
            if a.kind not in (INACTIVE, REACTIVE, PROACTIVE):
                raise CatalogError(f"action {a.id}: unknown kind {a.kind!r}")
        return DefenseCatalog(actions, reactive_p, cost, graph)
    except CatalogError as exc:
        raise CatalogError(f"{where}{exc}") from exc
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"{where}malformed catalog document: {exc}") from exc


def block_probability(catalog: DefenseCatalog, action: DefenseAction,
                      target: Technique) -> float:
    """Chance `action` stops an attempt on `target` this timestep."""
    if action.kind == INACTIVE:
        return 0.0
    if action.kind == REACTIVE:
        return catalog.reactive_block_prob
    return action.block_prob if target.id in action.covered_techniques else 0.0


def sample_interruptions(catalog: DefenseCatalog, action: DefenseAction,
                         depth: int, rng) -> int:
    """Benign operations interrupted by executing `action` at stage `depth`.

    Raw count follows the truncated power law P(k) ~ k^-exponent on
    1..powerlaw_max, then shrinks geometrically with attack depth.
    """
    if action.kind == INACTIVE:
        return 0
    k = power_law_draw(catalog, rng) + 1
    return int(_interrupted(k, action.fp_scale,
                            catalog.cost_params.depth_attenuation ** depth))


def _interrupted(k, fp_scale, attenuation):
    """The count formula, elementwise on arrays: k * fp_scale * attenuation
    rounded half up, for power-law draw k and a stage's depth attenuation."""
    return np.floor(k * fp_scale * attenuation + 0.5)


def power_law_draw(catalog: DefenseCatalog, rng) -> int:
    """Index i of one truncated power-law draw k = i + 1; one uniform."""
    return bisect_left(catalog._pl_cdf, rng.random())


def action_cost(catalog: DefenseCatalog, action: DefenseAction,
                interrupted: int) -> float:
    if interrupted < 0:
        raise ValueError("interrupted count must be non-negative")
    if action.kind == INACTIVE:
        return 0.0
    p = catalog.cost_params
    return p.impl_cost + p.unit_interruption_cost * interrupted
