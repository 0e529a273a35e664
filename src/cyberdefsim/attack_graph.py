"""Tactic/technique attack propagation graph and monotone path enumeration."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INITIATED = "initiated"
TECHNIQUE = "technique"
TERMINATED = "terminated"

# tactic_depth sentinel for the absorbing defender-win state
TERMINATED_DEPTH = -1


class GraphError(ValueError):
    """Raised when a graph document fails schema or structural validation."""


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path):
    """Parse a JSON file; the NaN and Infinity Python's json accepts raise ValueError."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def typed(value, kind: type, what: str):
    """`value` as `kind` (int, float, str or bool) if its JSON type is that kind,
    else a TypeError naming `what`; a float may be an int, and neither a bool,
    and it must be finite (json reads 1e400 as inf)."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise TypeError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class Tactic:
    id: int
    name: str


@dataclass(frozen=True)
class Technique:
    id: int
    name: str
    tactic: int
    is_goal: bool


@dataclass(frozen=True)
class AttackState:
    """A dense simulation state: Initiated, a technique, or Terminated.

    Dense indexing: 0 = Initiated, 1..n = techniques in ascending id order,
    n+1 = Terminated.  The mapping is a bijection and stable across runs.
    """

    kind: str  # INITIATED | TECHNIQUE | TERMINATED
    technique_id: int | None
    index: int


@dataclass(frozen=True)
class AttackPath:
    """Ordered technique ids from a stage-1 technique to a goal technique."""

    steps: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.steps)


class AttackGraph:
    """Validated, immutable propagation graph. Safe to share read-only."""

    def __init__(self, tactics, techniques, edges, relaxed_counts=False):
        self.tactics: dict[int, Tactic] = {t.id: t for t in tactics}
        self.techniques: dict[int, Technique] = {t.id: t for t in techniques}
        # adjacency keyed by INITIATED or technique id
        self._adj: dict[object, tuple[int, ...]] = {}
        raw_adj: dict[object, set[int]] = {}
        for frm, to in edges:
            raw_adj.setdefault(frm, set()).add(to)
        for key, targets in raw_adj.items():
            self._adj[key] = tuple(sorted(targets))

        self._validate(relaxed_counts)

        ordered = sorted(self.techniques)
        self.initiated = AttackState(INITIATED, None, 0)
        self._tech_states = {
            tid: AttackState(TECHNIQUE, tid, i + 1) for i, tid in enumerate(ordered)
        }
        self.terminated = AttackState(TERMINATED, None, len(ordered) + 1)
        self.state_count = len(ordered) + 2

    # -- construction-time checks ------------------------------------------

    def _validate(self, relaxed_counts):
        if not self.tactics:
            raise GraphError("graph has no tactics")
        ids = sorted(self.tactics)
        if ids != list(range(ids[0], ids[-1] + 1)) or ids[0] != 0:
            raise GraphError(f"tactic ids must be contiguous from 0, got {ids}")
        self.goal_tactic = ids[-1]

        for t in self.techniques.values():
            if t.tactic not in self.tactics or t.tactic == 0:
                raise GraphError(f"technique {t.id} has invalid tactic {t.tactic}")
            if t.is_goal != (t.tactic == self.goal_tactic):
                raise GraphError(
                    f"technique {t.id}: is_goal must hold exactly for tactic "
                    f"{self.goal_tactic}"
                )

        if not relaxed_counts:
            stages = {t.tactic for t in self.techniques.values()}
            if len(self.tactics) - 1 != 7:
                raise GraphError(f"expected 7 attack tactics, got {len(self.tactics) - 1}")
            if len(self.techniques) != 15:
                raise GraphError(f"expected 15 techniques, got {len(self.techniques)}")
            goals = sum(t.is_goal for t in self.techniques.values())
            if goals != 3:
                raise GraphError(f"expected 3 goal techniques, got {goals}")
            if stages != set(range(1, 8)):
                raise GraphError("every tactic stage 1..7 must hold a technique")

        stage1 = {t.id for t in self.techniques.values() if t.tactic == 1}
        if not stage1:
            raise GraphError("no stage-1 techniques")

        for frm, targets in self._adj.items():
            if frm == TERMINATED:
                raise GraphError("terminated state must have no outgoing edges")
            if frm != INITIATED:
                if frm not in self.techniques:
                    raise GraphError(f"edge from unknown technique {frm}")
                src = self.techniques[frm]
                if src.is_goal:
                    raise GraphError(f"goal technique {frm} must have no outgoing edges")
            for to in targets:
                if to not in self.techniques:
                    raise GraphError(f"edge to unknown technique {to}")
                if frm == INITIATED:
                    if self.techniques[to].tactic != 1:
                        raise GraphError("initiated may only lead to stage-1 techniques")
                else:
                    d = self.techniques[to].tactic - self.techniques[frm].tactic
                    if d < -1:
                        raise GraphError(
                            f"edge {frm}->{to} regresses more than one stage"
                        )

        entry = set(self._adj.get(INITIATED, ()))
        if entry != stage1:
            raise GraphError(
                "initiated must reach exactly the stage-1 techniques "
                f"(reaches {sorted(entry)}, stage 1 is {sorted(stage1)})"
            )

        for t in self.techniques.values():
            if t.is_goal:
                continue
            nxt = self._adj.get(t.id, ())
            if not any(self.techniques[n].tactic - t.tactic in (0, 1) for n in nxt):
                raise GraphError(
                    f"technique {t.id} has no edge to a same-or-next stage technique"
                )

    # -- queries -------------------------------------------------------------

    def state_of(self, technique_id: int) -> AttackState:
        return self._tech_states[technique_id]

    def tactic_depth(self, state: AttackState) -> int:
        """Stage depth 0..goal for live states; sentinel for Terminated."""
        if state.kind == TERMINATED:
            return TERMINATED_DEPTH
        if state.kind == INITIATED:
            return 0
        return self.techniques[state.technique_id].tactic

    def enumerate_paths(self) -> list[AttackPath]:
        """All monotone (no technique revisited) paths from stage 1 to a goal.

        Deterministic: successors are explored in ascending technique id, so
        the output is in lexicographic order of the step sequences.
        """
        paths: list[AttackPath] = []

        def walk(tid: int, trail: list[int]):
            trail.append(tid)
            if self.techniques[tid].is_goal:
                paths.append(AttackPath(tuple(trail)))
            else:
                for nxt in self._adj.get(tid, ()):
                    if nxt not in trail:
                        walk(nxt, trail)
            trail.pop()

        for start in self._adj.get(INITIATED, ()):
            walk(start, [])
        return paths

    def validate_path(self, path: AttackPath) -> None:
        """Raise GraphError unless `path` is a legal episode path of this graph."""
        if not path.steps:
            raise GraphError("empty attack path")
        if path.steps[0] not in self._adj.get(INITIATED, ()):
            raise GraphError("path must start at a stage-1 technique")
        for a, b in zip(path.steps, path.steps[1:]):
            if b not in self._adj.get(a, ()):
                raise GraphError(f"path uses missing edge {a}->{b}")
        if len(set(path.steps)) != len(path.steps):
            raise GraphError("path revisits a technique")
        if not self.techniques[path.steps[-1]].is_goal:
            raise GraphError("path must end at a goal technique")


def _parse_state_ref(ref):
    if ref == INITIATED or ref == TERMINATED:
        return ref
    if isinstance(ref, str) and ref.startswith("technique:"):
        digits = ref.split(":", 1)[1]
        if digits.isascii() and digits.isdigit():  # int() takes " 3 ", "+2", "1_0"
            return int(digits)
    if type(ref) is int:
        return ref
    raise GraphError(f"unrecognized state reference {ref!r}")


def load_graph(source, relaxed_counts: bool = False) -> AttackGraph:
    """Build a validated AttackGraph from a document dict or a JSON file path.

    Every error raised for a file names the file.
    """
    where = f"{source}: " if isinstance(source, (str, Path)) else ""
    try:
        doc = read_json(source) if where else source
        tactics = [Tactic(typed(t["id"], int, "tactic id"),
                          typed(t["name"], str, "tactic name"))
                   for t in doc["tactics"]]
        techniques = [
            Technique(typed(t["id"], int, "technique id"),
                      typed(t["name"], str, "technique name"),
                      typed(t["tactic"], int, "technique tactic"),
                      typed(t["is_goal"], bool, "is_goal"))
            for t in doc["techniques"]
        ]
        edges = [( _parse_state_ref(frm), _parse_state_ref(to)) for frm, to in doc["edges"]]
        if len({t.id for t in tactics}) != len(tactics):
            raise GraphError("duplicate tactic ids")
        if len({t.id for t in techniques}) != len(techniques):
            raise GraphError("duplicate technique ids")
        for frm, to in edges:
            if isinstance(to, str):
                raise GraphError(f"edge target must be a technique, got {to!r}")
        return AttackGraph(tactics, techniques, edges, relaxed_counts=relaxed_counts)
    except GraphError as exc:
        raise GraphError(f"{where}{exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"{where}malformed graph document: {exc}") from exc


def split_paths(paths, train_fraction: float, seed: int):
    """Seeded shuffle-and-split; |train| rounds half up."""
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must lie in (0,1), got {train_fraction}")
    if not paths:
        raise ValueError("no paths to split")
    if type(seed) is not int or seed < 0:
        raise ValueError(f"split seed must be an integer >= 0, got {seed!r}")
    order = np.random.default_rng(seed).permutation(len(paths))
    n_train = int(np.floor(train_fraction * len(paths) + 0.5))
    train = [paths[i] for i in order[:n_train]]
    test = [paths[i] for i in order[n_train:]]
    return train, test
