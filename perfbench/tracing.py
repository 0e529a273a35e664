"""Spans around calls into cyberdefsim's modules, for the traced run.

The tracer replaces each listed function at every place it is bound: module
functions in every `cyberdefsim.*` module that holds the same object (modules
bind with `from .neural_net import forward`, so patching only the defining
module would miss `agents.dqn.forward`), methods on their class. Spans
(name, start, end, parent, run id) go into flat arrays in memory and are
written out once at the end. Nothing in the package itself changes.

A traced call costs its caller more than its own span: the wrapper and the
bookkeeping outside [start, end] run inside the caller's span. calibrate()
measures that cost per call once, and per_layer() takes it off each span's
self time and duration for every span below it.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from array import array

import numpy as np

# (layer, metric name, defining module, attribute or Class.method)
TARGETS = [
    ("attack_graph", "load_graph", "cyberdefsim.attack_graph", "load_graph"),
    ("attack_graph", "enumerate_paths", "cyberdefsim.attack_graph",
     "AttackGraph.enumerate_paths"),
    ("attack_graph", "validate_path", "cyberdefsim.attack_graph",
     "AttackGraph.validate_path"),
    ("adversary", "record_outcome", "cyberdefsim.adversary", "record_outcome"),
    ("adversary", "attempt", "cyberdefsim.adversary", "attempt"),
    ("defense", "load_catalog", "cyberdefsim.defense", "load_catalog"),
    ("defense", "sample_interruptions", "cyberdefsim.defense",
     "sample_interruptions"),
    ("defense", "block_probability", "cyberdefsim.defense", "block_probability"),
    ("environment", "step", "cyberdefsim.environment", "CyberDefenseEnv.step"),
    ("environment", "reset", "cyberdefsim.environment", "CyberDefenseEnv.reset"),
    ("environment", "observe", "cyberdefsim.environment", "observe"),
    ("neural_net", "forward", "cyberdefsim.neural_net", "forward"),
    ("neural_net", "backward", "cyberdefsim.neural_net", "backward"),
    ("neural_net", "apply_update", "cyberdefsim.neural_net", "apply_update"),
    ("neural_net", "clip_gradients", "cyberdefsim.neural_net", "clip_gradients"),
    ("neural_net", "copy", "cyberdefsim.neural_net", "Mlp.copy"),
    ("neural_net", "net_to_dict", "cyberdefsim.neural_net", "net_to_dict"),
    ("neural_net", "net_from_dict", "cyberdefsim.neural_net", "net_from_dict"),
    ("agents", "replay.push", "cyberdefsim.agents.common", "ReplayBuffer.push"),
    ("agents", "replay.sample", "cyberdefsim.agents.common",
     "ReplayBuffer.sample"),
    ("agents", "act", "cyberdefsim.agents.common", "act_epsilon_greedy"),
    ("agents", "dqn_update", "cyberdefsim.agents.dqn", "dqn_update"),
    ("agents", "collect_fragment", "cyberdefsim.agents.a2c", "collect_fragment"),
    ("agents", "sample_policy_action", "cyberdefsim.agents.common",
     "sample_policy_action"),
    ("agents", "a2c_gradients", "cyberdefsim.agents.a2c", "a2c_gradients"),
    ("agents", "ppo_gradients", "cyberdefsim.agents.ppo", "ppo_gradients"),
    ("agents", "server.snapshot", "cyberdefsim.agents.a3c",
     "ParameterServer.snapshot"),
    ("agents", "server.submit", "cyberdefsim.agents.a3c",
     "ParameterServer.submit"),
    ("harness", "save_checkpoint", "cyberdefsim.harness", "save_checkpoint"),
    ("harness", "load_checkpoint", "cyberdefsim.harness", "load_checkpoint"),
    ("harness", "batch_recorder", "cyberdefsim.harness", "BatchRecorder.__call__"),
    ("harness", "train", "cyberdefsim.harness", "train"),
    ("harness", "evaluate_policy", "cyberdefsim.harness", "evaluate_policy"),
]

# forward is split by input shape: one observation row, or a batch
FORWARD_ROW = "neural_net.forward.row"
FORWARD_BATCH = "neural_net.forward.batch"

# untraced per-call throughputs, measured in the same run before tracing
THROUGHPUTS = [
    "harness.train.dqn.steps_per_s",
    "harness.train.a2c.steps_per_s",
    "harness.train.a3c.steps_per_s",
    "harness.train.ppo.steps_per_s",
    "harness.evaluate.episodes_per_s",
    "harness.baseline.episodes_per_s",
]

TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def _span_names():
    names = []
    for layer, name, _module, _attr in TARGETS:
        if (layer, name) == ("neural_net", "forward"):
            names += [FORWARD_ROW, FORWARD_BATCH]
        else:
            names.append(f"{layer}.{name}")
    return names


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for span in _span_names():
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update({
        f"{FORWARD_BATCH}.rows": "count",
        "environment.step.p50_us": "us",
        "environment.step.tail_us": "us",
        "environment.step.tail_pct": "%",
        "agents.act.exploit_share": "ratio",
        "agents.a3c.staleness_mean": "count",
        "harness.save_checkpoint.bytes": "B",
        "harness.load_checkpoint.bytes": "B",
        "cli.import_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_share": "ratio",
        "trace.spans": "count",
        "trace.span_overhead_us": "us",
        "wall.round_s": "s",
    })
    for name in THROUGHPUTS:
        units[name] = "1/s"
    return units


class Tracer:
    """Records spans around patched calls; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self.span_overhead_s = 0.0
        self.totals: dict[str, float] = {}
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + value

    def call(self, nid: int, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span named by `nid`."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.start.append(0.0)
            self.end.append(0.0)
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def calibrate(self) -> None:
        """Set span_overhead_s: the time a traced no-op call adds to its
        caller beyond its own span, less the cost of calling it directly;
        the median of five loops of 20000 calls."""
        n = 20000
        probe = Tracer()
        nid = probe.name_id("probe")

        def noop():
            return None

        def traced():
            return probe.call(nid, noop, (), {})

        def loop(fn):
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            return time.perf_counter() - t0

        samples = []
        for _ in range(5):
            direct = loop(noop)
            first = len(probe.name)
            # inside a span, as a traced call made by a traced caller
            wrapped = probe.call(probe.name_id("caller"), loop, (traced,), {})
            spans = sum(probe.end[i] - probe.start[i]
                        for i in range(first + 1, len(probe.name)))
            samples.append((wrapped - spans - direct) / n)
        self.span_overhead_s = max(0.0, statistics.median(samples))

    # -- patching ------------------------------------------------------------

    def _wrapper(self, layer: str, name: str, orig):
        key = f"{layer}.{name}"
        if key == "neural_net.forward":
            row, batch = self.name_id(FORWARD_ROW), self.name_id(FORWARD_BATCH)

            def traced(net, x, *args, **kwargs):
                n = len(x) if getattr(x, "ndim", 1) > 1 else 1
                if n == 1:
                    return self.call(row, orig, (net, x) + args, kwargs)
                self.add(f"{FORWARD_BATCH}.rows", n)
                return self.call(batch, orig, (net, x) + args, kwargs)
            return traced

        nid = self.name_id(key)
        if key == "harness.save_checkpoint":
            def traced(path, *args, **kwargs):
                out = self.call(nid, orig, (path,) + args, kwargs)
                self.add(f"{key}.bytes", os.path.getsize(path))
                return out
        elif key == "harness.load_checkpoint":
            def traced(path, *args, **kwargs):
                self.add(f"{key}.bytes", os.path.getsize(path))
                return self.call(nid, orig, (path,) + args, kwargs)
        elif key == "agents.server.snapshot":
            def traced(*args, **kwargs):
                out = self.call(nid, orig, args, kwargs)
                self.add("snapshot_versions", out[0])
                return out
        elif key == "agents.server.submit":
            def traced(*args, **kwargs):
                out = self.call(nid, orig, args, kwargs)
                self.add("submit_versions", out)
                return out
        else:
            def traced(*args, **kwargs):
                return self.call(nid, orig, args, kwargs)
        return traced

    def install(self) -> None:
        for span in _span_names():
            self.name_id(span)
        packages = [m for n, m in list(sys.modules.items())
                    if n == "cyberdefsim" or n.startswith("cyberdefsim.")]
        for layer, name, module, attr in TARGETS:
            owner = sys.modules.get(module)
            cls_name, _, meth = attr.rpartition(".")
            cls = getattr(owner, cls_name, None) if cls_name else owner
            orig = vars(cls).get(meth) if cls is not None else None
            if orig is None:
                self.missing.append(f"{module}.{attr}")
                continue
            traced = self._wrapper(layer, name, orig)
            if cls_name:
                setattr(cls, meth, traced)
                self._restore.append((cls, meth, orig))
                continue
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.run, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path) -> None:
        name, parent, run, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 run=run, start=start, end=end)

    def per_layer(self) -> dict[str, float]:
        """calls and self time per span name, plus the derived ratios; tracing
        cost below a span is taken off its self time and duration."""
        name, parent, _run, start, end = self.arrays()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(name))
        n_child = np.bincount(parent[has_parent], minlength=len(name))
        self_time = dur - child - self.span_overhead_s * n_child
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        out: dict[str, float] = {}
        for span in _span_names():
            i = self._ids[span]
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_s[i])

        out[f"{FORWARD_BATCH}.rows"] = int(self.totals.get(f"{FORWARD_BATCH}.rows", 0))
        for key in ("harness.save_checkpoint.bytes", "harness.load_checkpoint.bytes"):
            out[key] = int(self.totals.get(key, 0))

        # spans are appended at call time, so a child's index exceeds its parent's
        below = [0] * len(name)
        for i, p in zip(range(len(name) - 1, -1, -1), parent[::-1].tolist()):
            if p >= 0:
                below[p] += 1 + below[i]
        steps = name == self._ids["environment.step"]
        steps_us = (dur[steps] - self.span_overhead_s
                    * np.asarray(below, dtype=np.float64)[steps]) * 1e6
        tail = max([p for p in TAIL_PERCENTILES
                    if len(steps_us) * (1 - p / 100) >= 10], default=50.0)
        out["environment.step.p50_us"] = (
            float(np.percentile(steps_us, 50)) if len(steps_us) else 0.0)
        out["environment.step.tail_us"] = (
            float(np.percentile(steps_us, tail)) if len(steps_us) else 0.0)
        out["environment.step.tail_pct"] = tail

        # an epsilon-greedy call exploited when it ran a one-row forward
        act_id = self._ids["agents.act"]
        acts = int(calls[act_id])
        row_parents = parent[(name == self._ids[FORWARD_ROW]) & has_parent]
        exploit = int(np.count_nonzero(name[row_parents] == act_id))
        out["agents.act.exploit_share"] = exploit / acts if acts else 0.0

        # submit version - snapshot version - 1, one snapshot per submission
        submits = int(calls[self._ids["agents.server.submit"]])
        out["agents.a3c.staleness_mean"] = (
            (self.totals.get("submit_versions", 0)
             - self.totals.get("snapshot_versions", 0)) / submits - 1
            if submits else 0.0)
        out["trace.spans"] = len(name)
        out["trace.span_overhead_us"] = self.span_overhead_s * 1e6
        return out
