"""Set up one benchmark workload and run its calls in a fresh interpreter.

Started by run.py:

    python3 perfbench/worker.py --workload eval --seed 1 --seconds 30 \
        --trace 0 --out DIR

It runs one discarded warm-up round, then timed rounds for --seconds (at
least two; half of the time before the traced round with --trace 1), checks
every output, and writes result.json into --out. With --setup-only it prints
how long the process took from --spawned-at until the workload was ready,
and exits.
"""

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cyberdefsim import harness  # noqa: E402
from cyberdefsim.agents.common import HyperParams  # noqa: E402
from cyberdefsim.neural_net import LINEAR, SOFTMAX, init_mlp, net_to_dict  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("train-dqn", "train-actor-critic", "eval")

# acceptance comparison recipe (tests/conftest.py::algorithm_comparison_runs)
RECIPE = {"gamma": 0.8, "alpha": 0.005, "eps_decay_steps": 10000,
          "steps_per_epoch": 2500}
PROFILE = "Av3"
# 5 epochs of 2500 steps take each DQN seed past eps_decay_steps (10000), so
# the last 2500 steps run at the epsilon floor and most steps exploit
DQN_EPOCHS = 5
AC_EPOCHS = 1
OBS_DIM, N_ACTIONS, HIDDEN = 17, 23, [256, 256]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Call:
    """One operation: a train() or evaluate*() call, plus how to check it."""

    kind: str
    run: Callable        # call_dir -> (digests, output)
    check: Callable      # (call_dir, output) -> [(check name, ok, detail)]
    work_units: int
    unit: str            # "steps" or "episodes"


# -- training ------------------------------------------------------------------


def train_call(algorithm: str, seeds, epochs: int, max_episode_len: int,
               kind: str = "") -> Call:
    hp = HyperParams().with_overrides(**RECIPE, epochs=epochs)
    n_envs = 1 if algorithm == "dqn" else hp.num_workers
    if algorithm == "dqn":
        steps_per_seed = epochs * hp.steps_per_epoch
    else:
        per_round = hp.rollout_fragment * n_envs
        steps_per_seed = epochs * math.ceil(hp.steps_per_epoch / per_round) * per_round
    config = harness.ExperimentConfig(
        algorithm=algorithm, profile=PROFILE,
        hyperparams={**RECIPE, "epochs": epochs}, seeds=list(seeds))
    kind = kind or algorithm

    def run(call_dir: Path):
        harness.train(replace(config, output_dir=str(call_dir)))
        files = sorted(p for p in call_dir.iterdir() if p.is_file())
        return {p.name: sha256_file(p) for p in files}, None

    def check(call_dir: Path, _output):
        results = [_check_metrics(call_dir / "metrics.csv", kind, config,
                                  steps_per_seed, n_envs, max_episode_len)]
        want = {"qnet": N_ACTIONS} if algorithm == "dqn" else {
            "actor": N_ACTIONS, "critic": 1}
        for seed in config.seeds:
            path = call_dir / f"checkpoint-seed{seed}.json"
            results.append(_check_checkpoint(path, kind, algorithm, want))
        return results

    return Call(kind, run, check, steps_per_seed * len(seeds), "steps")


def _check_metrics(path: Path, kind: str, config, steps_per_seed: int,
                   n_envs: int, max_episode_len: int):
    """Rows per seed must account for the steps run: every completed batch is
    written, and the steps not in a batch are fewer than one batch plus one
    unfinished episode per env."""
    name = f"metrics_rows.{kind}"
    try:
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return name, False, f"cannot read metrics.csv: {exc}"
    by_seed = {}
    for row in rows:
        by_seed.setdefault(int(row["seed"]), []).append(row)
    if sorted(by_seed) != sorted(config.seeds):
        return name, False, f"seeds {sorted(by_seed)} != {config.seeds}"
    slack = (config.batch_episodes + n_envs) * max_episode_len
    counts = []
    for seed, seed_rows in by_seed.items():
        if [int(r["batch"]) for r in seed_rows] != list(range(len(seed_rows))):
            return name, False, f"seed {seed}: batch numbers not 0..n-1"
        covered = 0.0
        for r in seed_rows:
            values = [float(r[k]) for k in ("dwr", "mean_return", "mean_len")]
            if not all(math.isfinite(v) for v in values):
                return name, False, f"seed {seed}: non-finite value in {r}"
            episodes, wins = int(r["episodes"]), int(r["wins"])
            if episodes != config.batch_episodes or not 0 <= wins <= episodes:
                return name, False, f"seed {seed}: bad counts in {r}"
            if not 0.0 <= float(r["dwr"]) <= 1.0 or \
                    abs(float(r["dwr"]) - wins / episodes) > 1e-6:
                return name, False, f"seed {seed}: dwr out of [0,1] in {r}"
            covered += episodes * float(r["mean_len"])
        if not 0 <= steps_per_seed - covered + 1e-3 < slack:
            return name, False, (f"seed {seed}: {len(seed_rows)} rows cover "
                                 f"{covered:.0f} of {steps_per_seed} steps")
        counts.append(len(seed_rows))
    return name, True, f"rows per seed {counts}"


def _check_checkpoint(path: Path, kind: str, algorithm: str, want_outputs: dict):
    """The checkpoint reads back with the expected networks and layer dims."""
    name = f"checkpoint_dims.{kind}"
    try:
        doc = harness.load_checkpoint(path)
    except (OSError, ValueError, KeyError) as exc:
        return name, False, f"{path.name}: {exc}"
    nets = doc["networks"]
    if doc.get("algorithm") != algorithm or sorted(nets) != sorted(want_outputs):
        return name, False, f"{path.name}: {doc.get('algorithm')} {sorted(nets)}"
    for key, n_out in want_outputs.items():
        dims = list(nets[key].dims)
        if dims != [OBS_DIM, *HIDDEN, n_out]:
            return name, False, f"{path.name}: {key} dims {dims}"
    return name, True, f"{path.name}: {' '.join(sorted(nets))} ok"


# -- evaluation ----------------------------------------------------------------


def null_policy(obs, rng):
    return 0


def _report_digest(report) -> str:
    return hashlib.sha256(
        json.dumps(asdict(report), sort_keys=True).encode()).hexdigest()


def _check_report(name, report, episodes):
    hist = sum(report.histogram.values())
    ok = (report.episodes == episodes and 0.0 <= report.dwr <= 1.0
          and abs(hist - 1.0) < 1e-9 and math.isfinite(report.mean_return))
    return name, ok, f"dwr {report.dwr:.4f}, histogram sum {hist:.6f}"


def eval_calls(seed: int, ckpts: dict, test_lengths) -> list[Call]:
    episodes = harness.ExperimentConfig().eval_episodes
    calls = []
    for profile in ("Av1", "Av2", "Av3"):
        config = harness.ExperimentConfig(profile=profile)

        def make(kind, fn, config=config, profile=profile):
            def run(_call_dir):
                report = fn(config)
                return {"report": _report_digest(report)}, report

            def check(_call_dir, report):
                results = [_check_report(f"report.{kind}", report, episodes)]
                if kind.startswith("baseline.null"):
                    exact = oracle.null_dwr(test_lengths, profile)
                    wins = round(report.dwr * report.episodes)
                    tail = oracle.binomial_two_sided_tail(wins, report.episodes, exact)
                    results.append((f"null_dwr_oracle.{profile}", tail >= 1e-7,
                                    f"MC {report.dwr:.4f} vs exact {exact:.4f}, "
                                    f"binomial tail {tail:.2e}"))
                return results

            return Call(kind, run, check, episodes, "episodes")

        for algo, path in ckpts.items():
            calls.append(make(f"evaluate.{algo}.{profile}",
                              lambda c, p=path: harness.evaluate(p, c, seed=seed)))
        calls.append(make(f"baseline.random.{profile}",
                          lambda c: harness.random_baseline(c, seed=seed)))
        calls.append(make(f"baseline.null.{profile}",
                          lambda c: harness.evaluate_policy(null_policy, c, seed=seed)))
    return calls


def write_eval_checkpoints(seed: int, out: Path) -> dict:
    """A DQN qnet and an A2C actor(+critic), made without any training code."""
    hp = HyperParams()
    seq = np.random.SeedSequence([seed, 0xC4])
    q_seed, a_seed, c_seed = seq.spawn(3)
    qnet = init_mlp([OBS_DIM, *HIDDEN, N_ACTIONS], LINEAR, q_seed)
    actor = init_mlp([OBS_DIM, *HIDDEN, N_ACTIONS], SOFTMAX, a_seed)
    critic = init_mlp([OBS_DIM, *HIDDEN, 1], LINEAR, c_seed)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"dqn": out / "eval-dqn.json", "a2c": out / "eval-a2c.json"}
    harness.save_checkpoint(paths["dqn"], "dqn", hp, 0, {"qnet": net_to_dict(qnet)})
    harness.save_checkpoint(paths["a2c"], "a2c", hp, 0, {
        "actor": net_to_dict(actor), "critic": net_to_dict(critic)})
    return paths


# -- set-up --------------------------------------------------------------------


def setup(workload: str, seed: int, out: Path):
    """Everything a workload needs before its first call; returns (calls,
    warm-up calls, info)."""
    config = harness.ExperimentConfig(profile=PROFILE)
    graph = config.load_graph()
    catalog = config.load_catalog(graph)
    if (graph.state_count, len(catalog)) != (OBS_DIM, N_ACTIONS):
        raise SystemExit(f"unexpected problem size {graph.state_count}x{len(catalog)}")
    train_paths, test_paths = harness.split_for_config(config, graph)
    rho_tau = oracle.PROFILES[PROFILE]
    max_episode_len = max(len(p) for p in train_paths) + rho_tau[1] - 1
    info = {}
    if workload == "train-dqn":
        calls = [train_call("dqn", [2 * seed, 2 * seed + 1], DQN_EPOCHS,
                            max_episode_len)]
        # one seed for one epoch runs every code path of the timed call
        # (exploit forwards included) at a tenth of its cost
        warmup = [train_call("dqn", [2 * seed], 1, max_episode_len,
                             kind="dqn.warmup")]
        return calls, warmup, info
    elif workload == "train-actor-critic":
        calls = [train_call(algo, [seed], AC_EPOCHS, max_episode_len)
                 for algo in ("a2c", "a3c", "ppo")]
    else:
        ckpts = write_eval_checkpoints(seed, out / "checkpoints")
        info["checkpoints"] = {k: sha256_file(p) for k, p in ckpts.items()}
        info["checks"] = [
            _check_checkpoint(ckpts["dqn"], "eval.dqn", "dqn", {"qnet": N_ACTIONS}),
            _check_checkpoint(ckpts["a2c"], "eval.a2c", "a2c",
                              {"actor": N_ACTIONS, "critic": 1}),
        ]
        calls = eval_calls(seed, ckpts, [len(p) for p in test_paths])
    return calls, calls, info


# -- measuring -----------------------------------------------------------------

class TreeRss:
    """Peak resident set summed over this process and its live descendants,
    sampled every INTERVAL_S on a background thread, so memory moved into
    worker processes is counted."""

    INTERVAL_S = 0.01

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _rss_kb(pid: int) -> int:
        try:
            resident = Path(f"/proc/{pid}/statm").read_text().split()[1]
        except (OSError, IndexError):
            return 0  # ended since it was listed
        return int(resident) * os.sysconf("SC_PAGE_SIZE") // 1024

    @staticmethod
    def _children(pid: int) -> list[int]:
        out = []
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            return out
        for tid in tasks:
            try:
                out += map(int, Path(f"/proc/{pid}/task/{tid}/children").read_text().split())
            except OSError:
                pass
        return out

    def sample(self) -> None:
        pids, total = [os.getpid()], 0
        while pids:
            pid = pids.pop()
            total += self._rss_kb(pid)
            pids += self._children(pid)
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self.sample()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


# The shared VM this was written on alternates between speed regimes, each
# lasting seconds to minutes, in which the same Python code runs up to 1.8x
# slower (BLAS about 1.5x), so a raw wall time depends on when it was taken.
# Every timed call is therefore bracketed by this fixed loop (independent of
# cyberdefsim: interpreter work, batch-48 BLAS, an Adam-like elementwise
# pass), and its wall time is rescaled to the speed at which the loop takes
# REF_NOMINAL_S, its time on an uncontended core of that 2-core Xeon VM.
REF_NOMINAL_S = 0.0011
_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((256, 256))
_X = _RNG.standard_normal((48, 256))
_V = [_RNG.standard_normal(60_000) for _ in range(3)]


def reference_loop() -> float:
    """Time of a fixed piece of work: the median of nine short passes, so a
    brief interruption does not count but a slower machine does."""
    times = []
    m, v, g = _V
    for _ in range(9):
        t0 = time.perf_counter()
        table = {}
        for i in range(2000):
            table[i & 255] = table.get(i & 255, 0) + (i % 7)
        for _ in range(3):
            np.tanh(_X @ _W).T @ _X
        m *= 0.9
        m += 0.1 * g
        v *= 0.999
        v += 0.001 * g * g
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_scale() -> float:
    """Factor that rescales a wall time taken now to the reference speed."""
    reference_loop()  # the first pass in a process is slower
    return REF_NOMINAL_S / statistics.median(reference_loop() for _ in range(3))


class Recorder:
    """Times calls, gates determinism and output checks, counts failures."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.wall: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.digests: dict[str, dict] = {}
        self.checks: dict[str, tuple[bool, str]] = {}
        self.errors: list[str] = []
        self._checked: set[tuple[str, str]] = set()
        self._n = 0

    def check(self, name: str, ok: bool, detail: str) -> bool:
        """Record a check; the first failure's detail is the one kept."""
        prev_ok = self.checks.get(name, (True, ""))[0]
        if name not in self.checks or (prev_ok and not ok):
            self.checks[name] = (ok, detail)
        return ok

    def run_call(self, call: Call):
        """Run, check and clean up one call; returns (wall s, rescaled s), or
        None if it raised."""
        self.attempted += 1
        self._n += 1
        call_dir = self.work / f"call-{self._n}"
        call_dir.mkdir(parents=True)
        ref_before = reference_loop()
        try:
            t0 = time.perf_counter()
            digests, output = call.run(call_dir)
            elapsed = time.perf_counter() - t0
        except Exception:  # a failed operation is counted and reported
            self.failed += 1
            self.errors.append(f"{call.kind}: {traceback.format_exc(limit=3)}")
            shutil.rmtree(call_dir, ignore_errors=True)
            return None
        scaled = elapsed * REF_NOMINAL_S / ((ref_before + reference_loop()) / 2)
        ok = True
        first = self.digests.setdefault(call.kind, digests)
        ok &= self.check(f"deterministic.{call.kind}", first == digests,
                         "identical sha256 across repeats" if first == digests
                         else f"digests differ: {digests} vs {first}")
        key = (call.kind, json.dumps(digests, sort_keys=True))
        if key not in self._checked:
            self._checked.add(key)
            for name, passed, detail in call.check(call_dir, output):
                ok &= self.check(name, passed, detail)
        if not ok:
            self.failed += 1
        shutil.rmtree(call_dir, ignore_errors=True)
        return elapsed, scaled

    def run_round(self, calls, timed: bool) -> float:
        """One call of each kind; returns the round's rescaled seconds."""
        total = 0.0
        for call in calls:
            times = self.run_call(call)
            if times is None:
                continue
            wall, scaled = times
            if timed:
                self.wall.setdefault(call.kind, []).append(wall)
                self.scaled.setdefault(call.kind, []).append(scaled)
            total += scaled
        return total


def median_round(times: dict) -> float:
    """A round's time: each call's median over the repeats, summed."""
    return sum(statistics.median(ts) for ts in times.values())


def throughputs(calls, wall: dict) -> dict:
    """Per-kind throughputs from median wall times, named as in tracing.THROUGHPUTS."""
    out = {name: 0.0 for name in tracing.THROUGHPUTS}
    groups = {}
    for call in calls:
        if call.kind not in wall:
            continue
        secs = statistics.median(wall[call.kind])
        if call.unit == "steps":
            out[f"harness.train.{call.kind}.steps_per_s"] = call.work_units / secs
        else:
            group = "evaluate" if call.kind.startswith("evaluate") else "baseline"
            units, total = groups.get(group, (0, 0.0))
            groups[group] = (units + call.work_units, total + secs)
    for group, (units, total) in groups.items():
        out[f"harness.{group}.episodes_per_s"] = units / total
    return out


# -- fingerprint ---------------------------------------------------------------


def blas_fingerprint() -> dict:
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["library"] = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for so in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(so))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def fingerprint() -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_fingerprint(),
    }


# -- main ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float,
                        help="time.time() just before this process was started")
    args = parser.parse_args()

    calls, warmup, info = setup(args.workload, args.seed, args.out)
    if args.setup_only:
        wall = time.time() - args.spawned_at
        print(json.dumps({"setup_wall_s": wall, "setup_s": wall * reference_scale()}))
        return 0

    rss = TreeRss()
    rss.start()
    rec = Recorder(args.out / "calls")
    for name, ok, detail in info.get("checks", []):
        if not rec.check(name, ok, detail):
            rec.failed += 1
    # the first round in a process pays one-off costs (page faults, the
    # environment's p_goal cache, BLAS start-up), so it is run and checked but
    # not timed
    cold_round_s = rec.run_round(warmup, timed=False)
    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    rounds = 0
    while True:
        rec.run_round(calls, timed=True)
        rounds += 1
        elapsed = time.perf_counter() - start
        # two rounds at least, so every call is repeated for the determinism check
        if rounds >= 2 and elapsed + elapsed / rounds > budget:
            break
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "cold_round_s": cold_round_s,
        "round_s": median_round(rec.scaled),
        "wall_round_s": median_round(rec.wall),
        "rounds": rounds,
        "call_s": {k: statistics.median(v) for k, v in rec.scaled.items()},
        "wall": rec.wall,
        "scaled": rec.scaled,
        "throughputs": throughputs(calls, rec.wall),
        **{k: v for k, v in info.items() if k != "checks"},
    }

    if args.trace:
        tracer = tracing.Tracer()
        tracer.calibrate()
        tracer.install()
        try:
            traced_round_s = 0.0
            for i, call in enumerate(calls):
                tracer.run_id = i + 1
                times = tracer.call(
                    tracer.name_id(f"bench.{call.kind}"), rec.run_call, (call,), {})
                traced_round_s += times[1] if times else 0.0
        finally:
            tracer.uninstall()
        per_layer = tracer.per_layer()
        per_layer.update(result["throughputs"])
        per_layer["wall.round_s"] = result["wall_round_s"]
        per_layer["trace.overhead_s"] = traced_round_s - result["round_s"]
        per_layer["trace.overhead_share"] = (
            traced_round_s / result["round_s"] - 1 if result["round_s"] else 0.0)
        bypass = {
            "eval": ["neural_net.backward", "neural_net.apply_update",
                     "agents.replay.push", "agents.replay.sample",
                     "harness.save_checkpoint"],
            "train-actor-critic": ["agents.replay.push", "agents.replay.sample"],
            "train-dqn": ["agents.server.snapshot", "agents.server.submit",
                          "agents.sample_policy_action"],
        }[args.workload]
        for span in bypass:
            calls_made = per_layer[f"{span}.calls"]
            if not rec.check(f"bypass.{span}", calls_made == 0,
                             f"{calls_made} calls, predicted 0"):
                rec.failed += 1
        tracer.save(args.out / "spans.npz")
        result["per_layer"] = per_layer
        result["trace_missing"] = tracer.missing

    # the larger of this process's own peak (exact) and the sampled peak of
    # the whole process tree, read before fingerprint() starts git
    rss.stop()
    own_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update({
        "peak_rss_mb": max(own_peak_kb, rss.peak_kb) / 1024.0,
        "tree_peak_rss_mb": rss.peak_kb / 1024.0,
        "fingerprint": fingerprint(),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "checks": {k: list(v) for k, v in sorted(rec.checks.items())},
        "digests": rec.digests,
        "errors": rec.errors,
    })
    (args.out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
