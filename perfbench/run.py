"""cyberdefsim benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload train-dqn --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The lines before it are a readable report:
fingerprint, every metric with its unit, every correctness check, and the
sha256 digests of the outputs. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-dqn", "train-actor-critic", "eval")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
DEADLINE_S = 170.0

# single-threaded BLAS in every process: steadier on a shared machine, and it
# leaves the second core to any worker pool the program may start
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict:
    env = {**os.environ, **PINNED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, deadline: float) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion, killed at the deadline."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline passed")
    proc = subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:2])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return proc


def setup_seconds(args, out: Path, deadline: float) -> list[dict]:
    """Fresh interpreters that set the workload up and report how long that
    took from their start; one untimed run first fills the bytecode and file
    caches."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        argv = [str(HERE / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", "0",
                "--out", str(out / f"setup-{i}"), "--setup-only",
                "--spawned-at", repr(time.time())]
        sample = json.loads(run_child(argv, deadline).stdout.strip().splitlines()[-1])
        if i:
            samples.append(sample)
    return samples


def import_seconds(deadline: float) -> list[float]:
    """Cold import of cyberdefsim.cli, timed inside fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import cyberdefsim.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for i in range(IMPORT_REPEATS + 1):
        value = float(run_child(["-c", code], deadline).stdout.strip())
        if i:
            out.append(value)
    return out


def end_to_end(result: dict, setup: list[dict]) -> dict:
    return {
        "round_s": {"value": result["round_s"], "unit": "s"},
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setup),
                    "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict, import_s: list[float]) -> dict:
    from tracing import per_layer_units  # imports numpy, only needed here

    values = {**result["per_layer"], "cli.import_s": statistics.median(import_s)}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_units().items()}


def report(result: dict, metrics: dict, setup: list[dict]) -> None:
    print(f"# perfbench workload={result['workload']} seed={result['seed']}")
    print("fingerprint: " + json.dumps(result["fingerprint"], sort_keys=True))
    if setup:
        print("setup samples (wall s / rescaled s): " + ", ".join(
            f"{s['setup_wall_s']:.4f}/{s['setup_s']:.4f}" for s in setup))
    print(f"warm-up round (discarded): {result['cold_round_s']:.4f} s; "
          f"timed rounds: {result['rounds']}; median round wall time "
          f"{result['wall_round_s']:.4f} s")
    for kind, secs in result["call_s"].items():
        print(f"call {kind}: median {secs:.4f} s (rescaled)")
    for name, value in result["throughputs"].items():
        if value:
            print(f"throughput {name} = {value:.1f} 1/s (wall)")
    print(f"process tree peak rss (sampled): {result['tree_peak_rss_mb']:.2f} MB")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for name, (ok, detail) in result["checks"].items():
        print(f"check {name}: {'pass' if ok else 'FAIL'} ({detail})")
    for kind, digests in sorted(result["digests"].items()):
        for name, digest in sorted(digests.items()):
            print(f"digest {kind} {name} {digest}")
    for name, digest in sorted(result.get("checkpoints", {}).items()):
        print(f"digest setup eval-{name}.json {digest}")
    for error in result["errors"]:
        print("error " + error.replace("\n", "\n  "))
    if result.get("trace_missing"):
        print(f"trace targets not found: {result['trace_missing']}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "cyberdefsim" / "__init__.py").is_file():
        print(f"error: no cyberdefsim sources under {ROOT / 'src'}; "
              "run from the root of a cyberdefsim checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        if args.trace:
            import_s = import_seconds(deadline)
        else:
            setup = setup_seconds(args, out, deadline)
        run_child([str(HERE / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out)], deadline)
        result = json.loads((out / "result.json").read_text())
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for scratch in [*out.glob("setup-*"), out / "calls", out / "checkpoints"]:
            shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        metrics = per_layer(result, import_s)
        report(result, metrics, [])
    else:
        metrics = end_to_end(result, setup)
        report(result, metrics, setup)
    correct = result["failed"] == 0 and all(ok for ok, _ in result["checks"].values())
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
