"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 --seconds 30 [--workloads eval ...]
        [--first-seed 1] [--out perfbench/baseline.json]

For every workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, beside the metric's bound from BENCHMARK.json. A
benchmark is steady when every spread except setup_s stays under a third of
its bound. It also reports round_s.wall, the same rounds in raw wall time
(from each run's result.json), to show what the rescaling removes. --out
writes the same summary, with every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=False)
            if proc.returncode != 0:
                print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            result = json.loads((ROOT / ".perfbench" / f"{workload}-seed{seed}-trace0"
                                 / "result.json").read_text())
            line["metrics"]["round_s.wall"] = {"value": result["wall_round_s"],
                                               "unit": "s"}
            runs.append({"seed": seed, **line})
            values = {k: round(v["value"], 4) for k, v in line["metrics"].items()}
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} {values}",
                  flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                             "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bound, "values": values}
            verdict = "" if bound is None else (
                "ok" if spread < bound / 3 else "WIDE")
            print(f"  {workload} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f} bound {bound} {verdict}", flush=True)
        summary[workload] = {
            "correct_runs": sum(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "seeds": [r["seed"] for r in runs],
            "metrics": metrics,
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
