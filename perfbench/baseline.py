"""Run every workload over several seeds and record the results.

Usage (from the root of a source checkout):

    python3 perfbench/baseline.py

For each workload in BENCHMARK.json this runs perfbench/run.py untraced once
per seed in SEEDS and traced once (first seed), prints every end-to-end
metric with its unit as median [first quartile, third quartile] over the
seeds, the quartile spread as a share of the median, and ops_failed, and
writes all of it, the traced run's per-layer metrics and the environment to
perfbench/baseline.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEEDS = list(range(1, 11))
OUT = HERE / "baseline.json"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()

    record = {"commit": commit or "unknown", "run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            result, record["environment"] = run(workload, seed, spec["run_seconds"], 0)
            results.append(result)
        traced, _ = run(workload, SEEDS[0], spec["run_seconds"], 1)
        attempted = sum(r["attempted"] for r in results + [traced])
        failed = sum(r["failed"] for r in results + [traced])
        summary = {}
        print(f"{workload}  ({len(SEEDS)} seeds, {spec['run_seconds']} s each)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            med = statistics.median(values)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "unit": metric["unit"], "values": values}
            print(f"  {name:14s} {med:12.5g} {metric['unit']:6s} [{q1:.5g}, {q3:.5g}]  spread {spread:.4f}"
                  f"  (bound {metric['bound']})")
        print(f"  {'ops_failed':14s} {failed / attempted:12.5g} share  ({failed} of {attempted})")
        record["workloads"][workload] = {
            "end_to_end": summary,
            "ops_failed": failed / attempted,
            "attempted": attempted,
            "correct": all(r["correct"] for r in results + [traced]),
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
