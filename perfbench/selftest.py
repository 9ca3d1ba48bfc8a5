"""Self-test of the benchmark at tiny input sizes.

Usage (from the root of a source checkout): python3 perfbench/selftest.py

Runs every workload once untraced and once traced with the `--tiny` sizes of
workloads.json and checks that each run passes all of its own checks (among
them the documented span order and the counters known from the code), that
the counters named below have the values the code implies, and that the
benchmark refuses to run in a directory without the program's sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode, None
    return proc.returncode, json.loads(lines[-1])


def main() -> int:
    workloads = json.loads((HERE / "workloads.json").read_text())
    problems = []
    traces = {}
    for name in workloads:
        for trace in (0, 1):
            code, result = bench(name, trace)
            if result is None or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: exit {code}, result {result}")
            elif trace:
                traces[name] = {k: m["value"] for k, m in result["metrics"].items()}

    tiny = workloads["score_flows"]["tiny"]["input_rows_per_class"] * 7
    expected = {
        ("train_binary", "models.knn.predict_calls"): 2,  # standalone report + hybrid vote
        ("train_multiclass", "models.knn.predict_calls"): 1,  # knn is no multiclass hybrid member
        ("score_flows", "flows.rows_parsed"): tiny,
        ("score_flows", "features.rows_featurized"): tiny,
        ("score_flows", "voting.rows_voted"): tiny,
        ("score_flows", "persist.bytes_written"): 0,
    }
    for (name, metric), value in expected.items():
        got = traces.get(name, {}).get(metric)
        if got != value:
            problems.append(f"{name}: {metric} = {got}, expected {value}")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = bench("train_binary", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if not any(bare.parent.iterdir()):
        bare.parent.rmdir()
    if code == 0 or result is not None:
        problems.append(f"benchmark without sources exited {code} with result {result}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
