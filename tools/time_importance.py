"""Wall time of `iotids importance` and `iotids evaluate` of the bench hybrids.

Usage (from anywhere; the CLI runs from this checkout's `src/`):

    python3 tools/time_importance.py --seed N

For each of the train_binary and train_multiclass workloads of
perfbench/workloads.json (read, never changed) it runs, in a temporary
directory, `iotids synth` of the workload's data spec and `iotids
train` of its config, with the seeds of perfbench/run.py (config N, data
2N). It then times one run each of `iotids evaluate` and `iotids importance`
(5 repeats, seed 0) of the trained hybrid on the training data, one
subprocess at a time. Each timed command prints one JSON line:
{"workload", "command", "seed", "wall_s", "sha256"}, where sha256
is that of the command's report (the importance CSV, or the evaluate
metrics JSON), so two checkouts can be compared for speed and for bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAIN_WORKLOADS = ("train_binary", "train_multiclass")


def cli(*args: str) -> float:
    """Wall seconds of one `iotids` subprocess, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "iotids.cli", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def time_workload(name: str, w: dict, seed: int, dest: Path) -> None:
    dest.mkdir()
    spec, config = dest / "data_spec.json", dest / "config.json"
    spec.write_text(json.dumps(dict(w["data"], seed=2 * seed)))
    config.write_text(json.dumps(dict(w["config"], seed=seed)))
    cli("synth", "--spec", str(spec), "--out", str(dest / "data"))
    cli("train", "--config", str(config), "--data", str(dest / "data"), "--out", str(dest / "run"))
    hybrid, data = str(dest / "run/models/hybrid.json"), str(dest / "data")
    commands = {
        "evaluate": (dest / "report.json", ["evaluate", "--model", hybrid, "--data", data, "--report"]),
        "importance": (dest / "importance.csv",
                       ["importance", "--model", hybrid, "--data", data, "--repeats", "5", "--seed", "0", "--out"]),
    }
    for command, (report, args) in commands.items():
        wall = cli(*args, str(report))
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        print(json.dumps({"workload": name, "command": command, "seed": seed, "wall_s": wall, "sha256": digest}),
              flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    with tempfile.TemporaryDirectory(prefix="time_importance-") as tmp:
        for name in TRAIN_WORKLOADS:
            time_workload(name, workloads[name], args.seed, Path(tmp) / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
