"""Peak resident memory of `iotids train` and of network and hybrid predicts.

Usage (from anywhere; the CLI runs from this checkout's `src/`):

    python3 tools/peak_rss.py --seed N

In a temporary directory, with the seeds of perfbench/run.py (config N,
data 2N, scored input 2N + 1) and the workloads of perfbench/workloads.json
(read, never changed), it runs `iotids synth` of each data spec, then, one
subprocess at a time, `iotids train` of the train_binary, train_multiclass
and score_flows configs, `iotids predict` of the train_multiclass ann, cnn
and hybrid bundles on the score_flows input (30,100 flows), and the
score_flows pair itself: `iotids predict` of its own hybrid bundle on that
input, as perfbench/run.py times it. Each of those commands prints one
JSON line: {"command", "workload", "model", "seed", "peak_rss_mb",
"minor_faults", "sha256"}, where a predict's workload is the one whose
bundle it loads. peak_rss_mb is the
child's ru_maxrss from os.wait4, in MB (1e6 bytes) as perfbench reports it;
minor_faults is its ru_minflt from the same os.wait4: the pages that the
command and the children it waited for faulted in without I/O, so memory
that the allocator hands back to the OS and takes again shows up there.
sha256 is that of the run's manifest.json (which lists the sha256 of every
artifact) for a train, and of the CSV for a predict, so two checkouts can
be compared for memory and for bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAIN_WORKLOADS = ("train_binary", "train_multiclass", "score_flows")
# (workload whose bundle is predicted, model) for each predict on the score_flows input
PREDICTS = (("train_multiclass", "ann"), ("train_multiclass", "cnn"), ("train_multiclass", "hybrid"),
            ("score_flows", "hybrid"))


def cli(*args: str) -> tuple[float, int]:
    """Peak RSS in MB and minor page faults of one `iotids` subprocess,
    which must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "iotids.cli", *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, ["iotids", *args])
    return usage.ru_maxrss * 1024 / 1e6, usage.ru_minflt  # ru_maxrss is in KiB on Linux


def synth(spec: dict, dest: Path) -> Path:
    """The .labeled file `iotids synth` writes for spec under dest."""
    dest.mkdir(parents=True)
    (dest / "spec.json").write_text(json.dumps(spec))
    cli("synth", "--spec", str(dest / "spec.json"), "--out", str(dest / "data"))
    return next((dest / "data").glob("*.labeled"))


def report(command: str, workload: str, model: str | None, seed: int, usage: tuple[float, int],
           output: Path) -> None:
    digest = hashlib.sha256(output.read_bytes()).hexdigest()
    peak, faults = usage
    print(json.dumps({"command": command, "workload": workload, "model": model, "seed": seed,
                      "peak_rss_mb": round(peak, 2), "minor_faults": faults, "sha256": digest}), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    seed = args.seed
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    with tempfile.TemporaryDirectory(prefix="peak_rss-") as tmp:
        tmp = Path(tmp)
        for name in TRAIN_WORKLOADS:
            w = workloads[name]
            data = synth(dict(w["data"], seed=2 * seed), tmp / name)
            config = tmp / name / "config.json"
            config.write_text(json.dumps(dict(w["config"], seed=seed)))
            run = tmp / name / "run"
            usage = cli("train", "--config", str(config), "--data", str(data.parent), "--out", str(run))
            report("train", name, None, seed, usage, run / "manifest.json")
        scored = synth(dict(workloads["score_flows"]["input"], seed=2 * seed + 1), tmp / "scored")
        for name, model in PREDICTS:
            csv = tmp / f"{name}_{model}.csv"
            usage = cli("predict", "--model", str(tmp / name / "run" / "models" / f"{model}.json"),
                        "--input", str(scored), "--output", str(csv))
            report("predict", name, model, seed, usage, csv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
