"""Byte-identity oracle: a sha256 listing of every output of the bench configs.

Usage (from anywhere; the CLI runs from this checkout's `src/`):

    python3 tools/output_digest.py --seed N

For each workload in perfbench/workloads.json (read, never changed) it runs,
in a temporary directory, `iotids synth` of the workload's data (and input)
spec, `iotids train` of its config, `iotids predict` of its hybrid bundle
on its input when the workload scores one, and `iotids predict` of every
trained ann and cnn bundle on the training data. Seeds follow
perfbench/run.py: the config takes N, the data spec 2N and the input spec
2N + 1. It prints `<sha256>  <path>` for every output file except
timings.json (wall-clock times), sorted by path, and then the sha256 of that
listing. Two checkouts that print the same last line wrote the same bytes.
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


def cli(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "iotids.cli", *args], env=env, check=True, stdout=subprocess.DEVNULL)


def run_workload(name: str, w: dict, seed: int, dest: Path) -> None:
    dest.mkdir()
    config = dest / "config.json"
    config.write_text(json.dumps(dict(w["config"], seed=seed)))
    specs = {"data": dict(w["data"], seed=2 * seed)}
    if "input" in w:
        specs["input"] = dict(w["input"], seed=2 * seed + 1)
    for role, spec in specs.items():
        (dest / f"{role}_spec.json").write_text(json.dumps(spec))
        cli("synth", "--spec", str(dest / f"{role}_spec.json"), "--out", str(dest / role))
    cli("train", "--config", str(config), "--data", str(dest / "data"), "--out", str(dest / "run"))
    data = next((dest / "data").glob("*.labeled"))
    if w["command"] == "predict":
        scored = next((dest / "input").glob("*.labeled"))
        cli("predict", "--model", str(dest / "run/models/hybrid.json"), "--input", str(scored),
            "--output", str(dest / "predictions/hybrid.csv"))
    for kind in ("ann", "cnn"):
        if kind in w["config"]["models"]:
            cli("predict", "--model", str(dest / f"run/models/{kind}.json"), "--input", str(data),
                "--output", str(dest / f"predictions/{kind}.csv"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    with tempfile.TemporaryDirectory(prefix="output_digest-") as tmp:
        top = Path(tmp)
        for name, w in sorted(workloads.items()):
            run_workload(name, w, args.seed, top / name)
        listing = "".join(
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(top).as_posix()}\n"
            for path in sorted(p for p in top.rglob("*") if p.is_file() and p.name != "timings.json")
        )
    sys.stdout.write(listing)
    print(f"listing sha256 {hashlib.sha256(listing.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
