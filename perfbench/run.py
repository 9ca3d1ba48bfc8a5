"""Benchmark of the iotids command-line batch jobs.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Every run of the program is one `python3 -m iotids.cli ...` subprocess using
the checkout's `src/`, started one at a time from this process; the only
parallelism is numpy's BLAS pool inside the CLI.

Set-up generates the workload's inputs from --seed with `iotids synth` (and,
for score_flows, trains the hybrid bundle that is scored). Then:

  --trace 0  runs the CLI until --seconds have passed, repeating the set-up
             between runs so that both are timed in the same stretch of the
             machine's state, and reports the end-to-end metrics: setup_s
             and wall_s are means over the set-ups and runs, peak_rss_mb is
             the median over the runs, accuracy, macro_f1 and bundle_mb come
             from their outputs.
  --trace 1  alternates an untraced CLI run with an in-process traced run
             (perfbench/traced.py) and reports the per-layer metrics: medians
             of span times over the traced runs, counters, run.cpu_s of the
             untraced runs and the tracing overhead.

Every run is checked (exit code, manifest digests, byte-equal outputs across
runs, traced outputs equal to untraced ones, row counts, accuracy floor, and
in traced runs the span order and counters known from the code). The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import fmean, median

from traced import LAYER

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_RUNS = 3  # untraced CLI runs per --trace 0 invocation
MIN_SETUPS = 3  # set-ups (the first and its repeats) per --trace 0 invocation
MIN_PAIRS = 2  # untraced + traced pairs per --trace 1 invocation
TIME_LIMIT_S = 170  # CLI processes still running this long after start are killed
POLL_S = 0.005  # wait4 polling interval; adds at most this much to a wall time

# the documented hybrids and class counts, kept here so the checks do not trust the program
HYBRID_MEMBERS = {"binary": ["rf", "gbm", "svm", "knn"], "multiclass": ["rf", "gbm", "ada"]}
N_CLASSES = {"binary": 2, "multiclass": 7}
MB = 1e6


class RunFailure(Exception):
    """A check on the program's output failed."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------- processes


def run_cli(args: list[str], log_dir: Path, deadline: float, traced_out: Path | None = None) -> dict:
    """One CLI process; wall time and the child's own rusage via wait4. A
    process still running at `deadline` (time.monotonic) is killed."""
    if traced_out is None:
        argv = [sys.executable, "-m", "iotids.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "traced.py"), str(traced_out), *args]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.log", "wb") as out, open(log_dir / "stderr.log", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(POLL_S)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / MB,  # ru_maxrss is in KiB on Linux
    }


def require_ok(result: dict, what: str, log_dir: Path) -> None:
    if result["exit_code"] != 0:
        tail = (log_dir / "stderr.log").read_text(errors="replace")[-2000:]
        raise RunFailure(f"{what} exited with {result['exit_code']}: {tail}")


# ------------------------------------------------------------------ set-up


def load_workload(name: str, tiny: bool) -> dict:
    workloads = json.loads((HERE / "workloads.json").read_text())
    if name not in workloads:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads)}")
    w = workloads[name]
    if tiny:
        w["data"]["rows_per_class"] = w["tiny"]["rows_per_class"]
        if "input" in w:
            w["input"]["rows_per_class"] = w["tiny"]["input_rows_per_class"]
    return w


def set_up(w: dict, seed: int, dest: Path, deadline: float) -> dict:
    """Write spec and config files, synthesize inputs through the CLI and,
    for predict workloads, train the bundle. Returns the input paths."""
    dest.mkdir(parents=True)
    inputs = {"config": dest / "config.json", "data": dest / "data"}
    (dest / "config.json").write_text(json.dumps(dict(w["config"], seed=seed), indent=1))
    specs = [("data", dict(w["data"], seed=2 * seed))]
    if "input" in w:
        specs.append(("input", dict(w["input"], seed=2 * seed + 1)))
    for role, spec in specs:
        spec_path = dest / f"{role}_spec.json"
        spec_path.write_text(json.dumps(spec, indent=1))
        result = run_cli(["synth", "--spec", str(spec_path), "--out", str(dest / role)], dest / f"log_{role}", deadline)
        require_ok(result, f"synth {role}", dest / f"log_{role}")
    if w["command"] == "predict":
        bundle_run = dest / "bundle_run"
        result = run_cli(
            ["train", "--config", str(inputs["config"]), "--data", str(inputs["data"]), "--out", str(bundle_run)],
            dest / "log_train",
            deadline,
        )
        require_ok(result, "bundle training", dest / "log_train")
        check_manifest(bundle_run)
        inputs["bundle"] = bundle_run / "models" / "hybrid.json"
        inputs["input"] = next((dest / "input").glob("*.labeled"))
    return inputs


def setup_digest(dest: Path) -> str:
    """Digest of everything set-up made, except wall-clock timings and logs."""
    h = hashlib.sha256()
    for p in sorted(dest.rglob("*")):
        if p.is_file() and p.name != "timings.json" and not p.parent.name.startswith("log_"):
            h.update(str(p.relative_to(dest)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------------ checks


def check_manifest(run_dir: Path) -> bytes:
    """Every artifact matches its manifest sha256; returns the manifest bytes."""
    raw = (run_dir / "manifest.json").read_bytes()
    for artifact in json.loads(raw)["artifacts"]:
        if sha256(run_dir / artifact["path"]) != artifact["sha256"]:
            raise RunFailure(f"sha256 mismatch for {artifact['path']} in {run_dir}")
    return raw


def scores(y_true: list[int], y_pred: list[int], n_classes: int) -> tuple[float, float]:
    """(accuracy, macro F1) recounted from labels; a zero denominator gives 0."""
    counts = [[0] * n_classes for _ in range(n_classes)]
    for t, p in zip(y_true, y_pred):
        counts[t][p] += 1
    total = sum(map(sum, counts))
    f1s = []
    for c in range(n_classes):
        tp = counts[c][c]
        predicted = sum(counts[r][c] for r in range(n_classes))
        actual = sum(counts[c])
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(counts[c][c] for c in range(n_classes)) / total, sum(f1s) / n_classes


def check_train_outputs(run_dir: Path, w: dict) -> dict:
    """Hybrid accuracy and macro F1 from its report, verified against a
    recount of its confusion matrix."""
    report = json.loads((run_dir / "reports" / "hybrid" / "metrics.json").read_text())
    rows = [line.split(",") for line in (run_dir / "reports" / "hybrid" / "confusion.csv").read_text().split()]
    n = len(rows) - 1
    y_true, y_pred = [], []
    for t, row in enumerate(rows[1:]):
        for p, count in enumerate(row[1:]):
            y_true += [t] * int(count)
            y_pred += [p] * int(count)
    accuracy, macro_f1 = scores(y_true, y_pred, n)
    if abs(accuracy - report["accuracy"]) > 1e-9 or abs(macro_f1 - report["macro_f1"]) > 1e-9:
        raise RunFailure(f"hybrid report {report['accuracy']}/{report['macro_f1']} != recount {accuracy}/{macro_f1}")
    members = {m: json.loads((run_dir / "reports" / m / "metrics.json").read_text())["accuracy"]
               for m in w["config"]["models"] if m != "hybrid"}
    return {
        "accuracy": report["accuracy"],
        "macro_f1": report["macro_f1"],
        "bundle_mb": tree_bytes(run_dir / "models") / MB,
        "member_accuracy": members,
    }


def generator_labels(w: dict, seed: int) -> tuple[list[int], list[str]]:
    """Class index of every generated input row, in file order, and the
    task's class names, from the generator itself."""
    sys.path.insert(0, str(SRC))
    from iotids.flows import task_class_names
    from iotids.synth import SynthSpec, make_blobs

    _, y = make_blobs(SynthSpec.from_dict(dict(w["input"], seed=2 * seed + 1)))
    return y.tolist(), task_class_names(w["input"]["task"])


def check_predictions(csv_path: Path, labels: list[int], class_names: list[str]) -> dict:
    lines = csv_path.read_text().splitlines()
    if len(lines) - 1 != len(labels):
        raise RunFailure(f"{len(lines) - 1} prediction rows for {len(labels)} input flows")
    index = {name: c for c, name in enumerate(class_names)}
    predicted = []
    for i, line in enumerate(lines[1:]):
        row_index, label = line.split(",")[:2]
        if int(row_index) != i or label not in index:
            raise RunFailure(f"bad prediction row {i}: {line!r}")
        predicted.append(index[label])
    accuracy, macro_f1 = scores(labels, predicted, len(class_names))
    return {"accuracy": accuracy, "macro_f1": macro_f1}


# ------------------------------------------------------------------- runs


class Workload:
    """One workload's inputs, run command and output checks."""

    def __init__(self, w: dict, seed: int, inputs: dict, work: Path, deadline: float):
        self.w, self.inputs, self.work, self.deadline = w, inputs, work, deadline
        self.reference: bytes | None = None  # first run's manifest or predictions
        self.n_runs = 0
        if w["command"] == "predict":
            self.labels, self.class_names = generator_labels(w, seed)

    def cli_args(self, out: Path) -> list[str]:
        i = self.inputs
        if self.w["command"] == "train":
            return ["train", "--config", str(i["config"]), "--data", str(i["data"]), "--out", str(out)]
        return ["predict", "--model", str(i["bundle"]), "--input", str(i["input"]), "--output", str(out / "predictions.csv")]

    def run(self, traced: bool) -> dict:
        """One checked CLI run. The result carries the run's timings, its
        outputs' figures, and `failure` (None when every check passed)."""
        out = self.work / f"run{self.n_runs}"
        self.n_runs += 1
        trace_path = out.with_suffix(".trace.json") if traced else None
        result = run_cli(self.cli_args(out), out.with_suffix(".log"), self.deadline, trace_path)
        try:
            require_ok(result, "CLI", out.with_suffix(".log"))
            if self.w["command"] == "train":
                produced = check_manifest(out)
                result.update(check_train_outputs(out, self.w))
            else:
                produced = (out / "predictions.csv").read_bytes()
                result.update(check_predictions(out / "predictions.csv", self.labels, self.class_names))
                result["bundle_mb"] = self.inputs["bundle"].stat().st_size / MB
            if self.reference is None:
                self.reference = produced
            elif produced != self.reference:
                raise RunFailure("output differs from the first run's (manifest or predictions not byte-equal)")
            if result["accuracy"] < self.w["min_accuracy"]:
                raise RunFailure(f"hybrid accuracy {result['accuracy']:.4f} below {self.w['min_accuracy']}")
            if traced:
                result["trace"] = json.loads(trace_path.read_text())
                self.check_trace(result["trace"], out)
            result["failure"] = None
        except (RunFailure, OSError, ValueError, KeyError) as exc:
            result["failure"] = f"{type(exc).__name__}: {exc}"
        if self.n_runs > 1:
            shutil.rmtree(out, ignore_errors=True)
        return result

    # ------------------------------------------------------------ traces

    def expected(self, out: Path) -> tuple[list[str], dict[str, int]]:
        """Span sequence (children of the pipeline, or of the CLI for
        predict) and counters known from the code for this workload."""
        config = self.w["config"]
        task = config["task"]
        members = HYBRID_MEMBERS[task]
        if self.w["command"] == "predict":
            rows = len(self.labels)
            order = ["persist.load", "flows.parse", "features.featurize", "voting.vote"]
            counters = {"flows.rows_parsed": rows, "features.rows_featurized": rows, "voting.rows_voted": rows}
            for m in members:
                counters[f"{LAYER[m]}.predict_calls"] = 1
                counters[f"{LAYER[m]}.rows_predicted"] = rows
            return order, counters
        sizes = json.loads((out / "manifest.json").read_text())["provenance"]["partition_sizes"]
        train, test = sizes["train"], sizes["test"]
        standalone = [m for m in config["models"] if m != "hybrid"]
        # encoders fit on the train partition only, then train/test/val are transformed
        order = ["flows.parse", "flows.label", "flows.sample", "features.fit_one_hot", "features.featurize",
                 "features.fit_min_max"] + ["features.featurize"] * 3
        order += [f"{LAYER[m]}.fit" for m in standalone] + ["persist.save"] * len(config["models"])
        for m in config["models"]:
            order += ["voting.vote" if m == "hybrid" else f"{LAYER[m]}.predict", "metrics.compute", "metrics.export"]
        counters = {
            "flows.rows_parsed": self.w["data"]["rows_per_class"] * N_CLASSES[task],
            "features.rows_featurized": train + sum(sizes.values()),  # train twice: fit, then transform
            "voting.rows_voted": test,
        }
        for m in standalone:
            calls = 1 + (m in members)
            counters[f"{LAYER[m]}.predict_calls"] = calls
            counters[f"{LAYER[m]}.rows_predicted"] = calls * test
        if "knn" in standalone:
            counters["models.knn.distance_pairs"] = counters["models.knn.predict_calls"] * test * train
        return order, counters

    def check_trace(self, trace: dict, out: Path) -> None:
        spans = trace["spans"]
        if trace["exit_code"] != 0 or spans[0]["name"] != "cli.main":
            raise RunFailure("traced run did not complete")
        parent_name = "pipeline.run_training" if self.w["command"] == "train" else "cli.main"
        parent = next((i for i, s in enumerate(spans) if s["name"] == parent_name), None)
        seen = [s["name"] for s in spans if s["parent"] == parent]
        order, counters = self.expected(out)
        if seen != order:
            raise RunFailure(f"span order {seen} != documented pipeline order {order}")
        vote = next(i for i, s in enumerate(spans) if s["name"] == "voting.vote")
        voters = [s["name"] for s in spans if s["parent"] == vote]
        wanted = [f"{LAYER[m]}.predict" for m in HYBRID_MEMBERS[self.w["config"]["task"]]]
        if voters != wanted:
            raise RunFailure(f"vote member spans {voters} != {wanted}")
        for key, value in counters.items():
            if trace["counters"].get(key, 0) != value:
                raise RunFailure(f"counter {key} = {trace['counters'].get(key, 0)}, expected {value}")


# ------------------------------------------------------------------ metrics

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
    "macro_f1": "ratio",
    "bundle_mb": "MB",
}

TIMED_LAYERS = {  # per-layer time metric -> span names whose durations it sums
    "flows.parse_s": ["flows.parse"],
    "flows.label_sample_s": ["flows.label", "flows.sample"],
    "features.fit_s": ["features.fit_one_hot", "features.fit_min_max"],
    "features.featurize_s": ["features.featurize"],
    "metrics.report_s": ["metrics.compute", "metrics.export"],
    "persist.save_s": ["persist.save"],
    "persist.load_s": ["persist.load"],
}
for _layer in ("models.forest", "models.gbm", "models.adaboost", "models.svm", "nn.ann", "nn.cnn"):
    TIMED_LAYERS[f"{_layer}.fit_s"] = [f"{_layer}.fit"]
for _layer in ("models.forest", "models.gbm", "models.adaboost", "models.svm", "models.knn", "nn.ann", "nn.cnn"):
    TIMED_LAYERS[f"{_layer}.predict_s"] = [f"{_layer}.predict"]
SELF_TIMES = {"voting.vote_self_s": "voting.vote", "pipeline.self_s": "pipeline.run_training", "cli.self_s": "cli.main"}
COUNTERS = [
    "flows.rows_parsed",
    "features.rows_featurized",
    "models.forest.tree_nodes",
    "models.gbm.tree_nodes",
    "models.adaboost.tree_nodes",
    "models.gbm.rounds",
    "models.knn.distance_pairs",
    "nn.ann.epochs",
    "nn.cnn.epochs",
    "voting.rows_voted",
    "persist.bytes_written",
    "persist.bytes_read",
] + [
    f"models.{m}.{c}"
    for m in ("forest", "gbm", "adaboost", "svm", "knn")
    for c in ("predict_calls", "rows_predicted")
]


def span_times(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer times of one traced run: summed span durations, self times
    (duration minus direct children), and the share of the process's wall
    time outside every root span."""
    spans = trace["spans"]
    total, own = defaultdict(float), defaultdict(float)
    for s in spans:
        d = s["end"] - s["start"]
        total[s["name"]] += d
        own[s["name"]] += d
        if s["parent"] is not None:
            own[spans[s["parent"]]["name"]] -= d
    times = {name: sum(total[n] for n in names) for name, names in TIMED_LAYERS.items()}
    times.update({name: own[span] for name, span in SELF_TIMES.items()})
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    times["trace.unaccounted_share"] = (wall_s - roots) / wall_s
    return times


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    per_run = [span_times(r["trace"], r["wall_s"]) for r in traced]
    for name in list(TIMED_LAYERS) + list(SELF_TIMES):
        metrics[name] = (median([t[name] for t in per_run]), "s")
    counts = traced[0]["trace"]["counters"]
    for name in COUNTERS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["run.cpu_s"] = (median([r["cpu_s"] for r in untraced]), "s")
    metrics["trace.overhead_s"] = (median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in untraced]), "s")
    metrics["trace.unaccounted_share"] = (median([t["trace.unaccounted_share"] for t in per_run]), "ratio")
    return metrics


def environment() -> dict:
    """Machine and library facts recorded next to every result."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


# --------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes (see workloads.json)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "iotids" / "cli.py").is_file():
        print(f"error: no iotids sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    w = load_workload(args.workload, args.tiny)
    deadline = time.monotonic() + TIME_LIMIT_S

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, w, work, deadline)
    except RunFailure as exc:  # set-up failed: nothing to measure
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def measure(args, w: dict, work: Path, deadline: float) -> int:
    setup_s, digests = [], set()

    def timed_set_up(dest: Path) -> dict:
        start = time.perf_counter()
        made = set_up(w, args.seed, dest, deadline)
        setup_s.append(time.perf_counter() - start)
        digests.add(setup_digest(dest))
        return made

    bench = Workload(w, args.seed, timed_set_up(work / "setup"), work / "runs", deadline)
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(bench.run(traced=False))
        if args.trace:
            traced.append(bench.run(traced=True))
        walls = [r["wall_s"] for r in untraced]
        done, need = (traced, MIN_PAIRS) if args.trace else (untraced, MIN_RUNS)
        typical = median(walls) * (2 if args.trace else 1)
        time_up = len(done) >= need and time.perf_counter() - start >= args.seconds - typical / 2
        # set-up repeats share the timed stretch with the CLI runs: after every run while set-up
        # has taken under half the CLI time, so that a costly set-up (score_flows trains a bundle)
        # leaves most of --seconds to the runs, and until there are MIN_SETUPS samples
        if not args.trace and (sum(setup_s) < sum(walls) / 2 or (time_up and len(setup_s) < MIN_SETUPS)):
            timed_set_up(work / "setup_repeat")
            shutil.rmtree(work / "setup_repeat")
        if time_up and (args.trace or len(setup_s) >= MIN_SETUPS):
            break
    setups = len(setup_s)
    # failures not tied to one run count as one failed operation each
    extra = [] if len(digests) == 1 else ["set-up outputs differ between repeats"]

    runs = untraced + traced
    ok = [r for r in untraced if not r["failure"]]
    ok_traced = [r for r in traced if not r["failure"]]
    if not ok or (args.trace and not ok_traced):
        for r in runs:
            if r["failure"]:
                print(f"FAILED: {r['failure']}", file=sys.stderr)
        return 1
    if args.trace:
        counts = {json.dumps(r["trace"]["counters"], sort_keys=True) for r in ok_traced}
        if len(counts) != 1:
            extra.append("counters differ between traced runs")
        metrics = per_layer_metrics(ok, ok_traced)
    else:
        walls = [r["wall_s"] for r in ok]
        # times are means, not medians: on a shared 2-vCPU Xeon VM the machine's speed moves a
        # run's time evenly over about +-20% with no outliers, and for such samples the mean is the
        # steadier estimate (over ten seeds its coefficient of variation was 0.067, the median's
        # 0.079-0.093)
        metrics = {
            "setup_s": fmean(setup_s),
            "wall_s": fmean(walls),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
            "accuracy": ok[0]["accuracy"],
            "macro_f1": ok[0]["macro_f1"],
            "bundle_mb": ok[0]["bundle_mb"],
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        print(f"wall_s samples {len(walls)}: {', '.join(f'{s:.4f}' for s in walls)}")
        print(f"setup_s samples {len(setup_s)}: {', '.join(f'{s:.4f}' for s in setup_s)}")
        if "member_accuracy" in ok[0]:
            print("standalone accuracy: " + ", ".join(f"{m} {a:.4f}" for m, a in ok[0]["member_accuracy"].items()))

    failures = [r["failure"] for r in runs if r["failure"]] + extra
    attempted, failed = len(runs) + setups, len(failures)
    for f in failures:
        print(f"FAILED: {f}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    print(f"  {'ops_failed':32s} {failed / attempted:>16.6g} share ({failed} of {attempted})")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
