"""Synthetic desk-scale data: Gaussian class blobs, optionally rendered as
Zeek-format labeled connection logs with canonical IoT23 label spellings.

The writer builds the log's columns straight from the blob arrays and
renders them with flows.render_conn_log."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .flows import BinaryClass, MultiClass, render_conn_log
from .jsontypes import check_fields, from_json_object
from .output import write_output

# numeric flow columns that carry the class signal, in blob-dimension order
SIGNAL_COLUMNS = [
    "duration",
    "orig_bytes",
    "resp_bytes",
    "missed_bytes",
    "orig_pkts",
    "orig_ip_bytes",
    "resp_pkts",
    "resp_ip_bytes",
]

# canonical IoT23 spellings per multiclass label
_DETAILED_SPELLING = {
    MultiClass.BENIGN: ("Benign", "-"),
    MultiClass.CC_HEARTBEAT: ("Malicious", "C&C-HeartBeat"),
    MultiClass.DDOS: ("Malicious", "DDoS"),
    MultiClass.OKIRU: ("Malicious", "Okiru"),
    MultiClass.PORT_SCAN: ("Malicious", "PartOfAHorizontalPortScan"),
    MultiClass.CC: ("Malicious", "C&C"),
    MultiClass.ATTACK: ("Malicious", "Attack"),
}


@dataclass(frozen=True)
class SynthSpec:
    task: str  # "binary" (2 classes) or "multiclass" (7 classes)
    rows_per_class: int
    feature_width: int = 8
    center_spacing: float = 6.0  # per-coordinate distance between class centers
    spread: float = 1.0
    label_noise: float = 0.0
    seed: int = 0

    @property
    def n_classes(self) -> int:
        return 2 if self.task == "binary" else 7

    def validate(self) -> None:
        check_fields(self, "synth spec")
        if self.task not in ("binary", "multiclass"):
            raise ConfigError(f"task must be binary or multiclass, got {self.task!r}")
        if self.n_classes * self.rows_per_class * self.feature_width > np.iinfo(np.int64).max:
            raise ConfigError(
                f"rows_per_class {self.rows_per_class} x {self.n_classes} classes x feature_width "
                f"{self.feature_width} values do not fit int64"
            )

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        return from_json_object(cls, d, "synth spec")

    @classmethod
    def from_json_file(cls, path: str | Path) -> "SynthSpec":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read synth spec {path}: {exc}") from exc


def make_blobs(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian blobs on the diagonal: class c centered at spacing*c per axis.
    A spec whose values overflow float64 is a ConfigError."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    C, n, d = spec.n_classes, spec.rows_per_class, spec.feature_width
    y = np.repeat(np.arange(C), n)
    with np.errstate(over="ignore", invalid="ignore"):
        centers = spec.center_spacing * y[:, None] * np.ones(d)
        X = centers + rng.normal(0.0, spec.spread, size=(C * n, d))
    _require_finite(X)
    if spec.label_noise > 0.0:
        flip = rng.random(C * n) < spec.label_noise
        shift = rng.integers(1, C, size=C * n)
        y = np.where(flip, (y + shift) % C, y)
    return X, y.astype(np.int64)


def _require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ConfigError("center_spacing and spread are too large: generated values overflow float64")


def _class_spelling(task: str, c: int) -> tuple[str, str]:
    if task == "binary":
        return ("Benign", "-") if c == BinaryClass.BENIGN else ("Malicious", "DDoS")
    return _DETAILED_SPELLING[MultiClass(c)]


def _conn_columns(spec: SynthSpec, X: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray | list]:
    """Blob rows as conn-log columns: blob dims map onto the signal columns
    (at most eight; the rest are 0), shifted positive and rounded where
    integral."""
    n = len(y)
    with np.errstate(over="ignore", invalid="ignore"):
        signal = X[:, : len(SIGNAL_COLUMNS)] + 4.0 * spec.spread  # keeps class-0 values clear of the 0 clip
    _require_finite(signal)
    signal = np.where(signal > 0, signal, 0.0)
    columns: dict[str, np.ndarray | list] = dict.fromkeys(SIGNAL_COLUMNS, np.zeros(n))
    for name, values in zip(SIGNAL_COLUMNS, signal.T):
        columns[name] = values if name == "duration" else np.rint(values)
    spellings = [_class_spelling(spec.task, c) for c in range(spec.n_classes)]
    classes = y.tolist()
    rows = range(n)
    columns.update(
        ts=1600000000.0 + np.arange(n),
        uid=[f"Csynth{spec.seed}x{i}" for i in rows],
        orig_h=[f"192.168.{(i // 250) % 250}.{i % 250 + 1}" for i in rows],
        resp_h=[f"203.0.113.{i % 250 + 1}" for i in rows],
        orig_p=[49152] * n,
        resp_p=[80] * n,
        proto=["tcp"] * n,
        service=[("http", "dns")[i % 2] for i in rows],
        conn_state=["SF"] * n,
        local_orig=[True] * n,
        local_resp=[False] * n,
        history=["ShADad"] * n,
        tunnel_parents=[""] * n,
        raw_label=[spellings[c][0] for c in classes],
        raw_detailed_label=[spellings[c][1] for c in classes],
    )
    return columns


def write_synth_dataset(spec: SynthSpec, out_dir: str | Path) -> Path:
    """Emit one deterministic .labeled file for the spec; returns its path."""
    spec.validate()
    X, y = make_blobs(spec)
    text = render_conn_log(_conn_columns(spec, X, y))
    return write_output(Path(out_dir) / f"synth_{spec.task}.labeled", text)
