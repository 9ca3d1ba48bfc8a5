"""Synthetic data generation: determinism, schema fidelity, separability."""

import dataclasses
import hashlib
import logging

import numpy as np
import pytest

from iotids.errors import ConfigError
from iotids.flows import MULTI_CLASS_NAMES, label_rows, parse_conn_log_file
from iotids.synth import SynthSpec, make_blobs, write_synth_dataset


class TestSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SynthSpec("ternary", 10).validate()
        with pytest.raises(ConfigError):
            SynthSpec("binary", 0).validate()
        with pytest.raises(ConfigError):
            SynthSpec("binary", 10, label_noise=0.5).validate()

    def test_round_trip(self):
        spec = SynthSpec("multiclass", 25, feature_width=12, seed=3)
        assert SynthSpec.from_dict(dataclasses.asdict(spec)) == spec


class TestBlobs:
    def test_shapes_and_classes(self):
        X, y = make_blobs(SynthSpec("multiclass", 40, feature_width=20, seed=1))
        assert X.shape == (280, 20)
        np.testing.assert_array_equal(np.unique(y), np.arange(7))

    def test_separability_at_default_spacing(self):
        X, y = make_blobs(SynthSpec("binary", 100, feature_width=5, seed=2))
        # class means are 6 apart per axis with unit spread
        mid = (X[y == 0].mean(axis=0) + X[y == 1].mean(axis=0)) / 2
        simple = (X > mid).mean(axis=1) > 0.5
        assert float(np.mean(simple == y)) >= 0.99

    def test_label_noise_rate(self):
        spec = SynthSpec("binary", 2000, label_noise=0.2, seed=3)
        _, y = make_blobs(spec)
        clean = np.repeat(np.arange(2), 2000)
        rate = float(np.mean(y != clean))
        assert 0.15 < rate < 0.25


class TestZeekEmission:
    @pytest.mark.parametrize("spec, digest", [
        (SynthSpec("binary", 40, feature_width=8, seed=11),
         "9a6e95558eed96c5be87fced7a58130497195a92fb95e523a0a11540298a257c"),
        (SynthSpec("multiclass", 20, feature_width=3, seed=12),
         "7ed65b0ad052f2e0ad7b9fc82377973dcc252141c07e01170a0e4857ee81a43a"),
        # counts near 1e20, beyond int64
        (SynthSpec("multiclass", 20, feature_width=20, center_spacing=1e20, seed=13),
         "8a40f927f53c4f9f679e601e0d396db72cf0de99713b6196cc94aa01556adfab"),
    ])
    def test_output_bytes_are_pinned(self, tmp_path, spec, digest):
        # digests of the per-row record writer that the columnar writer replaced
        assert hashlib.sha256(write_synth_dataset(spec, tmp_path).read_bytes()).hexdigest() == digest

    def test_byte_identical_for_same_spec(self, tmp_path):
        spec = SynthSpec("binary", 30, seed=9)
        a = write_synth_dataset(spec, tmp_path / "a").read_bytes()
        b = write_synth_dataset(spec, tmp_path / "b").read_bytes()
        assert a == b

    def test_seven_by_fifty_row_accounting(self, tmp_path):
        path = write_synth_dataset(SynthSpec("multiclass", 50, seed=4), tmp_path)
        table = parse_conn_log_file(path)
        assert len(table) == 350
        assert len(set(table["raw_detailed_label"])) == 7

    def test_parses_without_warnings(self, tmp_path, caplog):
        path = write_synth_dataset(SynthSpec("multiclass", 20, seed=5), tmp_path)
        with caplog.at_level(logging.WARNING):
            dataset = label_rows(parse_conn_log_file(path))
        assert not caplog.records
        assert len(dataset.table) == 140
        # every synth spelling canonicalizes: no sentinel (-1) rows, 20 rows per class
        counts = np.bincount(dataset.targets("multiclass"), minlength=len(MULTI_CLASS_NAMES))
        assert counts.tolist() == [20] * len(MULTI_CLASS_NAMES)

    def test_numeric_fields_stay_non_negative(self, tmp_path):
        path = write_synth_dataset(SynthSpec("binary", 50, seed=6), tmp_path)
        table = parse_conn_log_file(path)
        assert (table["duration"] >= 0.0).all()
        assert (table["orig_bytes"] >= 0).all() and (table["resp_bytes"] >= 0).all()
