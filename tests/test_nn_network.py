"""Reference architectures and layer mechanics."""

import numpy as np
import pytest

from iotids.errors import InputTooNarrow, ModelDataMismatch, ShapeMismatch
from iotids.nn.layers import BatchNorm, Conv1d, Dropout, MaxPool1d
from iotids.nn.network import Network, build_ann, build_cnn


def param_shapes(net: Network) -> list[tuple]:
    return [tuple(v.shape) for _, _, v in net.parameters()]


class TestBuildAnn:
    def test_default_structure_and_shapes(self):
        spec = build_ann(36, 7)
        kinds = [d["kind"] for d in spec.layers]
        assert kinds == ["dense", "batchnorm", "elu", "dropout"] * 3 + ["dense", "batchnorm", "softmax"]
        net = Network.initialize(spec, np.random.default_rng(0))
        shapes = param_shapes(net)
        # dense W/b then batchnorm gamma/beta per block
        assert shapes == [
            (36, 128), (128,), (128,), (128,),
            (128, 64), (64,), (64,), (64,),
            (64, 32), (32,), (32,), (32,),
            (32, 7), (7,), (7,), (7,),
        ]

    def test_two_class_head(self):
        spec = build_ann(10, 2)
        net = Network.initialize(spec, np.random.default_rng(0))
        probs = net.predict_proba(np.zeros((3, 10)))
        assert probs.shape == (3, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_hidden_overrides(self):
        spec = build_ann(8, 3, hidden=(16, 8, 4))
        net = Network.initialize(spec, np.random.default_rng(0))
        dense_shapes = [s for s in param_shapes(net) if len(s) == 2]
        assert dense_shapes == [(8, 16), (16, 8), (8, 4), (4, 3)]


class TestBuildCnn:
    def test_lengths_for_width_36(self):
        spec = build_cnn(36, 7)
        net = Network.initialize(spec, np.random.default_rng(0))
        # conv length 34, pooled 17, flatten 17*32=544
        flat_dense = [v for _, n, v in net.parameters() if v.ndim == 2][0]
        assert flat_dense.shape == (544, 64)
        probs = net.predict_proba(np.zeros((2, 36)))
        assert probs.shape == (2, 7)

    def test_kernel_equals_width(self):
        spec = build_cnn(3, 2, n_filters=2, pool=1, hidden=4)
        net = Network.initialize(spec, np.random.default_rng(0))
        assert net.predict_proba(np.zeros((1, 3))).shape == (1, 2)

    def test_input_too_narrow(self):
        with pytest.raises(InputTooNarrow):
            build_cnn(2, 2, kernel_width=3)

    def test_maxpool_pair(self):
        pool = MaxPool1d(2)
        x = np.array([[[5.0], [1.0]]])  # batch 1, length 2, channel 1
        out = pool.forward(x, training=False)
        assert out.shape == (1, 1, 1) and out[0, 0, 0] == 5.0

    def test_maxpool_odd_tail_dropped(self):
        pool = MaxPool1d(2)
        x = np.arange(10, dtype=float).reshape(1, 5, 2)
        out = pool.forward(x, training=False)
        assert out.shape == (1, 2, 2)


class TestLayerMechanics:
    def test_dropout_eval_is_identity(self):
        layer = Dropout(0.5)
        x = np.ones((4, 4))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_dropout_training_scales_kept_units(self):
        layer = Dropout(0.25)
        rng = np.random.default_rng(0)
        x = np.ones((200, 50))
        out = layer.forward(x, training=True, rng=rng)
        kept = out[out != 0.0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)

    def test_batchnorm_running_stats_update_only_in_training(self):
        layer = BatchNorm(3)
        x = np.random.default_rng(1).normal(5.0, 2.0, (32, 3))
        before = layer.running_mean.copy()
        layer.forward(x, training=False)
        np.testing.assert_array_equal(layer.running_mean, before)
        layer.forward(x, training=True)
        assert not np.allclose(layer.running_mean, before)

    def test_batchnorm_train_normalizes_batch(self):
        layer = BatchNorm(2)
        x = np.random.default_rng(2).normal(3.0, 4.0, (64, 2))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_conv1d_matches_direct_convolution(self):
        rng = np.random.default_rng(3)
        layer = Conv1d(2, 3, kernel_width=2, rng=rng)
        x = rng.normal(size=(4, 6, 2))
        out = layer.forward(x, training=False)
        K, b = layer.params["K"], layer.params["b"]
        for i in range(5):
            expected = np.einsum("bjc,fjc->bf", x[:, i : i + 2, :], K) + b
            np.testing.assert_allclose(out[:, i, :], expected, atol=1e-12)


class TestNetworkRuntime:
    def test_inference_bitwise_deterministic(self):
        # dropout off (eval) and frozen stats: two passes identical
        spec = build_ann(6, 3, hidden=(8, 8, 4))
        net = Network.initialize(spec, np.random.default_rng(7))
        X = np.random.default_rng(8).normal(size=(10, 6))
        a = net.predict_proba(X)
        b = net.predict_proba(X)
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch(self):
        net = Network.initialize(build_ann(5, 2), np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            net.predict_proba(np.zeros((2, 4)))

    def test_snapshot_restore_round_trip(self):
        net = Network.initialize(build_ann(4, 2, hidden=(4, 3, 2)), np.random.default_rng(1))
        X = np.random.default_rng(2).normal(size=(6, 4))
        state = net.snapshot()
        before = net.predict_proba(X)
        for i, name, v in net.parameters():
            net.layers[i].params[name] = v + 1.0
        assert not np.allclose(net.predict_proba(X), before)
        net.restore(state)
        np.testing.assert_array_equal(net.predict_proba(X), before)

    def test_persistence_round_trip(self):
        net = Network.initialize(build_cnn(9, 2, n_filters=2, hidden=4), np.random.default_rng(3))
        X = np.random.default_rng(4).normal(size=(5, 9))
        clone = Network.from_dict(net.to_dict())
        np.testing.assert_array_equal(net.predict_proba(X), clone.predict_proba(X))

    @pytest.mark.parametrize("change", [
        lambda layers: layers.insert(1, {"kind": "lstm"}),  # unknown kind
        lambda layers: layers[1].update(width=7),  # batchnorm wider than its dense
        lambda layers: [layers[-3].update(n_out=3), layers[-2].update(width=3)],  # 3 outputs, 2 classes
        lambda layers: layers[0].update(n_in=True),  # a bool is not a width
        lambda layers: layers[2].update(alpha=-1),  # ELU alpha must be positive
        lambda layers: layers[2].update(alpha="x"),
        lambda layers: layers[1].update(eps="x"),  # batchnorm eps is a constant, not a field
        lambda layers: layers[1].update(eps=-10),
        lambda layers: layers[1].update(momentum=0.5),
        lambda layers: layers[0].update(bias=True),  # a key dense does not have
        lambda layers: layers[3].update(rate=1.0),  # dropout rate in [0, 1)
        lambda layers: layers.pop(),  # the stack no longer ends in softmax
        lambda layers: layers[2].pop("alpha"),  # a missing field
    ])
    def test_spec_whose_widths_do_not_chain_is_model_error(self, change):
        doc = Network.initialize(build_ann(6, 2, hidden=(4,)), np.random.default_rng(0)).to_dict()
        change(doc["spec"]["layers"])
        with pytest.raises(ModelDataMismatch):
            Network.from_dict(doc)

    @pytest.mark.parametrize("change", [
        lambda layers: layers[0].update(in_channels=2),  # the signal has one channel
        lambda layers: layers[0].update(kernel_width=10),  # kernel longer than the signal
        lambda layers: layers[2].update(pool=8),  # pool longer than the convolved signal
        lambda layers: layers.pop(4),  # dense on an unflattened signal
    ])
    def test_cnn_spec_whose_shapes_do_not_chain_is_model_error(self, change):
        doc = Network.initialize(build_cnn(9, 2, n_filters=2, hidden=4), np.random.default_rng(3)).to_dict()
        change(doc["spec"]["layers"])
        with pytest.raises(ModelDataMismatch):
            Network.from_dict(doc)
