"""Reference architectures, layer mechanics, and what layers keep."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest

from iotids.errors import InputTooNarrow, ModelDataMismatch, ShapeMismatch
from iotids.nn.layers import BatchNorm, Conv1d, Dropout, Elu, Flatten, MaxPool1d, Relu, Softmax
from iotids.nn.network import Network, build_ann, build_cnn
from iotids.nn.training import TrainParams, train_network


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


class TestRelu:
    def derivative(self, x):
        layer = Relu()
        y = layer.forward(np.array([x]), training=False)
        return y[0], layer.backward(np.ones(1))[0]

    def test_positive_identity(self):
        assert self.derivative(3.5) == (3.5, 1.0)

    def test_negative_zero(self):
        assert self.derivative(-2.0) == (0.0, 0.0)

    def test_zero_convention(self):
        assert self.derivative(0.0) == (0.0, 0.0)


class TestElu:
    def derivative(self, x, alpha):
        layer = Elu(alpha)
        y = layer.forward(np.array([x]), training=False)
        return y[0], layer.backward(np.ones(1))[0]

    def test_zero(self):
        assert self.derivative(0.0, 1.0)[0] == 0.0

    def test_positive_identity_any_alpha(self):
        for alpha in (0.5, 1.0, 2.0):
            assert self.derivative(2.0, alpha) == (2.0, 1.0)

    def test_minus_one_alpha_one(self):
        assert self.derivative(-1.0, 1.0)[0] == pytest.approx(-0.6321205588, abs=1e-9)

    def test_gradient_is_alpha_exp(self):
        assert self.derivative(-0.5, 1.5)[1] == pytest.approx(1.5 * math.exp(-0.5), abs=1e-12)

    def test_gradient_at_zero_follows_the_closed_branch(self):
        assert self.derivative(0.0, 1.5)[1] == 1.5

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            Elu(alpha=0.0)


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# activation values with signed zeros, ties at 0 and both infinities
SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, np.inf, -np.inf, 1e-300, -1e-300])


def activation_input(rng, shape=(33, 7)):
    x = rng.normal(size=shape)
    x.flat[: SPECIAL.size] = SPECIAL
    return x


class TestActivationsMatchTheirFormulas:
    """Forward, then backward, in training and evaluation mode: the bits of
    the formulas the layers computed when forward made the derivative."""

    @pytest.mark.parametrize("training", [True, False])
    def test_relu(self, training):
        rng = np.random.default_rng(0)
        x, g = activation_input(rng), rng.normal(size=(33, 7))
        layer = Relu()
        assert_same_bits(layer.forward(x, training), np.maximum(0.0, x))
        assert_same_bits(layer.backward(g), g * (x > 0.0).astype(float))

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("alpha", [1.0, 0.3])
    def test_elu(self, training, alpha):
        rng = np.random.default_rng(1)
        x, g = activation_input(rng), rng.normal(size=(33, 7))
        neg = alpha * (np.exp(np.minimum(x, 0.0)) - 1.0)
        layer = Elu(alpha)
        assert_same_bits(layer.forward(x, training), np.where(x > 0.0, x, neg))
        assert_same_bits(layer.backward(g), g * np.where(x > 0.0, 1.0, neg + alpha))

    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm(self, training):
        rng = np.random.default_rng(2)
        x, g = rng.normal(3.0, 4.0, (37, 5)), rng.normal(size=(37, 5))
        layer = BatchNorm(5)
        gamma, beta = rng.normal(size=5), rng.normal(size=5)
        layer.params.update(gamma=gamma.copy(), beta=beta.copy())
        layer.running_mean, layer.running_var = rng.normal(size=5), rng.uniform(0.5, 2.0, 5)
        running_mean, running_var = layer.running_mean.copy(), layer.running_var.copy()
        out, dx = layer.forward(x, training), layer.backward(g)

        if training:
            mean, var = x.mean(axis=0), x.var(axis=0)
            assert_same_bits(layer.running_mean, 0.9 * running_mean + (1.0 - 0.9) * mean)
            assert_same_bits(layer.running_var, 0.9 * running_var + (1.0 - 0.9) * var)
        else:
            mean, var = running_mean, running_var
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        x_hat = (x - mean) * inv_std
        assert_same_bits(out, gamma * x_hat + beta)
        assert_same_bits(layer.grads["gamma"], (g * x_hat).sum(axis=0))
        assert_same_bits(layer.grads["beta"], g.sum(axis=0))
        gg = g * gamma
        B = x.shape[0]
        expected = (inv_std / B) * (B * gg - gg.sum(axis=0) - x_hat * (gg * x_hat).sum(axis=0)) if training \
            else gg * inv_std
        assert_same_bits(dx, expected)


def argmax_pool_forward(x, pool):
    """Max pooling as max and argmax over a strided length-pool axis, and
    the windows' first-maximum index (the reference for MaxPool1d)."""
    B, L, C = x.shape
    L2 = L // pool
    windows = x[:, : L2 * pool, :].reshape(B, L2, pool, C)
    return windows.max(axis=2), windows.argmax(axis=2)


def argmax_pool_backward(grad_out, argmax, in_shape, pool):
    B, L, C = in_shape
    L2 = grad_out.shape[1]
    dwin = np.zeros((B, L2, pool, C))
    np.put_along_axis(dwin, argmax[:, :, None, :], grad_out[:, :, None, :], axis=2)
    dx = np.zeros((B, L, C))
    dx[:, : L2 * pool, :] = dwin.reshape(B, L2 * pool, C)
    return dx


def pool_inputs(pool):
    """(name, x) inputs whose lengths leave each remainder of pool: normal
    values, integer values with many ties (as floats and as ints), signed
    zeros and infinities, and NaNs (some windows holding several)."""
    rng = np.random.default_rng(pool)
    for length in range(pool, 3 * pool + 1):
        shape = (6, length, 3)
        yield "normal", rng.normal(size=shape)
        ties = rng.integers(-2, 3, size=shape)
        yield "int_ties", ties.astype(float)
        yield "int_dtype", ties
        yield "special", rng.choice(np.array([0.0, -0.0, 1.0, np.inf, -np.inf]), size=shape)
        nans = rng.integers(-2, 3, size=shape).astype(float)
        nans[rng.random(shape) < 0.3] = np.nan
        yield "nan", nans


class TestMaxPoolMatchesArgmaxReference:
    @pytest.mark.parametrize("pool", [2, 3, 4])
    def test_forward_and_backward(self, pool):
        checked = set()
        for name, x in pool_inputs(pool):
            layer = MaxPool1d(pool)
            out = layer.forward(x, training=True)
            expected_out, argmax = argmax_pool_forward(x, pool)
            if name == "nan":
                # where a window holds a NaN both give NaN; which NaN's sign
                # bit a max reduction keeps is not specified
                np.testing.assert_array_equal(np.isnan(out), np.isnan(expected_out))
                assert_same_bits(np.nan_to_num(out), np.nan_to_num(expected_out))
            else:
                assert_same_bits(out, expected_out)
            g = np.random.default_rng(0).normal(size=out.shape)
            assert_same_bits(layer.backward(g), argmax_pool_backward(g, argmax, x.shape, pool))
            checked.add((name, x.shape[1] % pool))
        assert len(checked) == 5 * pool


def row_arrays(value, rows, seen=None):
    """Arrays with `rows` rows anywhere in value's attributes, containers and
    the arrays' bases."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        found = [value] if value.ndim and value.shape[0] == rows else []
        return found + (row_arrays(value.base, rows, seen) if value.base is not None else [])
    if isinstance(value, dict):
        return [a for v in value.values() for a in row_arrays(v, rows, seen)]
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in row_arrays(v, rows, seen)]
    if hasattr(value, "__dict__"):
        return row_arrays(vars(value), rows, seen)
    return []


NETWORKS = {
    "ann": lambda: build_ann(9, 3, hidden=(8, 4)),
    "cnn": lambda: build_cnn(9, 3, n_filters=2, hidden=4),
}


class TestWhatLayersKeep:
    @pytest.mark.parametrize("kind", NETWORKS)
    def test_predict_keeps_no_activation(self, kind):
        net = Network.initialize(NETWORKS[kind](), np.random.default_rng(0))
        X = np.random.default_rng(1).normal(size=(101, 9))
        net.predict_proba(X)
        assert row_arrays(net.layers, 101) == []
        assert all(layer.saved is None for layer in net.layers)

    @pytest.mark.parametrize("kind", NETWORKS)
    def test_loss_and_gradients_drop_what_backward_read(self, kind):
        net = Network.initialize(NETWORKS[kind](), np.random.default_rng(0))
        X, y = np.random.default_rng(1).normal(size=(101, 9)), np.arange(101) % 3
        net.loss_and_gradients(X, y, training=True, rng=np.random.default_rng(2))
        assert row_arrays(net.layers, 101) == []

    @pytest.mark.parametrize("kind", NETWORKS)
    def test_trained_network_keeps_no_activation(self, kind):
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(200, 9)), np.arange(200) % 3
        params = TrainParams(epochs=2, batch_size=50, seed=1)
        net, _ = train_network(NETWORKS[kind](), X[:137], y[:137], X[137:], y[137:], params)
        for rows in (137, 63, 37):  # train rows, validation rows, the last batch
            assert row_arrays(net.layers, rows) == []

    def test_release_drops_only_the_saved_state(self):
        rng = np.random.default_rng(0)
        signal_layers = [Conv1d(1, 2, 3, rng), Relu(), MaxPool1d(2), Dropout(0.5), Flatten()]
        row_layers = [BatchNorm(3), Elu(0.5), Softmax()]
        for layers, h in ((signal_layers, rng.normal(size=(4, 9, 1))), (row_layers, rng.normal(size=(4, 3)))):
            for layer in layers:
                h = layer.forward(h, training=True, rng=rng)
            g = rng.normal(size=h.shape)
            for layer in reversed(layers):
                g = layer.backward(g)
        for layer in signal_layers + row_layers:
            assert layer.saved is not None
            rest = pickle.dumps({k: v for k, v in vars(layer).items() if k != "saved"})
            layer.release()
            assert layer.saved is None
            assert pickle.dumps({k: v for k, v in vars(layer).items() if k != "saved"}) == rest

    def test_cnn_predict_peak_is_two_conv_outputs(self):
        """A predict holds at most the conv output and the ReLU output at
        once; keeping each layer's input, mask or argmax took 3.5 of them."""
        rows, width, filters = 2000, 36, 32
        net = Network.initialize(build_cnn(width, 7, n_filters=filters), np.random.default_rng(0))
        X = np.random.default_rng(1).normal(size=(rows, width))
        net.predict_proba(X[:3])
        conv_output = rows * (width - 2) * filters * 8
        tracemalloc.start()
        try:
            net.predict_proba(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * conv_output
