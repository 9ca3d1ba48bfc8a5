"""Training loop: zero-step identity, early stopping, penalty monotonicity."""

import numpy as np
import pytest

from iotids.errors import EmptyValidation, NonFiniteLoss, ShapeMismatch
from iotids.nn.network import Network, NetworkSpec, build_ann
from iotids.nn.training import Adam, TrainParams, train_network


def blob_task(seed=7, n=150, d=6, gap=4.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 0.7, (n, d)), rng.normal(gap, 0.7, (n, d))])
    y = np.array([0] * n + [1] * n)
    perm = rng.permutation(2 * n)
    return X[perm], y[perm]


def plain_spec(width=4, classes=2):
    """No batch-norm, no dropout: loss is a pure function of the parameters."""
    layers = (
        {"kind": "dense", "n_in": width, "n_out": 8},
        {"kind": "relu"},
        {"kind": "dense", "n_in": 8, "n_out": classes},
        {"kind": "softmax"},
    )
    return NetworkSpec(width, classes, layers, l1=0.0, l2=0.0)


class TestZeroLearningRate:
    def test_parameters_unchanged_full_ann(self):
        X, y = blob_task(n=40)
        spec = build_ann(6, 2, hidden=(8, 4, 4))
        params = TrainParams(epochs=3, batch_size=16, learning_rate=0.0, seed=1)
        net, _ = train_network(spec, X[:60], y[:60], X[60:80], y[60:80], params)
        fresh = Network.initialize(spec, np.random.default_rng([1, 0]))
        for (_, _, a), (_, _, b) in zip(net.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_flat_curve_without_stochastic_layers(self):
        X, y = blob_task(n=40, d=4)
        params = TrainParams(epochs=4, batch_size=16, learning_rate=0.0, patience=10, seed=2)
        _, curve = train_network(plain_spec(), X[:64], y[:64], X[64:80], y[64:80], params)
        assert len(set(curve.val_loss)) == 1
        # batches tile the train set evenly, so epoch means coincide too
        np.testing.assert_allclose(curve.train_loss, curve.train_loss[0], atol=1e-12)


class TestTraining:
    def test_separable_blob_high_accuracy(self):
        X, y = blob_task()
        spec = build_ann(6, 2, hidden=(32, 16, 8))
        params = TrainParams(epochs=30, batch_size=64, patience=30, seed=5)
        _, curve = train_network(spec, X[:240], y[:240], X[240:], y[240:], params)
        assert max(curve.val_accuracy) >= 0.98

    def test_planted_minimum_early_stop_and_restore(self):
        rng = np.random.default_rng(123)
        n = 60
        Xtr = np.vstack([rng.normal(0.0, 1.0, (n, 2)), rng.normal(3.0, 1.0, (n, 2))])
        ytr = np.array([0] * n + [1] * n)
        Xva = np.vstack([rng.normal(0.0, 1.0, (25, 2)), rng.normal(3.0, 1.0, (25, 2))])
        yva = np.array([0] * 25 + [1] * 25)
        yva[:2] = 1  # mislabeled rows plant an interior val-loss minimum
        spec = build_ann(2, 2, hidden=(16, 8, 4))
        params = TrainParams(epochs=80, batch_size=32, patience=6, seed=9)
        net, curve = train_network(spec, Xtr, ytr, Xva, yva, params)
        val = np.array(curve.val_loss)
        assert curve.best_epoch == int(val.argmin())
        assert 0 < curve.best_epoch < len(val) - 1  # interior minimum
        assert (len(val) - 1) - curve.best_epoch <= params.patience
        # restored parameters reproduce the recorded best val loss
        from iotids.numerics import cross_entropy_mean

        probs = net.predict_proba(Xva)
        restored = cross_entropy_mean(probs, yva) + net.penalty()
        assert restored == pytest.approx(val.min(), abs=1e-9)

    def test_non_finite_loss_reported_with_epoch(self):
        X = np.full((8, 4), np.nan)
        y = np.zeros(8, dtype=int)
        with pytest.raises(NonFiniteLoss) as exc:
            train_network(plain_spec(), X, y, X[:2], y[:2], TrainParams(epochs=2, seed=0))
        assert exc.value.epoch == 0

    def test_empty_validation(self):
        X, y = blob_task(n=10)
        with pytest.raises(EmptyValidation):
            train_network(plain_spec(6), X, y, np.zeros((0, 6)), np.zeros(0, dtype=int), TrainParams())

    def test_label_outside_class_count(self):
        X, y = blob_task(n=10)
        with pytest.raises(ShapeMismatch):
            train_network(plain_spec(6, classes=2), X, y + 5, X, y + 5, TrainParams())

    def test_curve_csv_format(self):
        X, y = blob_task(n=20)
        params = TrainParams(epochs=2, batch_size=16, seed=3)
        _, curve = train_network(plain_spec(6), X[:32], y[:32], X[32:40], y[32:40], params)
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,val_accuracy"
        assert len(lines) == 1 + len(curve.train_loss)


class TestElasticNetEffect:
    def test_l2_grid_shrinks_weight_norm(self):
        X, y = blob_task(seed=11, n=60, d=4)
        norms = []
        for l2 in (0.0, 0.01, 0.1):
            spec = build_ann(4, 2, hidden=(8, 4, 4), l1=0.0, l2=l2)
            params = TrainParams(epochs=25, batch_size=32, patience=25, seed=4)
            net, _ = train_network(spec, X[:96], y[:96], X[96:], y[96:], params)
            norms.append(sum(float((w**2).sum()) for w in net.penalized_weights()))
        assert norms[0] >= norms[1] >= norms[2]


def listwise_adam(values, grad_steps, p):
    """Adam over a list of arrays, each step's new arrays from the
    expressions written out (the reference for the in-place Adam)."""
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    for t, grads in enumerate(grad_steps, start=1):
        for i, (value, grad) in enumerate(zip(values, grads)):
            m[i] = p.beta1 * m[i] + (1.0 - p.beta1) * grad
            v2[i] = p.beta2 * v2[i] + (1.0 - p.beta2) * grad**2
            m_hat = m[i] / (1.0 - p.beta1**t)
            v_hat = v2[i] / (1.0 - p.beta2**t)
            values[i] = value - p.learning_rate * m_hat / (np.sqrt(v_hat) + p.eps)
    return values


def test_in_place_adam_matches_the_written_out_formula_bit_for_bit():
    rng = np.random.default_rng(6)
    shapes = [(3, 4), (4,), (2, 3, 1)]
    values = [rng.normal(size=s) for s in shapes]
    grad_steps = [[rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s) for s in shapes] for _ in range(7)]
    grad_steps[2][1][:] = 0.0
    p = TrainParams(learning_rate=3e-3)
    flat = np.concatenate([v.ravel() for v in values])
    optimizer = Adam(flat.size, p)
    for grads in grad_steps:
        optimizer.step(flat, np.concatenate([g.ravel() for g in grads]))
    expected = np.concatenate([v.ravel() for v in listwise_adam(values, grad_steps, p)])
    assert flat.tobytes() == expected.tobytes()
