"""Mini-batch Adam training with validation-loss early stopping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptyValidation, NonFiniteLoss, ShapeMismatch
from ..numerics import cross_entropy_mean
from .network import Network, NetworkSpec


@dataclass(frozen=True)
class TrainParams:
    batch_size: int = 256
    epochs: int = 100
    patience: int = 5
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0


@dataclass
class TrainingCurve:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = 0

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss,val_accuracy"]
        for e, (tl, vl, va) in enumerate(zip(self.train_loss, self.val_loss, self.val_accuracy)):
            lines.append(f"{e},{tl!r},{vl!r},{va!r}")
        return "\n".join(lines) + "\n"


class Adam:
    """Adam over one flat parameter vector, updated in place.  Per element,
    in this order: m = beta1 * m + (1 - beta1) * g, v = beta2 * v +
    (1 - beta2) * g^2, and w = w - lr * (m / (1 - beta1^t)) /
    (sqrt(v / (1 - beta2^t)) + eps)."""

    def __init__(self, size: int, params: TrainParams):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self.p = params

    def step(self, values: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        p = self.p
        self.m *= p.beta1
        self.m += (1.0 - p.beta1) * grad
        self.v *= p.beta2
        self.v += (1.0 - p.beta2) * (grad * grad)
        update = self.m / (1.0 - p.beta1**self.t)
        denom = np.sqrt(self.v / (1.0 - p.beta2**self.t))
        denom += p.eps
        update *= p.learning_rate
        update /= denom
        values -= update


def _flat_parameters(net: Network) -> np.ndarray:
    """One vector of every parameter of net, in parameters() order; each
    layer's params become views of it, until net.restore replaces them."""
    values = np.concatenate([v.ravel() for _, _, v in net.parameters()])
    offset = 0
    for i, name, value in net.parameters():
        net.layers[i].params[name] = values[offset : offset + value.size].reshape(value.shape)
        offset += value.size
    return values


def train_network(
    spec: NetworkSpec,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    params: TrainParams = TrainParams(),
) -> tuple[Network, TrainingCurve]:
    """Seeded mini-batch Adam; early-stops on validation loss and restores
    the best epoch's parameters (including batch-norm running statistics).

    The epoch's train_loss is the mean of its batch losses (dropout active,
    batch statistics); validation runs in deterministic evaluation mode.
    """
    X_train = np.asarray(X_train, dtype=float)
    y_train = np.asarray(y_train, dtype=np.int64)
    X_val = np.asarray(X_val, dtype=float)
    y_val = np.asarray(y_val, dtype=np.int64)
    if X_val.shape[0] == 0:
        raise EmptyValidation("early stopping needs a non-empty validation set")
    if X_train.shape[0] == 0:
        raise ShapeMismatch("empty training set")
    if int(max(y_train.max(), y_val.max())) >= spec.class_count:
        raise ShapeMismatch("label outside the spec's class count")

    init_rng = np.random.default_rng([params.seed, 0])
    train_rng = np.random.default_rng([params.seed, 1])
    net = Network.initialize(spec, init_rng)
    values = _flat_parameters(net)
    optimizer = Adam(values.size, params)

    curve = TrainingCurve()
    best_val = math.inf
    best_state = net.snapshot()
    n = X_train.shape[0]
    for epoch in range(params.epochs):
        order = train_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, params.batch_size):
            batch = order[start : start + params.batch_size]
            loss, grads = net.loss_and_gradients(X_train[batch], y_train[batch], training=True, rng=train_rng)
            if not math.isfinite(loss):
                raise NonFiniteLoss(epoch, loss)
            batch_losses.append(loss)
            optimizer.step(values, np.concatenate([g.ravel() for g in grads]))

        probs = net.predict_proba(X_val)
        val_loss = cross_entropy_mean(probs, y_val) + net.penalty()
        if not math.isfinite(val_loss):
            raise NonFiniteLoss(epoch, val_loss)
        curve.train_loss.append(float(np.mean(batch_losses)))
        curve.val_loss.append(val_loss)
        curve.val_accuracy.append(float(np.mean(np.argmax(probs, axis=1) == y_val)))

        if val_loss < best_val:
            best_val = val_loss
            curve.best_epoch = epoch
            best_state = net.snapshot()
        if epoch - curve.best_epoch >= params.patience:
            break

    net.restore(best_state)
    return net, curve
