"""Layers with explicit forward/backward passes.

Forward saves, backward derives: `forward` computes the layer's output and
keeps in `saved` only what backward reads (an input, a normalized input, a
mask); `backward` derives the local derivative from that saved state,
accumulates parameter gradients in `grads`, and returns the gradient with
respect to the layer's input.  `release` drops the saved state, so a pass
that is never differentiated keeps no activation once it has moved on.
Dense inputs are (batch, width); convolutional inputs are (batch, length,
channels).

Derivative conventions that matter for finite-difference checks: the ReLU
derivative at exactly 0 is 0, and the ELU derivative at 0 follows the
x <= 0 branch (alpha * e^0 = alpha).
"""

from __future__ import annotations

import math

import numpy as np

from ..numerics import softmax as _softmax
from .functional import glorot_uniform, glorot_uniform_bound


class Layer:
    """Stateless base: no parameters, identity backward bookkeeping."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.saved = None  # what the last forward kept for backward

    # names of params that the elastic-net penalty applies to
    penalized: tuple[str, ...] = ()

    def forward(self, x: np.ndarray, training: bool, rng: np.random.Generator | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def release(self) -> None:
        """Drop what forward saved for backward; parameters, gradients,
        buffers and settings stay."""
        self.saved = None

    def buffers(self) -> dict[str, np.ndarray]:
        """Non-trainable state that must survive snapshot/restore (BN stats)."""
        return {}

    @staticmethod
    def state_shapes(*args) -> dict[str, tuple[int, ...]]:
        """The shape of each parameter, then each buffer, of the layer that
        these constructor arguments build, computed without building it."""
        return {}


class Dense(Layer):
    penalized = ("W",)

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None):
        """Glorot weights drawn from rng; with no rng, zeros to be restored."""
        super().__init__()
        shapes = self.state_shapes(n_in, n_out)
        W = np.zeros(shapes["W"]) if rng is None else glorot_uniform(n_in, n_out, rng)
        self.params = {"W": W, "b": np.zeros(shapes["b"])}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    @staticmethod
    def state_shapes(n_in, n_out):
        return {"W": (n_in, n_out), "b": (n_out,)}

    def forward(self, x, training, rng=None):
        self.saved = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, grad_out):
        self.grads["W"] = self.saved.T @ grad_out
        self.grads["b"] = grad_out.sum(axis=0)
        return grad_out @ self.params["W"].T


class BatchNorm(Layer):
    """Per-feature batch normalization with running statistics.

    Training normalizes by batch statistics (biased variance) and updates
    running stats with momentum; evaluation applies the frozen affine
    transform, whose backward pass is still defined for gradient checking.
    """

    momentum = 0.9
    eps = 1e-5

    def __init__(self, width: int):
        super().__init__()
        shapes = self.state_shapes(width)
        self.params = {"gamma": np.ones(shapes["gamma"]), "beta": np.zeros(shapes["beta"])}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.running_mean = np.zeros(shapes["running_mean"])
        self.running_var = np.ones(shapes["running_var"])

    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    @staticmethod
    def state_shapes(width):
        return dict.fromkeys(("gamma", "beta", "running_mean", "running_var"), (width,))

    def forward(self, x, training, rng=None):
        if training:
            mean = x.mean(axis=0)
            centered = x - mean
            var = np.add.reduce(centered * centered, axis=0) / x.shape[0]  # the bits of x.var(axis=0)
            self.running_mean = self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1.0 - self.momentum) * var
        else:
            centered, var = x - self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = centered * inv_std
        self.saved = x_hat, inv_std, training
        return self.params["gamma"] * x_hat + self.params["beta"]

    def backward(self, grad_out):
        x_hat, inv_std, training = self.saved
        self.grads["gamma"] = (grad_out * x_hat).sum(axis=0)
        self.grads["beta"] = grad_out.sum(axis=0)
        g = grad_out * self.params["gamma"]
        if not training:
            return g * inv_std
        B = grad_out.shape[0]
        return (inv_std / B) * (B * g - g.sum(axis=0) - x_hat * (g * x_hat).sum(axis=0))


class Relu(Layer):
    """max(0, x); the derivative is 1 where x > 0, else 0."""

    def forward(self, x, training, rng=None):
        self.saved = x
        return np.maximum(0.0, x)

    def backward(self, grad_out):
        return grad_out * (self.saved > 0.0).astype(float)


class Elu(Layer):
    """x for x > 0, alpha * (e^x - 1) otherwise; the derivative is 1, or
    alpha * e^x on the closed negative branch."""

    def __init__(self, alpha: float = 1.0):
        super().__init__()
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha

    def forward(self, x, training, rng=None):
        positive = x > 0.0
        neg = self.alpha * (np.exp(np.minimum(x, 0.0)) - 1.0)
        self.saved = positive, neg
        return np.where(positive, x, neg)

    def backward(self, grad_out):
        positive, neg = self.saved
        return grad_out * np.where(positive, 1.0, neg + self.alpha)


class Softmax(Layer):
    def forward(self, x, training, rng=None):
        self.saved = _softmax(x)
        return self.saved

    def backward(self, grad_out):
        # Jacobian-vector product: dz_i = p_i * (g_i - sum_j p_j g_j)
        p = self.saved
        inner = (grad_out * p).sum(axis=-1, keepdims=True)
        return p * (grad_out - inner)


class Dropout(Layer):
    """Inverted dropout: active only in training, identity in evaluation."""

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate

    def forward(self, x, training, rng=None):
        if not training or self.rate == 0.0:
            self.saved = None
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        self.saved = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self.saved

    def backward(self, grad_out):
        return grad_out if self.saved is None else grad_out * self.saved


class Conv1d(Layer):
    """1D valid convolution, stride 1; input (batch, length, channels)."""

    penalized = ("K",)

    def __init__(self, in_channels: int, n_filters: int, kernel_width: int, rng: np.random.Generator | None):
        """Glorot kernels drawn from rng; with no rng, zeros to be restored."""
        super().__init__()
        fan_in = kernel_width * in_channels
        fan_out = kernel_width * n_filters
        bound = glorot_uniform_bound(fan_in, fan_out)
        shapes = self.state_shapes(in_channels, n_filters, kernel_width)
        self.params = {
            "K": np.zeros(shapes["K"]) if rng is None else rng.uniform(-bound, bound, size=shapes["K"]),
            "b": np.zeros(shapes["b"]),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.kernel_width = kernel_width

    @staticmethod
    def state_shapes(in_channels, n_filters, kernel_width):
        return {"K": (n_filters, kernel_width, in_channels), "b": (n_filters,)}

    def _windows(self, x):
        """windows[b, l, c, j] = x[b, l + j, c], a view of x."""
        return np.lib.stride_tricks.sliding_window_view(x, self.kernel_width, axis=1)

    def forward(self, x, training, rng=None):
        self.saved = x
        out = np.einsum("blcj,fjc->blf", self._windows(x), self.params["K"])
        out += self.params["b"]
        return out

    def backward(self, grad_out):
        x = self.saved
        self.grads["K"] = np.einsum("blf,blcj->fjc", grad_out, self._windows(x))
        self.grads["b"] = grad_out.sum(axis=(0, 1))
        dx = np.zeros_like(x)
        out_len = grad_out.shape[1]
        for j in range(self.kernel_width):
            dx[:, j : j + out_len, :] += grad_out @ self.params["K"][:, j, :]
        return dx


class MaxPool1d(Layer):
    """Non-overlapping max pooling along the length axis; remainder dropped.
    Gradient routes to the first maximal element of each window, a NaN
    counting as maximal (as argmax takes it)."""

    def __init__(self, pool: int = 2):
        super().__init__()
        self.pool = pool

    def _positions(self, x, pooled: int):
        """Per pool position j, the view x[:, l * pool + j, :] over the
        pooled lengths l."""
        end = pooled * self.pool
        return [x[:, j : end : self.pool, :] for j in range(self.pool)]

    def forward(self, x, training, rng=None):
        first, *rest = self._positions(x, x.shape[1] // self.pool)
        out = first.copy()
        for position in rest:
            np.maximum(out, position, out=out)
        self.saved = x, out
        return out

    def backward(self, grad_out):
        x, out = self.saved
        dx = np.zeros(x.shape)
        unrouted = np.ones(out.shape, dtype=bool)  # windows whose first maximum is still ahead
        for position, d_position in zip(self._positions(x, out.shape[1]), self._positions(dx, out.shape[1])):
            first = unrouted & ((position == out) | np.isnan(position))
            np.copyto(d_position, grad_out, where=first)
            unrouted &= ~first
        return dx


class Flatten(Layer):
    def forward(self, x, training, rng=None):
        self.saved = x.shape
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))  # -1 is ambiguous with no rows

    def backward(self, grad_out):
        return grad_out.reshape(self.saved)
