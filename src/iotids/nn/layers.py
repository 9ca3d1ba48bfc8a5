"""Layers with explicit forward/backward passes.

Every layer caches what its backward pass needs during forward; backward
consumes the cache, accumulates parameter gradients in `grads`, and returns
the gradient with respect to its input.  Dense inputs are (batch, width);
convolutional inputs are (batch, length, channels).
"""

from __future__ import annotations

import math

import numpy as np

from ..numerics import softmax as _softmax
from .functional import elu as _elu
from .functional import glorot_uniform, glorot_uniform_bound
from .functional import relu as _relu


class Layer:
    """Stateless base: no parameters, identity backward bookkeeping."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    # names of params that the elastic-net penalty applies to
    penalized: tuple[str, ...] = ()

    def forward(self, x: np.ndarray, training: bool, rng: np.random.Generator | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

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
        self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, grad_out):
        self.grads["W"] = self._x.T @ grad_out
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
            var = x.var(axis=0)
            self.running_mean = self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1.0 - self.momentum) * var
        else:
            mean, var = self.running_mean, self.running_var
        self._training = training
        self._inv_std = 1.0 / np.sqrt(var + self.eps)
        self._x_hat = (x - mean) * self._inv_std
        return self.params["gamma"] * self._x_hat + self.params["beta"]

    def backward(self, grad_out):
        x_hat, inv_std = self._x_hat, self._inv_std
        self.grads["gamma"] = (grad_out * x_hat).sum(axis=0)
        self.grads["beta"] = grad_out.sum(axis=0)
        g = grad_out * self.params["gamma"]
        if not self._training:
            return g * inv_std
        B = grad_out.shape[0]
        return (inv_std / B) * (B * g - g.sum(axis=0) - x_hat * (g * x_hat).sum(axis=0))


class Relu(Layer):
    def forward(self, x, training, rng=None):
        y, self._grad = _relu(x)
        return y

    def backward(self, grad_out):
        return grad_out * self._grad


class Elu(Layer):
    def __init__(self, alpha: float = 1.0):
        super().__init__()
        self.alpha = alpha

    def forward(self, x, training, rng=None):
        y, self._grad = _elu(x, self.alpha)
        return y

    def backward(self, grad_out):
        return grad_out * self._grad


class Softmax(Layer):
    def forward(self, x, training, rng=None):
        self._p = _softmax(x)
        return self._p

    def backward(self, grad_out):
        # Jacobian-vector product: dz_i = p_i * (g_i - sum_j p_j g_j)
        p = self._p
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
            self._mask = None
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        self._mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, grad_out):
        return grad_out if self._mask is None else grad_out * self._mask


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

    def forward(self, x, training, rng=None):
        self._x = x
        k = self.kernel_width
        # windows[b, l, c, j] = x[b, l + j, c]
        windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)
        self._windows = windows
        return np.einsum("blcj,fjc->blf", windows, self.params["K"]) + self.params["b"]

    def backward(self, grad_out):
        k = self.kernel_width
        self.grads["K"] = np.einsum("blf,blcj->fjc", grad_out, self._windows)
        self.grads["b"] = grad_out.sum(axis=(0, 1))
        dx = np.zeros_like(self._x)
        out_len = grad_out.shape[1]
        for j in range(k):
            dx[:, j : j + out_len, :] += grad_out @ self.params["K"][:, j, :]
        return dx


class MaxPool1d(Layer):
    """Non-overlapping max pooling along the length axis; remainder dropped.
    Gradient routes to the first maximal element of each window."""

    def __init__(self, pool: int = 2):
        super().__init__()
        self.pool = pool

    def forward(self, x, training, rng=None):
        B, L, C = x.shape
        L2 = L // self.pool
        self._in_shape = x.shape
        windows = x[:, : L2 * self.pool, :].reshape(B, L2, self.pool, C)
        self._argmax = windows.argmax(axis=2)
        return windows.max(axis=2)

    def backward(self, grad_out):
        B, L, C = self._in_shape
        L2 = grad_out.shape[1]
        dwin = np.zeros((B, L2, self.pool, C))
        np.put_along_axis(dwin, self._argmax[:, :, None, :], grad_out[:, :, None, :], axis=2)
        dx = np.zeros((B, L, C))
        dx[:, : L2 * self.pool, :] = dwin.reshape(B, L2 * self.pool, C)
        return dx


class Flatten(Layer):
    def forward(self, x, training, rng=None):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))  # -1 is ambiguous with no rows

    def backward(self, grad_out):
        return grad_out.reshape(self._in_shape)
