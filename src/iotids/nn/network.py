"""Network specs (the two reference architectures) and the Network runtime."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import InputTooNarrow, ModelDataMismatch, ShapeMismatch
from ..jsontypes import bundle_field, has_type
from ..numerics import cross_entropy_mean, one_hot, softmax
from .functional import elastic_net_penalty
from .layers import BatchNorm, Conv1d, Dense, Dropout, Elu, Flatten, Layer, MaxPool1d, Relu, Softmax


@dataclass(frozen=True)
class NetworkSpec:
    input_width: int
    class_count: int
    layers: tuple[dict, ...]
    l1: float = 1e-5
    l2: float = 1e-5

    def to_dict(self) -> dict:
        return {
            "input_width": self.input_width,
            "class_count": self.class_count,
            "layers": list(self.layers),
            "l1": self.l1,
            "l2": self.l2,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        return cls(d["input_width"], d["class_count"], tuple(d["layers"]), d["l1"], d["l2"])


def build_ann(
    input_width: int,
    class_count: int,
    hidden: tuple[int, ...] = (128, 64, 32),
    dropout_rate: float = 0.2,
    elu_alpha: float = 1.0,
    l1: float = 1e-5,
    l2: float = 1e-5,
) -> NetworkSpec:
    """Three [dense -> batchnorm -> ELU -> dropout] blocks, then
    dense -> batchnorm -> softmax."""
    layers: list[dict] = []
    width = input_width
    for h in hidden:
        layers.append({"kind": "dense", "n_in": width, "n_out": h})
        layers.append({"kind": "batchnorm", "width": h})
        layers.append({"kind": "elu", "alpha": elu_alpha})
        layers.append({"kind": "dropout", "rate": dropout_rate})
        width = h
    layers.append({"kind": "dense", "n_in": width, "n_out": class_count})
    layers.append({"kind": "batchnorm", "width": class_count})
    layers.append({"kind": "softmax"})
    return NetworkSpec(input_width, class_count, tuple(layers), l1, l2)


def build_cnn(
    input_width: int,
    class_count: int,
    n_filters: int = 32,
    kernel_width: int = 3,
    pool: int = 2,
    dropout_rate: float = 0.25,
    hidden: int = 64,
    l1: float = 1e-5,
    l2: float = 1e-5,
) -> NetworkSpec:
    """One conv block (conv1d -> ReLU -> maxpool -> dropout), then
    flatten -> dense -> ReLU -> dense -> softmax over a 1-channel signal."""
    if input_width < kernel_width:
        raise InputTooNarrow(f"input width {input_width} < kernel width {kernel_width}")
    conv_len = input_width - kernel_width + 1
    pooled = conv_len // pool
    if pooled < 1:
        raise InputTooNarrow(f"pooling window {pool} leaves no output for length {conv_len}")
    layers = (
        {"kind": "conv1d", "in_channels": 1, "n_filters": n_filters, "kernel_width": kernel_width},
        {"kind": "relu"},
        {"kind": "maxpool", "pool": pool},
        {"kind": "dropout", "rate": dropout_rate},
        {"kind": "flatten"},
        {"kind": "dense", "n_in": pooled * n_filters, "n_out": hidden},
        {"kind": "relu"},
        {"kind": "dense", "n_in": hidden, "n_out": class_count},
        {"kind": "softmax"},
    )
    return NetworkSpec(input_width, class_count, layers, l1, l2)


def _materialize(desc: dict, rng: np.random.Generator) -> Layer:
    kind = desc["kind"]
    if kind == "dense":
        return Dense(desc["n_in"], desc["n_out"], rng)
    if kind == "batchnorm":
        return BatchNorm(desc["width"], desc.get("momentum", 0.9), desc.get("eps", 1e-5))
    if kind == "elu":
        return Elu(desc.get("alpha", 1.0))
    if kind == "relu":
        return Relu()
    if kind == "softmax":
        return Softmax()
    if kind == "dropout":
        return Dropout(desc["rate"])
    if kind == "conv1d":
        return Conv1d(desc["in_channels"], desc["n_filters"], desc["kernel_width"], rng)
    if kind == "maxpool":
        return MaxPool1d(desc["pool"])
    if kind == "flatten":
        return Flatten()
    raise ValueError(f"unknown layer kind {kind!r}")


def _check_layer_chain(spec: NetworkSpec) -> None:
    """Raise ModelDataMismatch unless every layer of spec is of a known kind
    and takes the shape the layers before it give: (width,) for a row,
    (length, channels) for a signal.  The input is (input_width,), or
    (input_width, 1) before a leading conv1d; the output is (class_count,)."""

    def size(value, name: str) -> int:
        if not has_type(value, int) or value < 1:
            raise ModelDataMismatch(f"network size {name!r} must be an int >= 1, got {value!r:.80}")
        return value

    if not has_type(list(spec.layers), list[dict]):
        raise ModelDataMismatch("network layers must be objects")
    shape: tuple[int, ...] = (size(spec.input_width, "input_width"),)
    if spec.layers and spec.layers[0].get("kind") == "conv1d":
        shape += (1,)
    for i, desc in enumerate(spec.layers):
        kind = desc.get("kind")
        if kind == "dense" and shape == (size(desc.get("n_in"), "n_in"),):
            shape = (size(desc.get("n_out"), "n_out"),)
        elif kind == "batchnorm" and shape == (size(desc.get("width"), "width"),):
            pass
        elif (kind == "conv1d" and len(shape) == 2 and shape[1] == size(desc.get("in_channels"), "in_channels")
              and shape[0] >= size(desc.get("kernel_width"), "kernel_width")):
            shape = (shape[0] - desc["kernel_width"] + 1, size(desc.get("n_filters"), "n_filters"))
        elif kind == "maxpool" and len(shape) == 2 and shape[0] >= size(desc.get("pool"), "pool"):
            shape = (shape[0] // desc["pool"], shape[1])
        elif kind == "flatten":
            shape = (math.prod(shape),)
        elif kind not in ("elu", "relu", "dropout", "softmax"):
            raise ModelDataMismatch(f"network layer {i} ({kind!r}) does not take input of shape {shape}")
    if shape != (size(spec.class_count, "class_count"),):
        raise ModelDataMismatch(f"network output has shape {shape}, expected ({spec.class_count},)")


@dataclass
class Network:
    spec: NetworkSpec
    layers: list[Layer] = field(default_factory=list)

    @classmethod
    def initialize(cls, spec: NetworkSpec, rng: np.random.Generator) -> "Network":
        net = cls(spec, [_materialize(d, rng) for d in spec.layers])
        if not isinstance(net.layers[-1], Softmax):
            raise ShapeMismatch("layer stack must end in softmax")
        return net

    @property
    def n_features(self) -> int:
        return self.spec.input_width

    @property
    def n_classes(self) -> int:
        return self.spec.class_count

    # --- shape plumbing -----------------------------------------------------

    def _prepare(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.spec.input_width:
            raise ShapeMismatch(
                f"expected (n, {self.spec.input_width}) input, got {X.shape}"
            )
        if isinstance(self.layers[0], Conv1d):
            return X[:, :, None]  # single-channel 1D signal
        return X

    # --- forward / predict ----------------------------------------------------

    def forward(self, X: np.ndarray, training: bool = False, rng: np.random.Generator | None = None) -> np.ndarray:
        h = self._prepare(X)
        for layer in self.layers:
            h = layer.forward(h, training, rng)
        return h

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X, training=False)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)

    # --- parameters and state -------------------------------------------------

    def parameters(self) -> list[tuple[int, str, np.ndarray]]:
        out = []
        for i, layer in enumerate(self.layers):
            for name, value in layer.params.items():
                out.append((i, name, value))
        return out

    def penalized_weights(self) -> list[np.ndarray]:
        return [
            layer.params[name]
            for layer in self.layers
            for name in layer.penalized
        ]

    def snapshot(self) -> dict:
        state: dict = {}
        for i, layer in enumerate(self.layers):
            for name, value in layer.params.items():
                state[(i, name)] = value.copy()
            for name, value in layer.buffers().items():
                state[(i, name)] = value.copy()
        return state

    def restore(self, state: dict) -> None:
        for i, layer in enumerate(self.layers):
            for name in layer.params:
                layer.params[name] = state[(i, name)].copy()
            for name in layer.buffers():
                setattr(layer, name, state[(i, name)].copy())

    # --- loss and gradients -----------------------------------------------------

    def penalty(self) -> float:
        value, _ = elastic_net_penalty(self.penalized_weights(), self.spec.l1, self.spec.l2)
        return value

    def loss(self, X: np.ndarray, y: np.ndarray, training: bool = False, rng: np.random.Generator | None = None) -> float:
        probs = self.forward(X, training, rng)
        return cross_entropy_mean(probs, y) + self.penalty()

    def loss_and_gradients(
        self,
        X: np.ndarray,
        y: np.ndarray,
        training: bool = True,
        rng: np.random.Generator | None = None,
    ) -> tuple[float, list[np.ndarray]]:
        """Mean cross-entropy + elastic net, with gradients for parameters().

        Softmax and cross-entropy are fused: the gradient at the logits is
        (p - y_one_hot) / batch, which is exact and stable.
        """
        y = np.asarray(y, dtype=np.int64)
        h = self._prepare(X)
        body = self.layers[:-1]
        for layer in body:
            h = layer.forward(h, training, rng)
        probs = softmax(h)
        penalty, pen_grads = elastic_net_penalty(self.penalized_weights(), self.spec.l1, self.spec.l2)
        loss = cross_entropy_mean(probs, y) + penalty

        grad = (probs - one_hot(y, self.spec.class_count)) / X.shape[0]
        for layer in reversed(body):
            grad = layer.backward(grad)

        pen_iter = iter(pen_grads)
        grads: list[np.ndarray] = []
        for layer in self.layers:
            for name in layer.params:
                g = layer.grads[name]
                if name in layer.penalized:
                    g = g + next(pen_iter)
                grads.append(g)
        return loss, grads

    # --- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        params = [
            {"layer": i, "name": name, "shape": list(value.shape), "values": value.ravel().tolist()}
            for i, name, value in self.parameters()
        ]
        buffers = []
        for i, layer in enumerate(self.layers):
            for name, value in layer.buffers().items():
                buffers.append(
                    {"layer": i, "name": name, "shape": list(value.shape), "values": value.ravel().tolist()}
                )
        return {"spec": self.spec.to_dict(), "params": params, "buffers": buffers}

    @classmethod
    def from_dict(cls, d: dict) -> "Network":
        spec = NetworkSpec.from_dict(d["spec"])
        _check_layer_chain(spec)  # before initialize allocates every layer
        net = cls.initialize(spec, np.random.default_rng(0))
        entries = bundle_field(d, "params", list) + bundle_field(d, "buffers", list)
        state = {
            (e["layer"], e["name"]): np.asarray(e["values"], dtype=float).reshape(e["shape"]) for e in entries
        }
        # every parameter and buffer of the spec's layers, once, with its shape
        shapes = {k: v.shape for k, v in state.items()}
        if len(entries) != len(state) or shapes != {k: v.shape for k, v in net.snapshot().items()}:
            raise ModelDataMismatch("network parameters and buffers do not match its spec")
        net.restore(state)
        return net
