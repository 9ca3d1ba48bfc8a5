"""Network specs (the two reference architectures) and the Network runtime."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import InputTooNarrow, ModelDataMismatch, ShapeMismatch
from ..jsontypes import bundle_field, value_problem
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


# each layer kind's class and descriptor fields, in its constructor's order
_LAYERS: dict[str, tuple[type[Layer], dict[str, type]]] = {
    "dense": (Dense, {"n_in": int, "n_out": int}),
    "batchnorm": (BatchNorm, {"width": int}),
    "elu": (Elu, {"alpha": float}),
    "relu": (Relu, {}),
    "softmax": (Softmax, {}),
    "dropout": (Dropout, {"rate": float}),
    "conv1d": (Conv1d, {"in_channels": int, "n_filters": int, "kernel_width": int}),
    "maxpool": (MaxPool1d, {"pool": int}),
    "flatten": (Flatten, {}),
}


def _build_layers(plan: list[tuple[type[Layer], list]], rng: np.random.Generator | None) -> list[Layer]:
    """The layers of a checked plan (see _layer_plan); dense and conv1d
    draw their weights from rng, or start at zero with no rng."""
    return [cls(*args, rng) if cls in (Dense, Conv1d) else cls(*args) for cls, args in plan]


def _layer_plan(spec: NetworkSpec) -> list[tuple[type[Layer], list]]:
    """The class and constructor arguments of each layer of spec, from a
    walk over shapes that allocates nothing; a failed check is
    ModelDataMismatch.  Each descriptor has a known kind and exactly its
    fields, each value of its type and range (jsontypes), and each layer
    takes the shape the layers before it give: (width,) for a row,
    (length, channels) for a signal, from (input_width,), or
    (input_width, 1) before a leading conv1d, to a final softmax over
    (class_count,)."""
    for name in ("input_width", "class_count"):
        problem = value_problem(name, getattr(spec, name), int)
        if problem:
            raise ModelDataMismatch(f"network {name!r} {problem}")
    shape: tuple[int, ...] = (spec.input_width,)
    if spec.layers and spec.layers[0].get("kind") == "conv1d":
        shape += (1,)
    plan = []
    for i, desc in enumerate(spec.layers):
        kind = desc.get("kind")
        if type(kind) is not str or kind not in _LAYERS:
            raise ModelDataMismatch(f"network layer {i} has unknown kind {kind!r:.80}")
        cls, fields = _LAYERS[kind]
        if desc.keys() != {"kind", *fields}:
            raise ModelDataMismatch(f"network layer {i} ({kind}) must have exactly the fields {sorted(fields)}")
        for name, hint in fields.items():
            problem = value_problem(name, desc[name], hint)
            if problem:
                raise ModelDataMismatch(f"network layer {i} ({kind}) {name!r} {problem}")
        if kind == "dense" and shape == (desc["n_in"],):
            shape = (desc["n_out"],)
        elif (kind == "conv1d" and len(shape) == 2 and shape[1] == desc["in_channels"]
              and shape[0] >= desc["kernel_width"]):
            shape = (shape[0] - desc["kernel_width"] + 1, desc["n_filters"])
        elif kind == "maxpool" and len(shape) == 2 and shape[0] >= desc["pool"]:
            shape = (shape[0] // desc["pool"], shape[1])
        elif kind == "flatten":
            shape = (math.prod(shape),)
        elif kind in ("dense", "conv1d", "maxpool") or kind == "batchnorm" and shape != (desc["width"],):
            raise ModelDataMismatch(f"network layer {i} ({kind}) does not take input of shape {shape}")
        plan.append((cls, [desc[name] for name in fields]))
    if not spec.layers or spec.layers[-1]["kind"] != "softmax" or shape != (spec.class_count,):
        raise ModelDataMismatch(f"network must end in a softmax over ({spec.class_count},), not over {shape}")
    return plan


@dataclass
class Network:
    spec: NetworkSpec
    layers: list[Layer] = field(default_factory=list)

    @classmethod
    def initialize(cls, spec: NetworkSpec, rng: np.random.Generator) -> "Network":
        return cls(spec, _build_layers(_layer_plan(spec), rng))

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
        """The output of a pass that is not differentiated: each layer drops
        what it saved for backward once it has produced its output, and a
        ReLU writes into its input when that is an array this pass made,
        never into X or an array a layer returned as-is or still holds."""
        h = self._prepare(X)
        owned = False  # h is this pass's own array, held by no layer
        for layer in self.layers:
            if owned and isinstance(layer, Relu):
                np.maximum(0.0, h, out=h)  # Relu.forward's operands, in place
                continue
            out = layer.forward(h, training, rng)
            layer.release()
            owned = owned or not np.may_share_memory(out, h)
            h = out
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
        (p - y_one_hot) / batch, which is exact and stable.  Each layer keeps
        what its forward saved until its backward has run, then drops it.
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
            layer.release()

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
        """The stored network.  Every stored shape is checked against the
        one the spec gives, and every value count against its shape, before
        any array is made; the layers then take the stored arrays, with no
        weight draw, so a load allocates what the bundle's bytes hold."""
        spec = NetworkSpec(**bundle_field(d, "spec", NetworkSpec))
        plan = _layer_plan(spec)
        expected = {
            (i, name): shape for i, (layer, args) in enumerate(plan) for name, shape in layer.state_shapes(*args).items()
        }
        entries = bundle_field(d, "params", list[_StoredArray]) + bundle_field(d, "buffers", list[_StoredArray])
        keys = [(e["layer"], e["name"]) for e in entries]
        # every parameter and buffer of the spec's layers, once, with its shape and as many values
        if (len(set(keys)) != len(keys) or set(keys) != expected.keys()
                or any(tuple(e["shape"]) != expected[key] or len(e["values"]) != math.prod(e["shape"])
                       for key, e in zip(keys, entries))):
            raise ModelDataMismatch("network parameters and buffers do not match its spec")
        net = cls(spec, _build_layers(plan, None))
        net.restore({key: np.asarray(e["values"], dtype=float).reshape(e["shape"]) for key, e in zip(keys, entries)})
        return net


@dataclass(frozen=True)
class _StoredArray:
    """One stored parameter or buffer of a network bundle."""

    layer: int
    name: str
    shape: list[int]
    values: list[float]
