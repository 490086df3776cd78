"""Model definition and structural surgery.

A Network is an ordered list of layers (conv / relu / maxpool / flatten /
dense) plus the input geometry. Conv layers are addressed by a 1-based
ordinal l; masking, sub-network extraction and compaction all speak in
those ordinals. Networks are treated as immutable values: every mutation
returns a new Network.

Layer protocol. Each layer class carries the semantics of its kind, so the
functions below that walk a network are plain loops over its layers:

- ``forward(x) -> (y, saved)``: the output, plus all that ``backward``
  reads: a conv's or dense layer's input, a relu's bool mask ``x > 0``, a
  maxpool's int8 winners, a flatten's input shape. A training step keeps
  only these, so the conv outputs that feed the relus and the relu outputs
  that feed the maxpools are freed as soon as the next layer has read them;
- ``backward(saved, g, input_grad) -> (g_in, grads)``: the gradient wrt the
  input, and ``(grad_weights, grad_bias)`` for a parametric layer, else
  None; a layer may return None for ``g_in`` when ``input_grad`` is False
  (the network's first layer, whose input gradient nobody reads);
- ``out_shape(shape)``: the per-sample output shape (channel-first, no
  batch dim) for an input shape, or a GeometryError that says why the layer
  cannot take it. This one rule builds networks, checks loaded models and
  gives ``count_flops`` its positions;
- ``fields()`` and the classmethod ``from_entry(entry, path, where)``: the
  layer's fields in the model manifest, and the read of entry ``where``
  (``layers[i]``), whose integer fields, named with their smallest valid
  values in ``int_fields``, ``load_model`` has checked.

Conv and dense layers are parametric: ``arrays()`` gives their weights and
bias, which are saved as one blob, ``compacted`` drops pruned channels,
and ``channel_operands(x, channels)`` splits the layer's linear map by
input channel for the Gram build of ``objectives``. Layer methods look
tensor ops up on the ``tensor`` module at call time, so a wrapper installed
on a module attribute (for timing, say) sees every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import tensor as T
from .exceptions import (
    GeometryError,
    MaskError,
    ModelFormatError,
    UnknownLayerError,
    check_fields,
    read_json_object,
)
from .tensor import ConvParams

MODEL_MANIFEST = "manifest.json"


class Layer:
    """Base of the layer protocol; the defaults suit a layer without
    parameters that keeps the shape of its input."""

    kind = ""
    parametric = False
    int_fields: dict[str, int] = {}

    def out_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        return shape

    def fields(self) -> dict:
        return {}

    @classmethod
    def from_entry(cls, entry: dict, path: Path, where: str) -> "Layer":
        return cls()


class ParametricLayer(Layer):
    """Conv or dense: ``arrays()`` gives [weights, bias], stored as one
    float64 blob."""

    parametric = True

    def blob(self) -> bytes:
        data = np.concatenate([a.ravel() for a in self.arrays()])
        return data.astype("<f8").tobytes()


@dataclass
class ConvLayer(ParametricLayer):
    kind = "conv"
    int_fields = {
        "out_channels": 1,
        "in_channels": 1,
        "kernel_h": 1,
        "kernel_w": 1,
        "stride": 1,
        "padding": 0,
    }
    params: ConvParams

    def arrays(self) -> list[np.ndarray]:
        return [self.params.weights, self.params.bias]

    def forward(self, x):
        return T.conv2d_forward(x, self.params), x

    def backward(self, x, g, input_grad=True):
        g_in, gw, gb = T.conv2d_backward(x, self.params, g, input_grad)
        return g_in, (gw, gb)

    def out_shape(self, shape):
        if len(shape) != 3 or shape[0] != self.params.in_channels:
            raise GeometryError(
                f"conv with {self.params.in_channels} input channels gets {shape}"
            )
        return (self.params.out_channels, *T.conv_output_hw(self.params, *shape[1:]))

    def channel_operands(self, x, channels):
        """The [N, C, Ho, Wo, kh, kw] windows of the input x under each
        output position, and the weights as [C, kh*kw, O]: the response of
        input channel c is windows[:, c] @ weights[c]."""
        p = self.params
        windows = T._windows(T._pad(x, p.padding), p)
        return windows, p.weights.transpose(1, 2, 3, 0).reshape(channels, -1, p.out_channels)

    def compacted(self, in_bits: np.ndarray | None, out_bits: np.ndarray | None):
        """Copy keeping the flagged input and output channels (None keeps all)."""
        p = self.params
        rows = np.arange(p.out_channels) if out_bits is None else np.flatnonzero(out_bits)
        cols = np.arange(p.in_channels) if in_bits is None else np.flatnonzero(in_bits)
        return ConvLayer(
            replace(
                p,
                out_channels=len(rows),
                in_channels=len(cols),
                weights=p.weights[np.ix_(rows, cols)],
                bias=p.bias[rows],
            )
        )

    def fields(self):
        return {name: getattr(self.params, name) for name in self.int_fields}

    @classmethod
    def from_entry(cls, entry, path, where):
        oc, ic, kh, kw, stride, padding = (entry[name] for name in cls.int_fields)
        n_w = oc * ic * kh * kw
        data = _read_blob(path, entry, n_w + oc, where)
        weights = data[:n_w].reshape(oc, ic, kh, kw)
        return cls(ConvParams(oc, ic, kh, kw, stride, padding, weights, data[n_w:]))


@dataclass
class ReluLayer(Layer):
    kind = "relu"

    def forward(self, x):
        return T.relu(x), x > 0

    def backward(self, mask, g, input_grad=True):
        # tensor.relu_backward on x, bit for bit: g times the saved x > 0
        return g * mask, None


@dataclass
class PoolLayer(Layer):
    kind = "maxpool"

    def forward(self, x):
        return T.maxpool2x2(x)

    def backward(self, winner, g, input_grad=True):
        return T.maxpool2x2_backward(winner, g), None

    def out_shape(self, shape):
        if len(shape) != 3 or shape[1] % 2 or shape[2] % 2:
            raise GeometryError(f"2x2 maxpool needs even spatial dims, gets {shape}")
        return (shape[0], shape[1] // 2, shape[2] // 2)


@dataclass
class FlattenLayer(Layer):
    kind = "flatten"

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, shape, g, input_grad=True):
        return g.reshape(shape), None

    def out_shape(self, shape):
        return (math.prod(shape),)


@dataclass
class DenseLayer(ParametricLayer):
    kind = "dense"
    int_fields = {"in_features": 1, "out_features": 1}
    weights: np.ndarray  # [D, O]
    bias: np.ndarray  # [O]

    def arrays(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    def forward(self, x):
        return T.dense_forward(x, self.weights, self.bias), x

    def backward(self, x, g, input_grad=True):
        g_in, gw, gb = T.dense_backward(x, self.weights, g)
        return g_in, (gw, gb)

    def out_shape(self, shape):
        if shape != (self.weights.shape[0],):
            raise GeometryError(
                f"dense with {self.weights.shape[0]} input features gets {shape}"
            )
        return (self.weights.shape[1],)

    def channel_operands(self, x, channels):
        """The input x, the row-major flatten of [C, H, W], as one output
        position whose window is the whole of each channel, [N, C, 1, 1, H*W],
        and the weights as [C, H*W, O]."""
        return x.reshape(x.shape[0], channels, 1, 1, -1), self._channel_rows(channels)

    def _channel_rows(self, channels: int) -> np.ndarray:
        # the [C, H*W, O] view of the weights: rows follow the flatten
        return self.weights.reshape(channels, -1, self.weights.shape[1])

    def compacted(self, in_bits: np.ndarray | None, out_bits: None = None):
        """Copy keeping the rows fed by the flagged channels of the preceding
        conv (None keeps all); outputs are never pruned."""
        bits = np.ones(1) if in_bits is None else in_bits
        rows = self._channel_rows(bits.shape[0])[np.flatnonzero(bits)]
        return DenseLayer(rows.reshape(-1, self.weights.shape[1]), self.bias.copy())

    def fields(self):
        return {
            "in_features": int(self.weights.shape[0]),
            "out_features": int(self.weights.shape[1]),
        }

    @classmethod
    def from_entry(cls, entry, path, where):
        d, o = entry["in_features"], entry["out_features"]
        data = _read_blob(path, entry, d * o + o, where)
        return cls(data[: d * o].reshape(d, o), data[d * o :])


LAYER_CLASSES = {
    cls.kind: cls for cls in (ConvLayer, ReluLayer, PoolLayer, FlattenLayer, DenseLayer)
}


@dataclass
class FilterMask:
    """Binary retain/prune vector over one conv layer's output filters."""

    bits: np.ndarray  # uint8 0/1
    layer_ordinal: int

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1:
            raise MaskError("mask bits must be a vector")
        if not self.bits.any():
            raise MaskError("mask must retain at least one filter")

    def check_width(self, filters: int) -> None:
        """Raise MaskError unless the mask has one bit per filter."""
        if self.bits.shape[0] != filters:
            raise MaskError(f"mask length {self.bits.shape[0]} != {filters} filters")


@dataclass
class Network:
    layers: list[Layer]
    input_shape: tuple[int, int, int]  # (C, H, W)

    @property
    def conv_positions(self) -> list[int]:
        """Layer-list indices of conv layers; entry l-1 is conv ordinal l."""
        return [i for i, lay in enumerate(self.layers) if lay.kind == "conv"]

    @property
    def num_convs(self) -> int:
        return len(self.conv_positions)

    def conv(self, ordinal: int) -> ConvLayer:
        pos = self.conv_positions
        if not 1 <= ordinal <= len(pos):
            raise UnknownLayerError(f"no conv layer with ordinal {ordinal}")
        return self.layers[pos[ordinal - 1]]


@dataclass
class SubNetwork:
    """Two-layer block: the conv being pruned, any interstitial relu/pool/
    flatten layers, and the next parametric (conv or dense) layer."""

    first: ConvLayer
    interstitial: list[Layer]
    second: ConvLayer | DenseLayer


# ---------------------------------------------------------------------------
# construction


def _he_conv(rng, out_c, in_c, k=3) -> ConvParams:
    """A k x k conv, stride 1, same padding: He-normal weights, zero bias."""
    weights = rng.normal(0.0, np.sqrt(2.0 / (in_c * k * k)), size=(out_c, in_c, k, k))
    return ConvParams(out_c, in_c, k, k, 1, k // 2, weights, np.zeros(out_c))


def build_cnn(
    conv_channels: list[int],
    pool_after: set[int],
    input_shape: tuple[int, int, int],
    num_classes: int = 10,
    seed: int = 0,
) -> Network:
    """3x3 conv-relu stacks with 2x2 maxpools after the listed conv ordinals,
    then flatten and a single classifier dense layer. He-style init."""
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    shape = input_shape  # per-sample input of the next layer
    for l, out_c in enumerate(conv_channels, start=1):
        block = [ConvLayer(_he_conv(rng, out_c, shape[0])), ReluLayer()]
        if l in pool_after:
            block.append(PoolLayer())
        try:
            for lay in block:
                shape = lay.out_shape(shape)
        except GeometryError as e:
            raise GeometryError(f"after conv {l}: {e}") from None
        layers += block
    flatten = FlattenLayer()
    (flat,) = flatten.out_shape(shape)
    weights = rng.normal(0.0, np.sqrt(2.0 / flat), size=(flat, num_classes))
    return Network([*layers, flatten, DenseLayer(weights, np.zeros(num_classes))], input_shape)


def build_vgg14(seed: int = 0) -> Network:
    """13-conv VGG backbone on 32x32x3 with a single 512->10 classifier."""
    channels = [64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512]
    return build_cnn(
        channels, pool_after={2, 4, 7, 10, 13}, input_shape=(3, 32, 32), seed=seed
    )


def build_toy_cnn(
    conv_channels=(8, 16, 16, 16),
    input_shape=(3, 8, 8),
    num_classes: int = 10,
    seed: int = 0,
) -> Network:
    """Small 4-conv network used throughout the desk-scale experiments."""
    n = len(conv_channels)
    pool_after = {n // 2, n} if n >= 2 else {n}
    return build_cnn(list(conv_channels), pool_after, input_shape, num_classes, seed)


# ---------------------------------------------------------------------------
# forward passes


def forward(
    net: Network, batch: np.ndarray, capture: set[int] | frozenset[int] = frozenset()
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Full forward pass; records the tensor flowing INTO each requested
    conv ordinal. Each layer's saved entry is dropped as that layer
    returns, so a layer's input, unless captured, is freed then."""
    capture = set(capture)
    bad = capture - set(range(1, net.num_convs + 1))
    if bad:
        raise UnknownLayerError(f"capture ordinals {sorted(bad)} out of range")
    at = {pos: l for l, pos in enumerate(net.conv_positions, start=1) if l in capture}
    captured: dict[int, np.ndarray] = {}
    x = batch
    for i, lay in enumerate(net.layers):
        if i in at:
            captured[at[i]] = x
        x = lay.forward(x)[0]
    return x, captured


def forward_cached(net: Network, batch: np.ndarray) -> tuple[np.ndarray, list]:
    """Forward pass keeping, per layer, what its backward reads."""
    x = batch
    saved: list = []
    for lay in net.layers:
        x, keep = lay.forward(x)
        saved.append(keep)
    return x, saved


def backward(net: Network, saved: list, grad_logits: np.ndarray):
    """Backprop through a cached forward pass.

    Takes saved over from the caller: each layer's entry is popped off it
    before that layer's backward reads it, so it is freed as soon as that
    backward returns, and saved is empty when this returns.

    Returns {layer_index: (grad_weights, grad_bias)} for parametric layers.
    """
    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    g = grad_logits
    for i in range(len(net.layers) - 1, -1, -1):
        g, layer_grads = net.layers[i].backward(saved.pop(), g, input_grad=i > 0)
        if layer_grads is not None:
            grads[i] = layer_grads
    return grads


# ---------------------------------------------------------------------------
# masking / sub-networks


def apply_mask(net: Network, mask: FilterMask) -> Network:
    """Zero out the pruned output-channel slices (weights and bias) of conv
    layer mask.layer_ordinal; returns a new network."""
    p = net.conv(mask.layer_ordinal).params
    mask.check_width(p.out_channels)
    keep = mask.bits.astype(np.float64)
    new_params = replace(
        p, weights=p.weights * keep[:, None, None, None], bias=p.bias * keep
    )
    layers = list(net.layers)
    layers[net.conv_positions[mask.layer_ordinal - 1]] = ConvLayer(new_params)
    return Network(layers, net.input_shape)


def extract_subnetwork(net: Network, ordinal: int) -> SubNetwork:
    first = net.conv(ordinal)
    i = net.conv_positions[ordinal - 1]
    interstitial: list[Layer] = []
    for lay in net.layers[i + 1 :]:
        if lay.parametric:
            return SubNetwork(first, interstitial, lay)
        interstitial.append(lay)
    raise UnknownLayerError(f"conv {ordinal} has no following parametric layer")


def subnetwork_tail_forward(sub: SubNetwork, first_out: np.ndarray) -> np.ndarray:
    """Forward from the first layer's output through interstitial + second."""
    x = first_out
    for lay in sub.interstitial:
        x = lay.forward(x)[0]
    return sub.second.forward(x)[0]


def subnetwork_forward(
    sub: SubNetwork, map_l: np.ndarray, mask: FilterMask | None = None
) -> np.ndarray:
    out = T.conv2d_forward(map_l, sub.first.params)
    if mask is not None:
        mask.check_width(sub.first.params.out_channels)
        # zeroing the whole output channel equals masking weights+bias
        out = out * mask.bits.astype(np.float64)[None, :, None, None]
    return subnetwork_tail_forward(sub, out)


# ---------------------------------------------------------------------------
# compaction


def activation_shapes(net: Network) -> list[tuple[int, ...]]:
    """Per-layer input shape (channel-first, no batch dim), then the
    network's output shape."""
    shapes: list[tuple[int, ...]] = [net.input_shape]
    for lay in net.layers:
        shapes.append(lay.out_shape(shapes[-1]))
    return shapes


def compact(net: Network, masks: dict[int, FilterMask]) -> Network:
    """Physically remove pruned channels and the coupled input slices of the
    next parametric layer. Forward outputs equal the masked network exactly."""
    pos = net.conv_positions
    for l, m in masks.items():
        if not 1 <= l <= len(pos):
            raise MaskError(f"mask ordinal {l} out of range")
        m.check_width(net.conv(l).params.out_channels)
    ordinal = {p: l for l, p in enumerate(pos, start=1)}
    layers: list[Layer] = []
    bits = None  # retained-channel flags of the last conv, if it was masked
    for i, lay in enumerate(net.layers):
        if lay.parametric:
            out_bits = masks[ordinal[i]].bits if ordinal.get(i) in masks else None
            lay = lay.compacted(bits, out_bits)
            bits = out_bits
        layers.append(lay)
    return Network(layers, net.input_shape)


# ---------------------------------------------------------------------------
# accounting


def count_params(net: Network) -> int:
    return int(sum(a.size for lay in net.layers if lay.parametric for a in lay.arrays()))


def count_flops(net: Network) -> int:
    """Forward FLOPs, one multiply-accumulate counted as 2 operations: every
    weight of a conv or dense layer does one per output position."""
    outs = activation_shapes(net)[1:]
    parametric = [(lay, out) for lay, out in zip(net.layers, outs) if lay.parametric]
    return int(sum(2 * lay.arrays()[0].size * math.prod(out[1:]) for lay, out in parametric))


# ---------------------------------------------------------------------------
# serialization: directory with a JSON manifest plus one little-endian
# float64 blob per parametric layer (weights row-major, then bias)


def save_model(net: Network, path: str | Path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "format": "smoea-model",
        "endianness": "little",
        "dtype": "float64",
        "input_shape": list(net.input_shape),
        "num_layers": len(net.layers),
        "layers": [],
    }
    blob_idx = 0
    for lay in net.layers:
        entry = {"kind": lay.kind, **lay.fields()}
        if lay.parametric:
            entry["blob"] = f"layer_{blob_idx:02d}.bin"
            (path / entry["blob"]).write_bytes(lay.blob())
            blob_idx += 1
        manifest["layers"].append(entry)
    (path / MODEL_MANIFEST).write_text(json.dumps(manifest, indent=2))


def load_model(path: str | Path) -> Network:
    path = Path(path)
    manifest = read_json_object(path / MODEL_MANIFEST, ModelFormatError, "model manifest")
    # endianness and dtype may be left out
    fields = {"endianness": "little", "dtype": "float64", **manifest}
    check = partial(check_fields, error=ModelFormatError)
    check(fields, ("smoea-model",), ("format",))
    check(fields, ("little",), ("endianness",))
    check(fields, ("float64",), ("dtype",))
    check(fields, "a list of 3 integers", ("input_shape",), low=1)
    check(fields, "a list", ("layers",))
    check(fields, "an integer", ("num_layers",))
    check(fields, (len(fields["layers"]),), ("num_layers",))
    layers: list[Layer] = []
    in_shape = tuple(fields["input_shape"])  # per-sample input of the next layer
    for i, entry in enumerate(fields["layers"]):
        where = f"layers[{i}]"
        check({where: entry}, "an object", (where,))
        check(entry, tuple(LAYER_CLASSES), ("kind",), section=where)
        cls = LAYER_CLASSES[entry["kind"]]
        for name, low in cls.int_fields.items():
            check(entry, "an integer", (name,), low=low, section=where)
        lay = cls.from_entry(entry, path, where)
        try:
            in_shape = lay.out_shape(in_shape)
        except GeometryError as e:
            raise ModelFormatError(f"{where} ({cls.kind}): {e}") from None
        layers.append(lay)
    return Network(layers, tuple(fields["input_shape"]))


def _read_blob(path: Path, entry: dict, expected: int, where: str) -> np.ndarray:
    """The `expected` values of the blob that manifest entry `where` names."""
    name = entry.get("blob")
    if not isinstance(name, str) or Path(name).name != name or not (path / name).is_file():
        raise ModelFormatError(f"{where}.blob must be a file of the model, got {name!r}")
    raw, size = (path / name).read_bytes(), expected * 8
    if len(raw) != size:
        raise ModelFormatError(f"{where}.blob {name!r} must hold {size} bytes, got {len(raw)}")
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise ModelFormatError(f"{where}.blob {name!r} must hold no NaN or infinite value")
    return values
