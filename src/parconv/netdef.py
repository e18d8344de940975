"""Network descriptions and their partitioning into columns.

A network is a straight line of layers over batch x channels x height x width
activations. Columnization splits it across m columns: every Conv, and every
FC below the classifier head, keeps 1/m of its filters/units in each column.
At a *cross layer* the columns exchange their activation slices and each one
consumes the full concatenation (concatenated in ascending column order);
everywhere else a layer consumes only its own column's slice.

Cross placement rules:
  * every FC layer is a cross point (the top fully connected layers are
    always densely wired across columns);
  * Conv cross points are chosen by the caller (at most one is typical);
  * the classifier head -- the last FC plus everything after it -- is shared:
    replicated in every column, fed by a final cross, so the class count
    never needs to divide m.

A split layer that consumes only its own column's slice is *grouped*. Without
grouped layers, as in every shipped plan, the columnized network is an exact
re-parameterization of the dense base network. With them it equals a dense
network whose grouped weights are block-diagonal, but dense training would
fill the off-block zeros, so the two trajectories part.

`columnize` is the one walk that derives layer geometry (per-sample input,
output and weight shapes) and the one that validates a network: building a
NetworkSpec runs it with m = 1, which is the dense network.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from typing import Union

from .errors import PartitionError, ValidationError
from .kernels import conv_output_size

WIRE_ELEMENT_SIZE = 4  # bytes per stored/transmitted scalar (models fp32 devices)
DEFAULT_MEMORY = 6 * 1024**3  # bytes of device memory when none is given


# ---------------------------------------------------------------------------
# Layer and network types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Conv:
    filters: int
    kernel: int
    stride: int = 1
    pad: int = 0


@dataclass(frozen=True)
class FC:
    units: int


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class MaxPool:
    kernel: int
    stride: int


@dataclass(frozen=True)
class SoftmaxXent:
    classes: int


LayerSpec = Union[Conv, FC, ReLU, MaxPool, SoftmaxXent]


# network-format keyword -> (layer type, its arguments as the format states
# them, display-name format over the layer); the arguments are the type's fields
_KINDS = {
    "conv": (Conv, "N k stride pad", "conv{0.filters}k{0.kernel}"),
    "relu": (ReLU, "no arguments", "relu"),
    "maxpool": (MaxPool, "k stride", "maxpool{0.kernel}s{0.stride}"),
    "fc": (FC, "U", "fc{0.units}"),
    "softmax": (SoftmaxXent, "K", "softmax{0.classes}"),
}


def _layer_name(layer: LayerSpec) -> str:
    return next(name for kind, _, name in _KINDS.values() if isinstance(layer, kind)).format(layer)


@dataclass(frozen=True)
class NetworkSpec:
    """Input shape (C, H, W) plus an ordered layer list, validated on construction."""

    name: str
    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        columnize(self, 1)

    def output_shapes(self) -> list[tuple[int, ...]]:
        return [cl.out_shape for cl in columnize(self, 1).col_layers]

    @property
    def classes(self) -> int:
        last = self.layers[-1]
        assert isinstance(last, SoftmaxXent)
        return last.classes


# ---------------------------------------------------------------------------
# Network config format
# ---------------------------------------------------------------------------


def config_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) for each non-blank line of a text
    input, with '#' and everything after it removed: the comment rule of every
    config format (networks, plans, cost params, observations)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_network(text: str, name: str = "net") -> NetworkSpec:
    """Parse the line-oriented network format.

    One declaration per line (see config_lines for comments):
        input C H W
        conv N k stride pad
        relu
        maxpool k stride
        fc U
        softmax K
    """
    input_shape: tuple[int, int, int] | None = None
    layers: list[LayerSpec] = []
    for lineno, line in config_lines(text):
        tokens = line.split()
        keyword, args = tokens[0].lower(), tokens[1:]
        try:
            ints = [int(a) for a in args]
        except ValueError:
            raise ValidationError(f"line {lineno}: non-integer argument in {line!r}") from None
        if keyword == "input":
            if input_shape is not None:
                raise ValidationError(f"line {lineno}: duplicate input declaration")
            if len(ints) != 3:
                raise ValidationError(f"line {lineno}: input takes C H W")
            input_shape = (ints[0], ints[1], ints[2])
            continue
        if input_shape is None:
            raise ValidationError(f"line {lineno}: 'input C H W' must come first")
        if keyword not in _KINDS:
            raise ValidationError(f"line {lineno}: unknown layer keyword {keyword!r}")
        kind, usage, _ = _KINDS[keyword]
        if len(ints) != len(fields(kind)):
            raise ValidationError(f"line {lineno}: {keyword} takes {usage}")
        layers.append(kind(*ints))
    if input_shape is None:
        raise ValidationError("missing 'input C H W' declaration")
    return NetworkSpec(name=name, input_shape=input_shape, layers=tuple(layers))


def load_network(path) -> NetworkSpec:
    from pathlib import Path

    p = Path(path)
    return parse_network(p.read_text(encoding="utf-8"), name=p.stem)


# ---------------------------------------------------------------------------
# Columnization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnLayer:
    """Geometry of one base layer as seen by a single column."""

    index: int
    layer: LayerSpec
    cross: bool  # this layer consumes the cross-exchanged full concatenation
    shared: bool  # parameters and compute replicated in every column
    grouped: bool  # split weight layer reading only this column's slice
    in_shape: tuple[int, ...]  # per-sample shape consumed (after any concat)
    out_shape: tuple[int, ...]  # per-sample shape produced by this column
    weight_shape: tuple[int, ...] | None = None
    bias_shape: tuple[int, ...] | None = None

    @property
    def name(self) -> str:
        return _layer_name(self.layer)

    @property
    def param_count(self) -> int:
        n = 0
        if self.weight_shape:
            n += math.prod(self.weight_shape)
        if self.bias_shape:
            n += math.prod(self.bias_shape)
        return n


@dataclass(frozen=True)
class ColumnizedSpec:
    """A network split into `columns` identical columns.

    cross_layers is the effective set (caller-designated Conv crosses plus the
    implicit FC / head crosses). All columns share one geometry, so a single
    ColumnLayer list describes each of them.
    """

    base: NetworkSpec
    columns: int
    cross_layers: frozenset[int]
    head_index: int
    col_layers: tuple[ColumnLayer, ...]

    @property
    def column_param_count(self) -> int:
        return sum(cl.param_count for cl in self.col_layers)

    def param_layers(self) -> list[ColumnLayer]:
        return [cl for cl in self.col_layers if cl.weight_shape is not None]


def _head_start(net: NetworkSpec) -> int:
    """Index where the shared head region begins: the last FC, else the softmax."""
    for i in range(len(net.layers) - 1, -1, -1):
        if isinstance(net.layers[i], FC):
            return i
    return len(net.layers) - 1


def _split(count: int, parts: int, what: str) -> int:
    """One column's share of a layer's `count` filters or units."""
    if count < 1:
        raise ValidationError(f"{what} must be positive")
    if count % parts != 0:
        raise PartitionError(f"{count} {what} not divisible by {parts} columns")
    return count // parts


def _geometry(
    layer: LayerSpec, shape: tuple[int, ...], parts: int
) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """(out_shape, weight_shape) of `layer` on a per-sample `shape` input when
    its filters or units are divided among `parts` columns."""
    if isinstance(layer, (Conv, MaxPool)):
        if len(shape) != 3:
            raise ValidationError(f"needs a CxHxW input, got shape {shape}")
        c, h, w = shape
        pad = layer.pad if isinstance(layer, Conv) else 0
        ho = conv_output_size(h, layer.kernel, layer.stride, pad)
        wo = conv_output_size(w, layer.kernel, layer.stride, pad)
        if isinstance(layer, MaxPool):
            return (c, ho, wo), None
        out_c = _split(layer.filters, parts, "filters")
        return (out_c, ho, wo), (out_c, c, layer.kernel, layer.kernel)
    if isinstance(layer, FC):
        out_u = _split(layer.units, parts, "units")
        return (out_u,), (math.prod(shape), out_u)
    if isinstance(layer, ReLU):
        return shape, None
    # SoftmaxXent
    if layer.classes < 2:
        raise ValidationError("softmax needs at least 2 classes")
    if math.prod(shape) != layer.classes:
        raise ValidationError(
            f"softmax over {layer.classes} classes fed by {math.prod(shape)} features"
        )
    return (layer.classes,), None


def columnize(net: NetworkSpec, m: int, cross_layers=()) -> ColumnizedSpec:
    """Split `net` into m columns with cross connections at `cross_layers`.

    The one walk that derives layer geometry (m = 1 is the dense network);
    raises ValidationError naming the layer when layers do not compose.
    `cross_layers` may only name Conv or FC layers below the head; FC layers
    and the head are cross points whether listed or not. Raises
    PartitionError when a split layer's filters/units are not divisible by m.
    """
    if len(net.input_shape) != 3 or any(e < 1 for e in net.input_shape):
        raise ValidationError(f"input shape must be three positive extents, got {net.input_shape}")
    if not net.layers:
        raise ValidationError("network has no layers")
    for i, layer in enumerate(net.layers):
        if not isinstance(layer, LayerSpec):
            raise ValidationError(f"layer {i}: unknown layer type {layer!r}")
    if not isinstance(net.layers[-1], SoftmaxXent):
        raise ValidationError("the last layer must be a softmax")
    if m < 1:
        raise PartitionError(f"column count must be >= 1, got {m}")
    requested = frozenset(int(i) for i in cross_layers)
    head = _head_start(net)
    n_layers = len(net.layers)
    for i in requested:
        if not 0 <= i < n_layers:
            raise PartitionError(f"cross layer {i} out of range 0..{n_layers - 1}")
        if not isinstance(net.layers[i], (Conv, FC)):
            raise PartitionError(
                f"cross layer {i} must be a conv or fc layer, not {_layer_name(net.layers[i])}"
            )
        if i == 0:
            raise PartitionError("layer 0 consumes the replicated network input; not a cross point")

    cols: list[ColumnLayer] = []
    full = True  # current activation is replicated/full in every column
    shape: tuple[int, ...] = net.input_shape
    for i, layer in enumerate(net.layers):
        if isinstance(layer, SoftmaxXent) and i != n_layers - 1:
            raise ValidationError(f"layer {i}: softmax must be the last layer")
        shared = i >= head
        cross = m > 1 and not full and (
            shared or isinstance(layer, FC) or (isinstance(layer, Conv) and i in requested)
        )
        if i in requested and not cross and m > 1:
            raise PartitionError(f"cross layer {i} already consumes a replicated activation")
        if cross:
            # concat of all columns' slices along the channel/unit axis
            shape = (shape[0] * m,) + shape[1:]
        try:
            out_shape, weight_shape = _geometry(layer, shape, 1 if shared else m)
        except ValidationError as err:
            name = _layer_name(layer)
            if isinstance(err, PartitionError):
                name = type(layer).__name__.lower()
            raise type(err)(f"layer {i} ({name}): {err}") from None
        grouped = m > 1 and weight_shape is not None and not (full or cross)
        cols.append(
            ColumnLayer(i, layer, cross, shared, grouped, shape, out_shape, weight_shape,
                        out_shape[:1] if weight_shape else None)
        )
        if isinstance(layer, (Conv, FC)):
            full = shared
        shape = out_shape

    return ColumnizedSpec(
        base=net,
        columns=m,
        cross_layers=frozenset(cl.index for cl in cols if cl.cross),
        head_index=head,
        col_layers=tuple(cols),
    )


# ---------------------------------------------------------------------------
# Accounting: parameters, FLOPs, activation bytes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerReport:
    index: int
    name: str
    out_shape: tuple[int, ...]
    params: int
    flops_forward: int
    flops_backward: int
    activation_bytes: int


@dataclass(frozen=True)
class ShapeReport:
    """Per-layer accounting at a given batch size (per column when columnized)."""

    rows: tuple[LayerReport, ...]
    batch: int

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_flops(self) -> int:
        return sum(r.flops_forward + r.flops_backward for r in self.rows)

    @property
    def total_activation_bytes(self) -> int:
        return sum(r.activation_bytes for r in self.rows)


def _layer_macs(cl: ColumnLayer, batch: int) -> int:
    """Multiply-accumulate count of one forward pass; zero for non-MAC layers.

    Every weight meets one input per output position (H'*W' for a conv, one
    for an FC layer)."""
    if cl.weight_shape is None:
        return 0
    return batch * math.prod(cl.weight_shape) * math.prod(cl.out_shape[1:])


def shape_report(net_or_cs: NetworkSpec | ColumnizedSpec, batch: int) -> ShapeReport:
    """FLOP convention: 1 MAC = 2 FLOPs forward; backward counted as 2x forward."""
    cs = columnize(net_or_cs, 1) if isinstance(net_or_cs, NetworkSpec) else net_or_cs
    if batch < 1:
        raise ValidationError("shape_report needs batch >= 1")
    rows = []
    for cl in cs.col_layers:
        fwd = 2 * _layer_macs(cl, batch)
        rows.append(
            LayerReport(
                index=cl.index,
                name=cl.name,
                out_shape=cl.out_shape,
                params=cl.param_count,
                flops_forward=fwd,
                flops_backward=2 * fwd,
                activation_bytes=batch * math.prod(cl.out_shape) * WIRE_ELEMENT_SIZE,
            )
        )
    return ShapeReport(rows=tuple(rows), batch=batch)


def column_footprint_elements(cs: ColumnizedSpec, per_device_batch: int) -> tuple[int, int]:
    """(param_elements, activation_elements) resident on one column's device.

    Activations are the step's forward cache: the replicated input, every
    layer's own output, and the concatenation buffer built at each cross
    layer. Gradient workspace is deliberately excluded.
    """
    params = cs.column_param_count
    acts = math.prod(cs.base.input_shape)
    for cl in cs.col_layers:
        acts += math.prod(cl.out_shape)
        if cl.cross:
            acts += math.prod(cl.in_shape)
    return params, acts * per_device_batch


def worker_footprint_bytes(
    cs: ColumnizedSpec, per_device_batch: int, holds_velocity: bool = True
) -> int:
    """Accounted resident bytes for one worker: params (+ velocity) + live activations."""
    params, acts = column_footprint_elements(cs, per_device_batch)
    state = params * (2 if holds_velocity else 1)
    return (state + acts) * WIRE_ELEMENT_SIZE
