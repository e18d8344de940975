"""Network descriptions, shape inference, and partitioning into columns.

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

With the shipped configurations every split layer consumes either the
network input or a full cross concatenation, which makes the columnized
network an exact re-parameterization of the dense base network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import PartitionError, ValidationError
from .kernels import conv_output_size

WIRE_ELEMENT_SIZE = 4  # bytes per stored/transmitted scalar (models fp32 devices)


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


def _layer_name(layer: LayerSpec) -> str:
    if isinstance(layer, Conv):
        return f"conv{layer.filters}k{layer.kernel}"
    if isinstance(layer, FC):
        return f"fc{layer.units}"
    if isinstance(layer, ReLU):
        return "relu"
    if isinstance(layer, MaxPool):
        return f"maxpool{layer.kernel}s{layer.stride}"
    return f"softmax{layer.classes}"


@dataclass(frozen=True)
class NetworkSpec:
    """Input shape (C, H, W) plus an ordered layer list, validated on construction."""

    name: str
    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        infer_shapes(self)

    def output_shapes(self) -> list[tuple[int, ...]]:
        return infer_shapes(self)

    @property
    def classes(self) -> int:
        last = self.layers[-1]
        assert isinstance(last, SoftmaxXent)
        return last.classes


def infer_shapes(net: NetworkSpec) -> list[tuple[int, ...]]:
    """Per-layer output shapes; raises ValidationError when layers do not compose."""
    if len(net.input_shape) != 3 or any(e < 1 for e in net.input_shape):
        raise ValidationError(f"input shape must be three positive extents, got {net.input_shape}")
    if not net.layers:
        raise ValidationError("network has no layers")
    if not isinstance(net.layers[-1], SoftmaxXent):
        raise ValidationError("the last layer must be a softmax")

    shape: tuple[int, ...] = net.input_shape
    shapes: list[tuple[int, ...]] = []
    for i, layer in enumerate(net.layers):
        if isinstance(layer, SoftmaxXent) and i != len(net.layers) - 1:
            raise ValidationError(f"layer {i}: softmax must be the last layer")
        try:
            shape = _apply_shape(layer, shape)
        except ValidationError as err:
            raise ValidationError(f"layer {i} ({_layer_name(layer)}): {err}") from None
        shapes.append(shape)
    return shapes


def _apply_shape(layer: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    if isinstance(layer, Conv):
        if len(shape) != 3:
            raise ValidationError(f"conv needs a CxHxW input, got shape {shape}")
        if layer.filters < 1 or layer.kernel < 1:
            raise ValidationError("conv extents must be positive")
        c, h, w = shape
        ho = conv_output_size(h, layer.kernel, layer.stride, layer.pad)
        wo = conv_output_size(w, layer.kernel, layer.stride, layer.pad)
        return (layer.filters, ho, wo)
    if isinstance(layer, MaxPool):
        if len(shape) != 3:
            raise ValidationError(f"maxpool needs a CxHxW input, got shape {shape}")
        c, h, w = shape
        ho = conv_output_size(h, layer.kernel, layer.stride, 0)
        wo = conv_output_size(w, layer.kernel, layer.stride, 0)
        return (c, ho, wo)
    if isinstance(layer, ReLU):
        return shape
    if isinstance(layer, FC):
        if layer.units < 1:
            raise ValidationError("fc units must be positive")
        return (layer.units,)
    if isinstance(layer, SoftmaxXent):
        flat = math.prod(shape)
        if layer.classes < 2:
            raise ValidationError("softmax needs at least 2 classes")
        if flat != layer.classes:
            raise ValidationError(
                f"softmax over {layer.classes} classes fed by {flat} features"
            )
        return (layer.classes,)
    raise ValidationError(f"unknown layer type {layer!r}")


# ---------------------------------------------------------------------------
# Network config format
# ---------------------------------------------------------------------------


def parse_network(text: str, name: str = "net") -> NetworkSpec:
    """Parse the line-oriented network format.

    One declaration per line, '#' starts a comment:
        input C H W
        conv N k stride pad
        relu
        maxpool k stride
        fc U
        softmax K
    """
    input_shape: tuple[int, int, int] | None = None
    layers: list[LayerSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
        if keyword == "conv":
            if len(ints) != 4:
                raise ValidationError(f"line {lineno}: conv takes N k stride pad")
            layers.append(Conv(ints[0], ints[1], ints[2], ints[3]))
        elif keyword == "relu":
            if ints:
                raise ValidationError(f"line {lineno}: relu takes no arguments")
            layers.append(ReLU())
        elif keyword == "maxpool":
            if len(ints) != 2:
                raise ValidationError(f"line {lineno}: maxpool takes k stride")
            layers.append(MaxPool(ints[0], ints[1]))
        elif keyword == "fc":
            if len(ints) != 1:
                raise ValidationError(f"line {lineno}: fc takes U")
            layers.append(FC(ints[0]))
        elif keyword == "softmax":
            if len(ints) != 1:
                raise ValidationError(f"line {lineno}: softmax takes K")
            layers.append(SoftmaxXent(ints[0]))
        else:
            raise ValidationError(f"line {lineno}: unknown layer keyword {keyword!r}")
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


def columnize(net: NetworkSpec, m: int, cross_layers=()) -> ColumnizedSpec:
    """Split `net` into m columns with cross connections at `cross_layers`.

    `cross_layers` may only name Conv or FC layers below the head; FC layers
    and the head are cross points whether listed or not. Raises
    PartitionError when a split layer's filters/units are not divisible by m.
    """
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
    effective: set[int] = set()
    full = True  # current activation is replicated/full in every column
    shape: tuple[int, ...] = net.input_shape
    for i, layer in enumerate(net.layers):
        shared = i >= head
        cross = not full and (
            shared or isinstance(layer, FC) or (isinstance(layer, Conv) and i in requested)
        )
        if i in requested and not cross and m > 1:
            raise PartitionError(f"cross layer {i} already consumes a replicated activation")
        if cross:
            # concat of all columns' slices along the channel/unit axis
            shape = (shape[0] * m,) + shape[1:]
            full = True
            effective.add(i)
        in_shape = shape

        if isinstance(layer, Conv):
            if not shared and layer.filters % m != 0:
                raise PartitionError(
                    f"layer {i} (conv): {layer.filters} filters not divisible by {m} columns"
                )
            out_c = layer.filters if shared else layer.filters // m
            c, h, w = in_shape
            ho = conv_output_size(h, layer.kernel, layer.stride, layer.pad)
            wo = conv_output_size(w, layer.kernel, layer.stride, layer.pad)
            out_shape = (out_c, ho, wo)
            cols.append(
                ColumnLayer(
                    i, layer, cross, shared, in_shape, out_shape,
                    weight_shape=(out_c, c, layer.kernel, layer.kernel),
                    bias_shape=(out_c,),
                )
            )
            full = shared
        elif isinstance(layer, FC):
            if not shared and layer.units % m != 0:
                raise PartitionError(
                    f"layer {i} (fc): {layer.units} units not divisible by {m} columns"
                )
            out_u = layer.units if shared else layer.units // m
            d = math.prod(in_shape)
            out_shape = (out_u,)
            cols.append(
                ColumnLayer(
                    i, layer, cross, shared, in_shape, out_shape,
                    weight_shape=(d, out_u), bias_shape=(out_u,),
                )
            )
            full = shared
        elif isinstance(layer, (ReLU, MaxPool)):
            if isinstance(layer, MaxPool):
                c, h, w = in_shape
                ho = conv_output_size(h, layer.kernel, layer.stride, 0)
                wo = conv_output_size(w, layer.kernel, layer.stride, 0)
                out_shape = (c, ho, wo)
            else:
                out_shape = in_shape
            cols.append(ColumnLayer(i, layer, cross, shared, in_shape, out_shape))
        else:  # SoftmaxXent: consumes the full logits, produces loss + workspace
            out_shape = (layer.classes,)
            cols.append(ColumnLayer(i, layer, cross, shared, in_shape, out_shape))
            full = True
        shape = cols[-1].out_shape

    if m == 1:
        effective = set()
        cols = [
            ColumnLayer(cl.index, cl.layer, False, cl.shared, cl.in_shape, cl.out_shape,
                        cl.weight_shape, cl.bias_shape)
            for cl in cols
        ]
    return ColumnizedSpec(
        base=net,
        columns=m,
        cross_layers=frozenset(effective),
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
    """Multiply-accumulate count of one forward pass; zero for non-MAC layers."""
    if isinstance(cl.layer, Conv):
        out_c, ho, wo = cl.out_shape
        in_c = cl.in_shape[0]
        return batch * out_c * in_c * cl.layer.kernel * cl.layer.kernel * ho * wo
    if isinstance(cl.layer, FC):
        return batch * math.prod(cl.in_shape) * cl.out_shape[0]
    return 0


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
