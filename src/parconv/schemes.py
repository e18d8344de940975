"""Parallel training schemes as fabric programs, plus the single-worker reference.

A plan (d data shards) x (m model columns) lays out d*m workers on a grid:
worker (i, j) = replica i, column j, flat id i*m + j. One step:

  * each replica's columns run the column engine on the replica's contiguous
    shard of the global batch (model parallelism: slice compute, all-to-all
    slice exchange at every cross layer, symmetric exchange of gradient
    pieces on the way back);
  * per column, the d same-column workers reduce their gradients to the
    column root (replica 0), which applies the SGD update and broadcasts the
    column's parameters back (data parallelism).

Losses and gradients are normalised by the *global* batch size everywhere,
so the reduced gradient equals the single-worker full-batch mean gradient
and every plan follows the same optimisation trajectory update-for-update.

The loss scalar returned by each worker is host-side telemetry (the readback
a real rig does for logging); it does not travel on the inter-device fabric
and is not ledgered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .errors import ShapeError, ValidationError
from .fabric import Fabric, Worker
from .kernels import (
    SgdState,
    conv2d_backward,
    conv2d_forward,
    fc_backward,
    fc_forward,
    maxpool_backward,
    maxpool_forward,
    relu_backward,
    relu_forward,
    sgd_step,
    softmax_xent_scaled,
)
from .netdef import (
    WIRE_ELEMENT_SIZE,
    ColumnizedSpec,
    ColumnLayer,
    Conv,
    FC,
    MaxPool,
    NetworkSpec,
    ReLU,
    columnize,
    config_lines,
)

ParamSet = dict[int, dict[str, np.ndarray]]  # layer index -> {"w": ..., "b": ...}


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParallelPlan:
    """(data_shards, model_columns) grid plus designated conv cross layers."""

    data_shards: int = 1
    model_columns: int = 1
    cross_layers: tuple[int, ...] = ()

    def __post_init__(self):
        if self.data_shards < 1 or self.model_columns < 1:
            raise ValidationError("data_shards and model_columns must be >= 1")

    @property
    def workers(self) -> int:
        return self.data_shards * self.model_columns

    def worker_of(self, replica: int, column: int) -> int:
        return replica * self.model_columns + column

    def shard(self, batch: int) -> int:
        """Samples per replica: replica i takes the batch's i-th contiguous `shard`."""
        if batch < 1:
            raise ValidationError(f"batch size {batch}: a step needs a non-empty batch")
        if batch % self.data_shards != 0:
            raise ValidationError(
                f"batch size {batch} not divisible by {self.data_shards} data shards"
            )
        return batch // self.data_shards

    def describe(self) -> str:
        return f"d{self.data_shards}xm{self.model_columns}"


def parse_layer_list(text: str) -> tuple[int, ...]:
    """Layer indices from a comma- or space-separated list such as '3,6,8'."""
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise ValidationError(f"bad layer list {text!r}: expected integers like '3,6,8'") from None


def parse_plan(text: str) -> ParallelPlan:
    """Plan file format: `data_shards <d>`, `model_columns <m>`, `cross_layers <i,j,...>`."""
    fields = {"data_shards": 1, "model_columns": 1, "cross_layers": ()}
    for lineno, line in config_lines(text):
        key, *value = line.split(None, 1)
        key, value = key.lower(), "".join(value)
        if key not in fields:
            raise ValidationError(f"line {lineno}: unknown plan key {key!r}")
        try:
            fields[key] = parse_layer_list(value) if key == "cross_layers" else int(value)
        except (ValueError, ValidationError):
            raise ValidationError(f"line {lineno}: bad integer in {line!r}") from None
    return ParallelPlan(**fields)


def load_plan(path) -> ParallelPlan:
    return parse_plan(Path(path).read_text(encoding="utf-8"))


def plan_columnized(net: NetworkSpec, plan: ParallelPlan) -> ColumnizedSpec:
    return columnize(net, plan.model_columns, plan.cross_layers)


# ---------------------------------------------------------------------------
# Parameters: dense init, column split, merge back
# ---------------------------------------------------------------------------

def init_dense_params(net: NetworkSpec, seed: int) -> ParamSet:
    """Gaussian weights and zero biases, drawn layer by layer from the seed's
    init substream in the dense layout, so every plan starts from the same
    underlying network.

    Each layer's std is fan-in scaled (sqrt(2 / fan_in)). Desk-sized layers
    have fan-ins far below ImageNet-scale ones, where a flat 0.01 leaves
    gradients too small to train in a handful of epochs.
    """
    stream = rng.derive(seed, rng.DOMAIN_INIT)
    dense = columnize(net, 1)
    params: ParamSet = {}
    for cl in dense.param_layers():
        fan_in = math.prod(cl.weight_shape) // math.prod(cl.bias_shape)
        w = stream.gauss_array(cl.weight_shape, std=math.sqrt(2.0 / fan_in))
        b = np.zeros(cl.bias_shape, dtype=np.float64)
        params[cl.index] = {"w": w, "b": b}
    return params


def split_params(dense: ParamSet, cs: ColumnizedSpec, column: int) -> ParamSet:
    """Column `column`'s part of a dense parameter set, as views into `dense`:
    the one map between the two layouts. A shared head layer is owned whole;
    a split layer owns the block of output channels or units given by its
    bias length, and a grouped conv also the block of input channels it reads.
    """
    out: ParamSet = {}
    for cl in cs.param_layers():
        w, b = dense[cl.index]["w"], dense[cl.index]["b"]
        if not cl.shared:
            n, c = cl.bias_shape[0], cl.weight_shape[1]
            own = slice(column * n, (column + 1) * n)
            reads = slice(column * c, (column + 1) * c) if cl.grouped else slice(None)
            w = w[own, reads] if isinstance(cl.layer, Conv) else w[:, own]
            b = b[own]
        out[cl.index] = {"w": w, "b": b}
    return out


def merge_params(per_column: list[ParamSet], cs: ColumnizedSpec) -> ParamSet:
    """Reassemble column parameters into the dense layout (inverse of
    split_params), as fresh arrays written through split_params' views.

    Every layout merges: a grouped layer's dense weight is block-diagonal,
    zero outside each column's block, and computes what the columns compute.
    Raises unless there is one set per column and every column holds the
    same copy of the replicated head.
    """
    m = cs.columns
    if len(per_column) != m:
        raise ValidationError(f"merge_params needs {m} column sets, got {len(per_column)}")
    out: ParamSet = {
        cl.index: {"w": np.zeros(cl.weight_shape), "b": np.zeros(cl.bias_shape)}
        for cl in columnize(cs.base, 1).param_layers()
    }
    for column, params in enumerate(per_column):
        for idx, view in split_params(out, cs, column).items():
            for k in ("w", "b"):  # a head layer (shared) already holds column 0's copy
                if column and idx >= cs.head_index and not np.array_equal(view[k], params[idx][k]):
                    raise ValidationError(
                        f"layer {idx}: replicated head copies diverged across columns"
                    )
                view[k][...] = params[idx][k]
    return out


def pack_tree(tree: ParamSet, cs: ColumnizedSpec) -> np.ndarray:
    """Flatten to one vector in canonical order (ascending layer, weights then bias)."""
    chunks = []
    for cl in cs.param_layers():
        chunks.append(tree[cl.index]["w"].ravel())
        chunks.append(tree[cl.index]["b"].ravel())
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.float64)


def unpack_tree(flat: np.ndarray, cs: ColumnizedSpec) -> ParamSet:
    """Per-layer views into a vector in pack_tree order; writes to either side show in both."""
    if flat.size != cs.column_param_count:
        raise ValidationError(
            f"packed parameter vector has {flat.size} elements, "
            f"expected {cs.column_param_count}"
        )
    out: ParamSet = {}
    pos = 0
    for cl in cs.param_layers():
        nw = math.prod(cl.weight_shape)
        nb = math.prod(cl.bias_shape)
        w = flat[pos : pos + nw].reshape(cl.weight_shape)
        pos += nw
        b = flat[pos : pos + nb].reshape(cl.bias_shape)
        pos += nb
        out[cl.index] = {"w": w, "b": b}
    return out


def params_as_lists(params: ParamSet, cs: ColumnizedSpec) -> list[np.ndarray]:
    out = []
    for cl in cs.param_layers():
        out.append(params[cl.index]["w"])
        out.append(params[cl.index]["b"])
    return out


def lists_as_params(values: list[np.ndarray], cs: ColumnizedSpec) -> ParamSet:
    out: ParamSet = {}
    it = iter(values)
    for cl in cs.param_layers():
        out[cl.index] = {"w": next(it), "b": next(it)}
    return out


# ---------------------------------------------------------------------------
# Column engine
# ---------------------------------------------------------------------------


class FabricExchange:
    """All-to-all slice exchange among one replica's m columns."""

    def __init__(self, ctx: Worker, replica: int, column: int, m: int):
        self.ctx = ctx
        self.column = column
        self.m = m
        self.peers = [replica * m + k for k in range(m)]

    def cross_forward(self, index: int, a: np.ndarray) -> np.ndarray:
        tag = ("xf", index)
        for k in range(self.m):
            if k != self.column:
                self.ctx.send(self.peers[k], tag, a)
        parts = [
            a if k == self.column else self.ctx.recv(self.peers[k], tag)
            for k in range(self.m)
        ]
        return np.concatenate(parts, axis=1)

    def cross_backward(self, index: int, g_full: np.ndarray) -> np.ndarray:
        tag = ("xb", index)
        width = g_full.shape[1] // self.m
        pieces = [g_full[:, k * width : (k + 1) * width] for k in range(self.m)]
        for k in range(self.m):
            if k != self.column:
                self.ctx.send(self.peers[k], tag, pieces[k])
        acc: np.ndarray | None = None
        for k in range(self.m):
            piece = pieces[self.column] if k == self.column else self.ctx.recv(self.peers[k], tag)
            acc = np.array(piece, copy=True) if acc is None else acc + piece
        return acc


def _layer(cl: ColumnLayer, params: ParamSet, a: np.ndarray, first: bool):
    """One column layer's forward and backward, side by side, as a generator.

    next() yields the layer's output on input `a`; sending it the output's
    gradient yields (input gradient, {"w", "b"} gradients or None). `first`
    marks the column's first layer, whose input gradient (w.r.t. the image)
    is never used. The kernels are looked up in this module at each call.
    """
    layer, grad = cl.layer, None
    if isinstance(layer, Conv):
        w, b = params[cl.index]["w"], params[cl.index]["b"]
        g = yield conv2d_forward(a, w, b, layer.stride, layer.pad)
        g_in, gw, gb = conv2d_backward(a, w, g, layer.stride, layer.pad, input_grad=not first)
        grad = {"w": gw, "b": gb}
    elif isinstance(layer, FC):
        w, b = params[cl.index]["w"], params[cl.index]["b"]
        g = yield fc_forward(a.reshape(a.shape[0], -1), w, b)
        g_in, gw, gb = fc_backward(a.reshape(a.shape[0], -1), w, g)
        g_in, grad = g_in.reshape(a.shape), {"w": gw, "b": gb}
    elif isinstance(layer, ReLU):
        g = yield relu_forward(a)
        g_in = relu_backward(a, g)
    elif isinstance(layer, MaxPool):
        out, argmax = maxpool_forward(a, layer.kernel, layer.stride)
        g = yield out
        g_in = maxpool_backward(a, layer.kernel, layer.stride, g, argmax)
    else:  # SoftmaxXent, always last: its flattened input is the logits
        g = yield a.reshape(a.shape[0], -1)
        g_in = g.reshape(a.shape)
    yield g_in, grad


def column_forward(
    cs: ColumnizedSpec,
    params: ParamSet,
    x: np.ndarray,
    exchange: FabricExchange | None,
) -> tuple[np.ndarray, list, list[int]]:
    """One column's forward pass up to the loss layer.

    Returns (logits, layers, kept): layers holds, per column layer, its
    `_layer` generator suspended after the forward, which column_fwd_bwd
    resumes for the backward; kept is the element count of each activation
    the step keeps (the input, each cross layer's concatenation and each
    layer's output, in that order), as worker_footprint_bytes counts them.
    `exchange` is None when the network has one column, which never crosses.
    """
    a = x
    kept = [a.size]
    layers = []
    for cl in cs.col_layers:
        if cl.cross:
            a = exchange.cross_forward(cl.index, a)
            kept.append(a.size)
        layer = _layer(cl, params, a, not layers)
        a = next(layer)
        kept.append(a.size)  # at the loss layer: its logits-sized workspace
        layers.append(layer)
    return a, layers, kept


def column_fwd_bwd(
    cs: ColumnizedSpec,
    params: ParamSet,
    x: np.ndarray,
    labels: np.ndarray,
    loss_scale: float,
    exchange: FabricExchange | None,
    meter_ctx: Worker | None = None,
) -> tuple[float, ParamSet]:
    """One column's forward + backward over a batch; returns (loss, gradients).

    The gradient of a replicated head layer is the full gradient (identical in
    every column); gradients of split layers cover only this column's slice.
    The kept activations are accounted on `meter_ctx` in one allocation and
    given back however the step exits. Each layer's generator is dropped once
    its backward has run, and with it the layer's input.
    """
    m = cs.columns
    accounted = 0
    try:
        logits, layers, kept = column_forward(cs, params, x, exchange)
        if meter_ctx is not None:
            accounted = meter_ctx.alloc(sum(kept))
        loss, g = softmax_xent_scaled(logits, labels, loss_scale)
        grads: ParamSet = {}
        for cl in reversed(cs.col_layers):
            g, grad = layers.pop().send(g)
            if grad is not None:
                grads[cl.index] = grad
            if cl.cross:
                g = exchange.cross_backward(cl.index, g / m if cl.shared else g)
    finally:
        if accounted:
            meter_ctx.free_bytes(accounted)
    return loss, grads


# ---------------------------------------------------------------------------
# Step results and fabric programs
# ---------------------------------------------------------------------------


@dataclass
class StepResult:
    """Outcome of one synchronous update."""

    loss: float
    ledger_bytes: int = 0
    ledger_messages: int = 0
    params: ParamSet | None = None  # updated dense params (reference path only)
    velocity: list[np.ndarray] | None = None  # updated velocity (reference path only)


def reference_step(
    net: NetworkSpec,
    params: ParamSet,
    batch: tuple[np.ndarray, np.ndarray],
    sgd: SgdState,
    velocity: list[np.ndarray] | None = None,
) -> StepResult:
    """Full-batch forward/backward/update on one worker; the oracle for all schemes.

    `velocity` holds one tensor per parameter tensor in params_as_lists order
    (None: all zeros, the first step). The updated parameters and velocity
    are returned as fresh arrays; the arguments are left unchanged.
    """
    cs = columnize(net, 1)
    x, labels = batch
    if x.shape[0] < 1:
        raise ValidationError("reference_step needs a non-empty batch")
    loss, grads = column_fwd_bwd(cs, params, x, np.asarray(labels), 1.0 / x.shape[0], None)
    plist = [p.copy() for p in params_as_lists(params, cs)]
    vlist = [np.zeros_like(p) for p in plist] if velocity is None else [v.copy() for v in velocity]
    if len(vlist) != len(plist):
        raise ShapeError(
            f"reference_step: {len(vlist)} velocity tensors for {len(plist)} parameters"
        )
    for p, g, v in zip(plist, params_as_lists(grads, cs), vlist):
        sgd_step(p, g, v, sgd)
    return StepResult(loss=loss, params=lists_as_params(plist, cs), velocity=vlist)


def setup_workers(
    fabric: Fabric,
    plan: ParallelPlan,
    cs: ColumnizedSpec,
    dense_params: ParamSet,
    sgd: SgdState,
) -> None:
    """Distribute column parameter slices (and column-root velocities) to workers.

    Each worker keeps its parameters as one flat vector in pack_tree order,
    plus per-layer views of it for the engine; the column root (replica 0)
    also keeps a velocity vector of the same layout, which it updates with
    `sgd`. Each also records the layout (plan, cs), which every later call
    must pass again. Raises unless the fabric has the plan's workers and `cs`
    is `plan_columnized(net, plan)`: its column count and cross layers.
    """
    if fabric.n != plan.workers:
        raise ValidationError(
            f"plan grid {plan.describe()} needs {plan.workers} workers, fabric has {fabric.n}"
        )
    if cs != plan_columnized(cs.base, plan):
        raise ValidationError(
            f"columnized spec ({cs.columns} columns, cross layers {sorted(cs.cross_layers)}) "
            f"is not plan_columnized(net, plan) for plan {plan.describe()} "
            f"with cross layers {list(plan.cross_layers)}"
        )
    m = plan.model_columns
    # built on the host: large buffers allocated in the short-lived worker
    # threads page-fault afresh on every set-up
    args = []
    for wid in range(fabric.n):
        flat = pack_tree(split_params(dense_params, cs, wid % m), cs)
        velocity = np.zeros_like(flat) if wid < m else None  # replica 0 roots each column
        args.append((flat, velocity))

    def program(ctx: Worker, flat: np.ndarray, velocity: np.ndarray | None):
        state = ctx.local
        ctx.free_bytes(state.get("accounted", 0))  # a previous set-up's vectors
        state.clear()
        # accounted first: a set-up that does not fit leaves the worker empty
        accounted = ctx.alloc(flat.size * (1 if velocity is None else 2))
        replica, column = divmod(ctx.wid, m)
        state.update(replica=replica, column=column, layout=(plan, cs), params=flat,
                     layers=unpack_tree(flat, cs), sgd=sgd, velocity=velocity, accounted=accounted)

    fabric.run(program, args)


def _state(ctx: Worker, plan: ParallelPlan, cs: ColumnizedSpec) -> dict:
    """The worker's state from setup_workers, the one layout check of every entry
    point; raises naming the worker if there is none, if it was set up for a
    layout other than (plan, cs), or if its last step stopped part way (its
    parameters may then differ from its replicas')."""
    if "params" not in ctx.local:
        raise ValidationError(f"worker {ctx.wid} has no parameters; run setup_workers first")
    if ctx.local["layout"] != (plan, cs):
        raise ValidationError(
            f"worker {ctx.wid} was set up for a different plan or network; "
            f"run setup_workers with this one first"
        )
    if "stepping" in ctx.local:
        raise ValidationError(
            f"worker {ctx.wid} did not finish its last step; run setup_workers first"
        )
    return ctx.local


def _check_batch(cs: ColumnizedSpec, x: np.ndarray, labels) -> np.ndarray:
    """The batch's labels as an array, once the batch fits the network: samples
    of its input shape, one integer label per sample, each in [0, classes).
    Raises a ValidationError naming the problem otherwise."""
    net = cs.base
    labels = np.asarray(labels)
    if x.shape[1:] != net.input_shape:
        raise ValidationError(f"samples of shape {x.shape[1:]}: {net.name} takes {net.input_shape}")
    if labels.shape != x.shape[:1]:
        raise ValidationError(
            f"labels of shape {labels.shape} for {x.shape[0]} samples: one label each"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValidationError(f"labels of dtype {labels.dtype}: class labels are integers")
    if labels.size and (labels.min() < 0 or labels.max() >= net.classes):
        raise ValidationError(
            f"labels must lie in [0, {net.classes}), got {labels.min()} to {labels.max()}"
        )
    return labels


def hybrid_step(
    fabric: Fabric,
    plan: ParallelPlan,
    cs: ColumnizedSpec,
    batch_x: np.ndarray,
    batch_y: np.ndarray,
) -> StepResult:
    """One synchronous update under an arbitrary d x m plan (the general engine).

    The batch is checked before any worker starts, so a bad one raises a
    ValidationError and leaves the fabric as it was.
    """
    d, m = plan.data_shards, plan.model_columns
    b = batch_x.shape[0]
    shard = plan.shard(b)
    labels = _check_batch(cs, batch_x, batch_y)
    loss_scale = 1.0 / b

    args = []
    for wid in range(fabric.n):
        replica = wid // m
        lo, hi = replica * shard, (replica + 1) * shard
        args.append((batch_x[lo:hi], labels[lo:hi]))

    before_b = fabric.ledger.total_bytes
    before_m = fabric.ledger.total_messages

    def program(ctx: Worker, shard_x, shard_y):
        state = _state(ctx, plan, cs)
        state["stepping"] = True  # until the step ends: a step cut short leaves it
        replica, column = state["replica"], state["column"]
        exchange = FabricExchange(ctx, replica, column, m) if m > 1 else None
        loss, grads = column_fwd_bwd(
            cs, state["layers"], shard_x, shard_y, loss_scale, exchange, ctx
        )
        # data-parallel leg: same-column workers combine gradients at the column root
        group = [r * m + column for r in range(d)]
        root = plan.worker_of(0, column)
        total = ctx.reduce_to_root(group, root, pack_tree(grads, cs))
        if ctx.wid == root:
            sgd_step(state["params"], total, state["velocity"], state["sgd"])
            ctx.broadcast_from_root(group, root, state["params"])
        else:  # in place, so the per-layer views follow
            state["params"][...] = ctx.broadcast_from_root(group, root, None)
        del state["stepping"]
        return loss

    results = fabric.run(program, args)
    total_loss = 0.0
    for replica in range(d):
        total_loss += results[plan.worker_of(replica, 0)]
    return StepResult(
        loss=total_loss,
        ledger_bytes=fabric.ledger.total_bytes - before_b,
        ledger_messages=fabric.ledger.total_messages - before_m,
    )


def gather_dense_params(fabric: Fabric, plan: ParallelPlan, cs: ColumnizedSpec) -> ParamSet:
    """Merge replica 0's column parameters back into the dense layout (fresh copies)."""
    results = fabric.run(lambda ctx: _state(ctx, plan, cs)["layers"])
    columns = [results[plan.worker_of(0, j)] for j in range(plan.model_columns)]
    return merge_params(columns, cs)


def evaluation_errors(
    fabric: Fabric,
    plan: ParallelPlan,
    cs: ColumnizedSpec,
    x: np.ndarray,
    labels: np.ndarray,
) -> int:
    """Misclassification count over a batch, computed on replica 0's columns.

    Forward-only; argmax ties break to the lowest class index. The exchange
    traffic is ledgered like any other fabric communication. The batch is
    checked as hybrid_step checks it, before any worker starts.
    """
    m = plan.model_columns
    labels = _check_batch(cs, x, labels)

    def program(ctx: Worker):
        state = _state(ctx, plan, cs)
        if state["replica"] != 0:
            return None
        column = state["column"]
        exchange = FabricExchange(ctx, 0, column, m) if m > 1 else None
        logits, _, _ = column_forward(cs, state["layers"], x, exchange)
        if column != 0:
            return None
        return int(np.count_nonzero(np.argmax(logits, axis=1) != labels))

    return fabric.run(program)[0]


# ---------------------------------------------------------------------------
# Communication closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommPhase:
    """One dependency-ordered communication phase of a step.

    max_node_bytes / max_node_messages are the largest per-worker
    same-direction load in the phase; disjoint link groups inside a phase
    proceed concurrently, so the phase's wall time is governed by the
    busiest worker.
    """

    label: str
    total_bytes: int
    total_messages: int
    max_node_bytes: int
    max_node_messages: int


def comm_phases(plan: ParallelPlan, cs: ColumnizedSpec, batch: int) -> list[CommPhase]:
    d, m = plan.data_shards, plan.model_columns
    shard = plan.shard(batch)
    cross = [  # (layer index, bytes one column sends one peer)
        (cl.index, shard * (math.prod(cl.in_shape) // m) * WIRE_ELEMENT_SIZE)
        for cl in cs.col_layers
        if cl.cross
    ]
    phases = [
        CommPhase(
            label=f"cross{index}-{way}",
            total_bytes=d * m * (m - 1) * pair_bytes,
            total_messages=d * m * (m - 1),
            max_node_bytes=(m - 1) * pair_bytes,
            max_node_messages=m - 1,
        )
        for way, layers in (("fwd", cross), ("bwd", cross[::-1]))
        for index, pair_bytes in layers
    ]
    if d > 1:
        col_bytes = cs.column_param_count * WIRE_ELEMENT_SIZE
        for label in ("grad-reduce", "param-broadcast"):
            phases.append(
                CommPhase(
                    label=label,
                    total_bytes=m * (d - 1) * col_bytes,
                    total_messages=m * (d - 1),
                    max_node_bytes=(d - 1) * col_bytes,
                    max_node_messages=d - 1,
                )
            )
    return phases


@dataclass(frozen=True)
class CommVolume:
    bytes: int
    messages: int


def comm_volume(plan: ParallelPlan, net: NetworkSpec, batch: int) -> CommVolume:
    """Closed-form bytes/messages per step; equals the measured ledger exactly."""
    cs = plan_columnized(net, plan)
    phases = comm_phases(plan, cs, batch)
    return CommVolume(
        bytes=sum(p.total_bytes for p in phases),
        messages=sum(p.total_messages for p in phases),
    )
