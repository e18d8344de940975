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
from .errors import ValidationError
from .fabric import Fabric, Worker
from .kernels import (
    ConvParams,
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
    SoftmaxXent,
    columnize,
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

    def describe(self) -> str:
        return f"d{self.data_shards}xm{self.model_columns}"


def parse_plan(text: str) -> ParallelPlan:
    """Plan file format: `data_shards <d>`, `model_columns <m>`, `cross_layers <i,j,...>`."""
    d, m = 1, 1
    cross: tuple[int, ...] = ()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split(None, 1)
        key = tokens[0].lower()
        value = tokens[1].strip() if len(tokens) > 1 else ""
        try:
            if key == "data_shards":
                d = int(value)
            elif key == "model_columns":
                m = int(value)
            elif key == "cross_layers":
                cross = tuple(int(t) for t in value.replace(",", " ").split()) if value else ()
            else:
                raise ValidationError(f"line {lineno}: unknown plan key {key!r}")
        except ValueError:
            raise ValidationError(f"line {lineno}: bad integer in {line!r}") from None
    return ParallelPlan(d, m, cross)


def load_plan(path) -> ParallelPlan:
    return parse_plan(Path(path).read_text(encoding="utf-8"))


def plan_columnized(net: NetworkSpec, plan: ParallelPlan) -> ColumnizedSpec:
    return columnize(net, plan.model_columns, plan.cross_layers)


# ---------------------------------------------------------------------------
# Parameters: dense init, column split, merge back
# ---------------------------------------------------------------------------

def init_dense_params(net: NetworkSpec, seed: int, std: float | None = None) -> ParamSet:
    """Gaussian weights and zero biases, drawn layer by layer from the seed's
    init substream in the dense layout, so every plan starts from the same
    underlying network.

    By default each layer's std is fan-in scaled (sqrt(2 / fan_in)); a flat
    Gaussian scale can be forced with `std`. Desk-sized layers have fan-ins
    far below ImageNet-scale ones, where a flat 0.01 leaves gradients too
    small to train in a handful of epochs.
    """
    stream = rng.derive(seed, rng.DOMAIN_INIT)
    dense = columnize(net, 1)
    params: ParamSet = {}
    for cl in dense.param_layers():
        if std is None:
            if isinstance(cl.layer, Conv):
                fan_in = cl.in_shape[0] * cl.layer.kernel * cl.layer.kernel
            else:
                fan_in = cl.weight_shape[0]
            scale = math.sqrt(2.0 / fan_in)
        else:
            scale = std
        w = stream.gauss_array(cl.weight_shape, std=scale)
        b = np.zeros(cl.bias_shape, dtype=np.float64)
        params[cl.index] = {"w": w, "b": b}
    return params


def _owned(cl: ColumnLayer, column: int, dense_in: int) -> tuple[tuple[slice, ...], slice]:
    """(weight index, bias index) of the part of a dense layer that `column` owns.

    A shared head layer is owned whole; a split conv owns a block of output
    channels (and, when grouped, of input channels too), a split FC a block
    of units. `dense_in` is the dense weight's second extent.
    """
    if cl.shared:
        return (slice(None),), slice(None)
    if isinstance(cl.layer, Conv):
        oc, ic = cl.weight_shape[0], cl.weight_shape[1]
        out = slice(column * oc, (column + 1) * oc)
        inp = slice(column * ic, (column + 1) * ic) if ic != dense_in else slice(None)
        return (out, inp), out
    u = cl.weight_shape[1]
    units = slice(column * u, (column + 1) * u)
    return (slice(None), units), units


def split_params(dense: ParamSet, cs: ColumnizedSpec, column: int) -> ParamSet:
    """Column `column`'s slice of a dense parameter set, as views into `dense`."""
    out: ParamSet = {}
    for cl in cs.param_layers():
        w, b = dense[cl.index]["w"], dense[cl.index]["b"]
        wi, bi = _owned(cl, column, w.shape[1])
        out[cl.index] = {"w": w[wi], "b": b[bi]}
    return out


def merge_params(per_column: list[ParamSet], cs: ColumnizedSpec) -> ParamSet:
    """Reassemble column slices into the dense layout (inverse of split_params).

    Only defined when no split layer consumes a column slice; a grouped layer
    has no dense counterpart and raises.
    """
    m = cs.columns
    if len(per_column) != m:
        raise ValidationError(f"merge_params needs {m} column sets, got {len(per_column)}")
    dense_layers = {cl.index: cl for cl in columnize(cs.base, 1).param_layers()}
    out: ParamSet = {}
    for cl in cs.param_layers():
        idx = cl.index
        dense_cl = dense_layers[idx]
        if cl.shared:
            for other in per_column[1:]:
                if not np.array_equal(other[idx]["w"], per_column[0][idx]["w"]):
                    raise ValidationError(
                        f"layer {idx}: replicated head copies diverged across columns"
                    )
        elif not cl.cross and cl.in_shape != dense_cl.in_shape:
            raise ValidationError(
                f"layer {idx} consumes a column slice (grouped); no dense equivalent exists"
            )
        w = np.zeros(dense_cl.weight_shape, dtype=np.float64)
        b = np.zeros(dense_cl.bias_shape, dtype=np.float64)
        for j in range(1 if cl.shared else m):
            wi, bi = _owned(cl, j, w.shape[1])
            w[wi] = per_column[j][idx]["w"]
            b[bi] = per_column[j][idx]["b"]
        out[idx] = {"w": w, "b": b}
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


class _Meter:
    """Step-scoped allocation tracker mirroring worker_footprint_bytes exactly."""

    def __init__(self, ctx: Worker | None):
        self.ctx = ctx
        self.bytes = 0

    def note(self, arr: np.ndarray) -> None:
        if self.ctx is not None:
            self.bytes += self.ctx.alloc(arr.size)

    def release(self) -> None:
        if self.ctx is not None and self.bytes:
            self.ctx.free_bytes(self.bytes)
            self.bytes = 0

    def check(self) -> None:
        if self.ctx is not None:
            self.ctx.assert_capacity()


def column_forward(
    cs: ColumnizedSpec,
    params: ParamSet,
    x: np.ndarray,
    exchange: FabricExchange | None,
    meter: _Meter | None = None,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray | None]]]:
    """One column's forward pass up to the loss layer.

    Returns (logits, caches): caches holds, per column layer, its input and
    the pooling argmax (None for other layers), which column_fwd_bwd's
    backward pass consumes. `exchange` is None when the network has one
    column, which never crosses.
    """
    meter = meter or _Meter(None)
    a = x
    meter.note(a)
    caches: list[tuple[np.ndarray, np.ndarray | None]] = []
    for cl in cs.col_layers:
        if cl.cross:
            a = exchange.cross_forward(cl.index, a)
            meter.note(a)
        layer = cl.layer
        argmax = None
        if isinstance(layer, Conv):
            p = ConvParams(params[cl.index]["w"], params[cl.index]["b"], layer.stride, layer.pad)
            out = conv2d_forward(a, p)
        elif isinstance(layer, FC):
            out = fc_forward(a.reshape(a.shape[0], -1), params[cl.index]["w"], params[cl.index]["b"])
        elif isinstance(layer, ReLU):
            out = relu_forward(a)
        elif isinstance(layer, MaxPool):
            out, argmax = maxpool_forward(a, layer.kernel, layer.stride)
        else:  # SoftmaxXent, always last: its flattened input is the logits
            out = a.reshape(a.shape[0], -1)
        meter.note(out)  # at the loss layer this accounts its logits-sized workspace
        caches.append((a, argmax))
        a = out
    return a, caches


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
    What the step accounted on `meter_ctx` is given back however it exits.
    """
    m = cs.columns
    meter = _Meter(meter_ctx)
    try:
        logits, caches = column_forward(cs, params, x, exchange, meter)
        meter.check()
        loss, g = softmax_xent_scaled(logits, labels, loss_scale)
        grads: ParamSet = {}
        for pos in range(len(cs.col_layers) - 1, -1, -1):
            cl = cs.col_layers[pos]
            a, argmax = caches[pos]
            layer = cl.layer
            if isinstance(layer, SoftmaxXent):
                g_in = g.reshape(a.shape)
            elif isinstance(layer, Conv):
                p = ConvParams(params[cl.index]["w"], params[cl.index]["b"], layer.stride, layer.pad)
                g_in, gw, gb = conv2d_backward(a, p, g)
                grads[cl.index] = {"w": gw, "b": gb}
            elif isinstance(layer, FC):
                g_in, gw, gb = fc_backward(a.reshape(a.shape[0], -1), params[cl.index]["w"], g)
                grads[cl.index] = {"w": gw, "b": gb}
                g_in = g_in.reshape(a.shape)
            elif isinstance(layer, ReLU):
                g_in = relu_backward(a, g)
            else:  # MaxPool
                g_in = maxpool_backward(a, layer.kernel, layer.stride, g, argmax)
            if cl.cross:
                contribution = g_in / m if cl.shared else g_in
                g = exchange.cross_backward(cl.index, contribution)
            else:
                g = g_in
    finally:
        meter.release()
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
    sgd: SgdState | None = None


def reference_step(
    net: NetworkSpec, params: ParamSet, batch: tuple[np.ndarray, np.ndarray], sgd: SgdState
) -> StepResult:
    """Full-batch forward/backward/update on one worker; the oracle for all schemes."""
    cs = columnize(net, 1)
    x, labels = batch
    if x.shape[0] < 1:
        raise ValidationError("reference_step needs a non-empty batch")
    loss, grads = column_fwd_bwd(cs, params, x, np.asarray(labels), 1.0 / x.shape[0], None)
    plist = params_as_lists(params, cs)
    glist = params_as_lists(grads, cs)
    if not sgd.velocity:
        sgd = SgdState(sgd.learning_rate, sgd.momentum, sgd.weight_decay,
                       [np.zeros_like(p) for p in plist])
    new_plist, new_sgd = sgd_step(plist, glist, sgd)
    return StepResult(
        loss=loss, params=lists_as_params(new_plist, cs), sgd=new_sgd
    )


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
    also keeps a velocity vector of the same layout.
    """
    if fabric.n != plan.workers:
        raise ValidationError(
            f"plan grid {plan.describe()} needs {plan.workers} workers, fabric has {fabric.n}"
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
        replica, column = divmod(ctx.wid, m)
        state["replica"] = replica
        state["column"] = column
        state["params"] = flat
        state["layers"] = unpack_tree(flat, cs)
        state["hyper"] = (sgd.learning_rate, sgd.momentum, sgd.weight_decay)
        state["velocity"] = velocity
        state["accounted"] = ctx.alloc(flat.size * (1 if velocity is None else 2))
        ctx.assert_capacity()

    fabric.run(program, args)


def _state(ctx: Worker) -> dict:
    """The worker's state from setup_workers; raises naming the worker if there is none."""
    if "params" not in ctx.local:
        raise ValidationError(f"worker {ctx.wid} has no parameters; run setup_workers first")
    return ctx.local


def hybrid_step(
    fabric: Fabric,
    plan: ParallelPlan,
    cs: ColumnizedSpec,
    batch_x: np.ndarray,
    batch_y: np.ndarray,
) -> StepResult:
    """One synchronous update under an arbitrary d x m plan (the general engine)."""
    d, m = plan.data_shards, plan.model_columns
    if fabric.n != plan.workers:
        raise ValidationError(
            f"plan grid {plan.describe()} needs {plan.workers} workers, fabric has {fabric.n}"
        )
    if cs.columns != m:
        raise ValidationError("columnized spec does not match the plan's column count")
    b = batch_x.shape[0]
    if b < 1:
        raise ValidationError("hybrid_step needs a non-empty batch")
    if b % d != 0:
        raise ValidationError(f"batch size {b} not divisible by {d} data shards")
    shard = b // d
    labels = np.asarray(batch_y, dtype=np.int64)
    loss_scale = 1.0 / b

    args = []
    for wid in range(fabric.n):
        replica = wid // m
        lo, hi = replica * shard, (replica + 1) * shard
        args.append((batch_x[lo:hi], labels[lo:hi]))

    before_b = fabric.ledger.total_bytes
    before_m = fabric.ledger.total_messages

    def program(ctx: Worker, shard_x, shard_y):
        state = _state(ctx)
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
            lr, mom, wd = state["hyper"]
            (new_params,), new_sgd = sgd_step(
                [state["params"]], [total], SgdState(lr, mom, wd, [state["velocity"]])
            )
            state["velocity"] = new_sgd.velocity[0]
            ctx.broadcast_from_root(group, root, new_params)
        else:
            new_params = ctx.broadcast_from_root(group, root, None)
        state["params"][...] = new_params  # in place, so the per-layer views follow
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
    results = fabric.run(lambda ctx: _state(ctx)["layers"])
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
    traffic is ledgered like any other fabric communication.
    """
    m = plan.model_columns
    labels = np.asarray(labels, dtype=np.int64)

    def program(ctx: Worker):
        state = _state(ctx)
        if state["replica"] != 0:
            return None
        column = state["column"]
        exchange = FabricExchange(ctx, 0, column, m) if m > 1 else None
        logits, _ = column_forward(cs, state["layers"], x, exchange)
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
    if batch % d != 0:
        raise ValidationError(f"batch size {batch} not divisible by {d} data shards")
    shard = batch // d
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
