"""Span tracing of parconv's update path, installed at runtime from outside the package.

`Tracer.install()` replaces the public kernel, fabric and scheme entry points
with wrappers that record one span per call: name, worker id, parent span,
the (plan, update) key the benchmark has set, start, wall time (`perf_counter`)
and the calling thread's CPU time (`thread_time`). Busy is CPU time; waited
is wall minus CPU. `Worker.send` also records its tag and accounted bytes.
Spans stay in memory; `uninstall()` restores every original.

Kernels are wrapped where `parconv.schemes` binds them, so a kernel calling
another kernel inside `parconv.kernels` is not counted twice.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from typing import NamedTuple

import numpy as np

from parconv import fabric, schemes
from parconv.netdef import Conv, FC, shape_report

# name bound in parconv.schemes -> kernel metric group
KERNELS = {
    "conv2d_forward": "conv_fwd",
    "conv2d_backward": "conv_bwd",
    "fc_forward": "fc_fwd",
    "fc_backward": "fc_bwd",
    "maxpool_forward": "pool",
    "maxpool_backward": "pool",
    "relu_forward": "relu",
    "relu_backward": "relu",
    "softmax_xent_scaled": "softmax",
    "sgd_step": "sgd",
}
KERNEL_GROUPS = ("conv_fwd", "conv_bwd", "fc_fwd", "fc_bwd", "pool", "relu", "softmax", "sgd")
LAYOUT = ("pack_tree", "unpack_tree", "params_as_lists", "lists_as_params")
SCHEME_CALLS = ("hybrid_step", "column_fwd_bwd") + LAYOUT
EXCHANGE = ("cross_forward", "cross_backward")
WORKER_CALLS = ("recv", "reduce_to_root", "broadcast_from_root")
PROGRAM = "worker.program"


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    wid: int  # -1 for the main thread
    key: object  # (plan name, update index) or None outside a timed update
    start: float
    wall: float
    cpu: float


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.sends: list[tuple] = []  # (key, tag, accounted bytes)
        self.key = None
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------
    def _call(self, name, fn, args, kwargs, sid=None):
        tls = self._tls
        stack = getattr(tls, "stack", None)
        if stack is None:
            stack = tls.stack = [0]
            tls.wid = -1
        if sid is None:
            sid = next(self._ids)
        parent = stack[-1]
        stack.append(sid)
        key = self.key
        w0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            cpu = time.thread_time() - c0
            wall = time.perf_counter() - w0
            stack.pop()
            self.spans.append(Span(sid, parent, name, tls.wid, key, w0, wall, cpu))

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def _wrap_run(self, run):
        tracer = self

        def traced_run(fab, program, args=None):
            sid = next(tracer._ids)

            def traced_program(ctx, *a):
                tls = tracer._tls
                tls.wid = ctx.wid
                tls.stack = [sid]
                return tracer._call(PROGRAM, program, (ctx,) + a, {})

            return tracer._call("Fabric.run", run, (fab, traced_program, args), {}, sid=sid)

        return traced_run

    def _wrap_send(self, send):
        tracer = self

        def traced_send(ctx, dst, tag, value):
            nbytes = int(np.size(value)) * ctx.fabric.device.wire_element_size
            tracer.sends.append((tracer.key, tag, nbytes))
            return tracer._call("send", send, (ctx, dst, tag, value), {})

        return traced_send

    # -- patching ---------------------------------------------------------------
    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for name in list(KERNELS) + list(SCHEME_CALLS):
            self._patch(schemes, name, self._wrap(name, getattr(schemes, name)))
        for name in EXCHANGE:
            self._patch(schemes.FabricExchange, name,
                        self._wrap(name, schemes.FabricExchange.__dict__[name]))
        for name in WORKER_CALLS:
            self._patch(fabric.Worker, name, self._wrap(name, fabric.Worker.__dict__[name]))
        self._patch(fabric.Worker, "send", self._wrap_send(fabric.Worker.__dict__["send"]))
        self._patch(fabric.Fabric, "run", self._wrap_run(fabric.Fabric.__dict__["run"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def phase_label(tag) -> str:
    """The comm_phases label a send tag belongs to."""
    if isinstance(tag, tuple) and tag[0] in ("xf", "xb"):
        return f"cross{tag[1]}-{'fwd' if tag[0] == 'xf' else 'bwd'}"
    return {"reduce": "grad-reduce", "bcast": "param-broadcast"}[tag]


def phase_traffic(sends) -> dict[str, tuple[int, int]]:
    """{phase label: (bytes, messages)} of one update's sends."""
    out: dict[str, list[int]] = {}
    for _, tag, nbytes in sends:
        entry = out.setdefault(phase_label(tag), [0, 0])
        entry[0] += nbytes
        entry[1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}


def kernel_flops(cs, plan, batch: int) -> tuple[int, int]:
    """(conv, fc) forward+backward FLOPs of one update over all workers, from shape_report."""
    report = shape_report(cs, batch // plan.data_shards)
    layers = {cl.index: cl.layer for cl in cs.col_layers}
    conv = sum(r.flops_forward + r.flops_backward for r in report.rows
               if isinstance(layers[r.index], Conv))
    fc = sum(r.flops_forward + r.flops_backward for r in report.rows
             if isinstance(layers[r.index], FC))
    return conv * plan.workers, fc * plan.workers


def update_breakdown(spans: list[Span], sends, conv_flops: int, fc_flops: int) -> dict[str, float]:
    """Per-layer figures of one traced update (times in ms)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    step = next(s for s in spans if s.name == "hybrid_step")
    runs = [s for s in children.get(step.sid, ()) if s.name == "Fabric.run"]
    run = runs[0]
    programs = [s for s in children.get(run.sid, ()) if s.name == PROGRAM]
    engines = [s for s in spans if s.name == "column_fwd_bwd"]
    engine = max(engines, key=lambda s: s.wall)
    engine_children = children.get(engine.sid, ())

    def wall(names, only_wid=None):
        return sum(s.wall for s in spans
                   if s.name in names and (only_wid is None or s.wid == only_wid))

    out: dict[str, float] = {}
    busy: dict[str, float] = dict.fromkeys(KERNEL_GROUPS, 0.0)
    k_wall = k_cpu = 0.0
    for s in spans:
        group = KERNELS.get(s.name)
        if group is not None:
            busy[group] += s.cpu
            k_cpu += s.cpu
            k_wall += s.wall
    for group in KERNEL_GROUPS:
        out[f"kernels.{group}_ms"] = 1e3 * busy[group]
    conv_busy = busy["conv_fwd"] + busy["conv_bwd"]
    fc_busy = busy["fc_fwd"] + busy["fc_bwd"]
    out["kernels.conv_gflops"] = conv_flops / conv_busy / 1e9 if conv_busy > 0 else 0.0
    out["kernels.fc_gflops"] = fc_flops / fc_busy / 1e9 if fc_busy > 0 else 0.0
    out["kernels.wait_ms"] = 1e3 * (k_wall - k_cpu)
    out["kernels.busy_per_wall"] = k_cpu / k_wall if k_wall > 0 else 0.0

    traffic = phase_traffic(sends)
    out["fabric.bytes_per_update"] = float(sum(b for b, _ in traffic.values()))
    out["fabric.messages_per_update"] = float(sum(n for _, n in traffic.values()))
    out["fabric.cross_bytes"] = float(sum(b for k, (b, _) in traffic.items() if k.startswith("cross")))
    out["fabric.collective_bytes"] = float(
        sum(b for k, (b, _) in traffic.items() if not k.startswith("cross")))
    out["fabric.send_ms"] = 1e3 * wall(("send",))
    out["fabric.recv_wait_ms"] = 1e3 * wall(("recv",))
    out["fabric.reduce_ms"] = 1e3 * wall(("reduce_to_root",))
    out["fabric.bcast_ms"] = 1e3 * wall(("broadcast_from_root",))
    out["fabric.run_self_ms"] = 1e3 * (run.wall - max(s.wall for s in programs))
    out["fabric.runs_per_update"] = float(len(runs))

    out["schemes.engine_ms"] = 1e3 * engine.wall
    out["schemes.engine_self_ms"] = 1e3 * (engine.wall - sum(s.wall for s in engine_children))
    out["schemes.exchange_ms"] = 1e3 * wall(EXCHANGE, only_wid=engine.wid)
    out["schemes.layout_ms"] = 1e3 * wall(LAYOUT)
    out["schemes.step_self_ms"] = 1e3 * (step.wall - run.wall)
    return out


def group_by_update(tracer: Tracer):
    """{(plan, update): (spans, sends)} for spans recorded inside timed updates."""
    grouped: dict[object, tuple[list, list]] = {}
    for s in tracer.spans:
        if s.key is not None:
            grouped.setdefault(s.key, ([], []))[0].append(s)
    for send in tracer.sends:
        if send[0] is not None:
            grouped.setdefault(send[0], ([], []))[1].append(send)
    return grouped


def median_breakdown(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
