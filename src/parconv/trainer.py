"""End-to-end training over any parallel plan, evaluation, and the
scheme-equivalence runner.

The batch schedule is a pure function of (seed, epoch): a Fisher-Yates
permutation of the training set per epoch, cut into consecutive batches of
the configured size (a trailing remainder smaller than one batch is skipped
that epoch). Plans never influence the schedule, so runs under different
plans see identical sample sequences and their per-update losses can be
compared directly.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .costmodel import CostParams, step_time, steps_per_epoch
from .data import Dataset, gen_synthetic
from .errors import InfeasiblePlanError, ValidationError
from .fabric import DeviceSpec, Fabric, spawn
from .kernels import SgdState
from .metrics import MetricsRecord
from .netdef import DEFAULT_MEMORY, NetworkSpec, worker_footprint_bytes
from .schemes import (
    ParallelPlan,
    ParamSet,
    evaluation_errors,
    gather_dense_params,
    hybrid_step,
    init_dense_params,
    plan_columnized,
    reference_step,
    setup_workers,
)


def _check_split(net: NetworkSpec, data: Dataset, split: str) -> None:
    """Raise unless the split is non-empty and its class count and sample shape
    fit the network."""
    if data.size < 1:
        raise ValidationError(f"{split} split is empty")
    if data.classes != net.classes:
        raise ValidationError(
            f"{split} split has {data.classes} classes but the network head expects {net.classes}"
        )
    if data.sample_shape != net.input_shape:
        raise ValidationError(
            f"{split} split samples are {data.sample_shape}, network input is {net.input_shape}"
        )


def _batches(seed: int, n: int, batch: int) -> Iterator[tuple[int, np.ndarray]]:
    """The batch schedule: endless (epoch, sample indices) pairs, epoch after epoch."""
    per_epoch = steps_per_epoch(n, batch)
    for epoch in itertools.count():
        order = rng.permutation(seed, epoch, n)
        for step in range(per_epoch):
            yield epoch, order[step * batch : (step + 1) * batch]


@dataclass
class TrainConfig:
    net: NetworkSpec
    plan: ParallelPlan
    epochs: int
    batch: int
    seed: int
    train_data: Dataset
    test_data: Dataset | None = None
    sgd: SgdState = field(default_factory=SgdState)
    cost: CostParams | None = None
    memory_capacity: int | None = None  # overrides cost.memory / the 6 GB default
    scheduling: str = "lockstep"
    record_wall_time: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.memory_capacity is not None and self.memory_capacity < 1:
            raise ValidationError(f"memory capacity must be >= 1 byte, got {self.memory_capacity}")
        self.plan.shard(self.batch)
        _check_split(self.net, self.train_data, "training")
        if self.test_data is not None:
            _check_split(self.net, self.test_data, "test")
        steps_per_epoch(self.train_data.size, self.batch)

    @property
    def device_capacity(self) -> int:
        if self.memory_capacity is not None:
            return self.memory_capacity
        if self.cost is not None:
            return self.cost.memory
        return DEFAULT_MEMORY


@dataclass
class TrainResult:
    records: list[MetricsRecord]
    final_params: ParamSet  # replica 0's parameters in the dense layout
    fabric: Fabric
    step_seconds: float  # cost-model seconds per update (0.0 without cost params)


def train(cfg: TrainConfig) -> TrainResult:
    """Run the synchronous training loop under cfg.plan; returns per-update metrics."""
    plan = cfg.plan
    cs = plan_columnized(cfg.net, plan)
    shard = plan.shard(cfg.batch)

    # fail fast on memory before spawning anything (the runtime meter re-checks)
    need = worker_footprint_bytes(cs, shard, holds_velocity=True)
    if need > cfg.device_capacity:
        raise InfeasiblePlanError(0, need, cfg.device_capacity)

    step_seconds = 0.0
    if cfg.cost is not None:
        cp = replace(cfg.cost, memory=cfg.device_capacity)
        step_seconds = step_time(plan, cfg.net, cfg.batch, cp).step_seconds

    fabric = spawn(
        plan.workers,
        DeviceSpec(memory_capacity=cfg.device_capacity),
        scheduling=cfg.scheduling,
    )
    dense = init_dense_params(cfg.net, cfg.seed)
    setup_workers(fabric, plan, cs, dense, cfg.sgd)

    per_epoch = steps_per_epoch(cfg.train_data.size, cfg.batch)
    schedule = itertools.islice(
        _batches(cfg.seed, cfg.train_data.size, cfg.batch), cfg.epochs * per_epoch
    )
    records: list[MetricsRecord] = []
    wall_start = time.perf_counter()
    for update, (epoch, chosen) in enumerate(schedule, start=1):
        result = hybrid_step(
            fabric, plan, cs, cfg.train_data.images[chosen], cfg.train_data.labels[chosen]
        )
        records.append(
            MetricsRecord(
                update=update,
                epoch=epoch + 1,
                train_loss=result.loss,
                test_error=None,
                sim_seconds=update * step_seconds,
                wall_seconds=(time.perf_counter() - wall_start) if cfg.record_wall_time else 0.0,
                ledger_bytes=fabric.ledger.total_bytes,
            )
        )
        if cfg.test_data is not None and update % per_epoch == 0:  # the epoch's last update
            err = _fabric_error_rate(fabric, plan, cs, cfg.test_data, eval_batch=shard)
            records[-1] = replace(records[-1], test_error=err)

    final = gather_dense_params(fabric, plan, cs)
    return TrainResult(records=records, final_params=final, fabric=fabric, step_seconds=step_seconds)


def _fabric_error_rate(
    fabric: Fabric, plan: ParallelPlan, cs, test: Dataset, eval_batch: int
) -> float:
    wrong = 0
    for lo in range(0, test.size, eval_batch):
        hi = min(lo + eval_batch, test.size)
        wrong += evaluation_errors(fabric, plan, cs, test.images[lo:hi], test.labels[lo:hi])
    return wrong / test.size


# ---------------------------------------------------------------------------
# Equivalence suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Divergence:
    """Worst relative deviation of a plan's run from the single-worker reference."""

    plan: ParallelPlan
    loss_rel: float  # max over updates of |loss - ref| / max(|loss|, |ref|)
    param_rel: float  # max over tensors of max|delta| / max absolute value

    @property
    def worst(self) -> float:
        return max(self.loss_rel, self.param_rel)


def _loss_rel(a: list[float], b: list[float]) -> float:
    worst = 0.0
    for x, y in zip(a, b):
        denom = max(abs(x), abs(y), 1e-300)
        worst = max(worst, abs(x - y) / denom)
    return worst


def _param_rel(a: ParamSet, b: ParamSet) -> float:
    worst = 0.0
    for idx in sorted(a):
        for key in ("w", "b"):
            ta, tb = a[idx][key], b[idx][key]
            scale = max(float(np.max(np.abs(ta))), float(np.max(np.abs(tb))), 1e-300)
            worst = max(worst, float(np.max(np.abs(ta - tb))) / scale)
    return worst


def equivalence_data(net: NetworkSpec, batch: int, seed: int) -> Dataset:
    """Deterministic in-memory blobs sized for the equivalence runs."""
    per_class = max(1, math.ceil(8 * batch / net.classes))
    train, _ = gen_synthetic(net.classes, per_class, net.input_shape, seed)
    return train


def run_equivalence(
    net: NetworkSpec,
    plans: list[ParallelPlan],
    steps: int = 50,
    seed: int = 0,
    batch: int = 8,
    scheduling: str = "lockstep",
) -> list[Divergence]:
    """Train every plan on the identical batch sequence and compare per-update
    losses and final parameters against the single-worker reference."""
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    for plan in plans:  # before any training; a grouped plan cannot follow the dense trajectory
        plan.shard(batch)
        grouped = [cl.index for cl in plan_columnized(net, plan).col_layers if cl.grouped]
        if grouped:
            raise ValidationError(f"plan {plan.describe()}: layer {grouped[0]} consumes a column "
                                  "slice (grouped); no dense equivalent exists")
    data = equivalence_data(net, batch, seed)
    batches = [chosen for _, chosen in itertools.islice(_batches(seed, data.size, batch), steps)]

    ref_params, ref_velocity = init_dense_params(net, seed), None
    ref_losses: list[float] = []
    for chosen in batches:
        out = reference_step(
            net, ref_params, (data.images[chosen], data.labels[chosen]), SgdState(), ref_velocity
        )
        ref_params, ref_velocity = out.params, out.velocity
        ref_losses.append(out.loss)

    results = []
    for plan in plans:
        cs = plan_columnized(net, plan)
        fabric = spawn(plan.workers, scheduling=scheduling)
        setup_workers(fabric, plan, cs, init_dense_params(net, seed), SgdState())
        losses = []
        for chosen in batches:
            res = hybrid_step(fabric, plan, cs, data.images[chosen], data.labels[chosen])
            losses.append(res.loss)
        merged = gather_dense_params(fabric, plan, cs)
        results.append(
            Divergence(
                plan=plan,
                loss_rel=_loss_rel(losses, ref_losses),
                param_rel=_param_rel(merged, ref_params),
            )
        )
    return results
