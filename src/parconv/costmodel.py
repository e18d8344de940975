"""Analytical wall-clock model for parallel training plans.

step time = compute + communication, no overlap between the two:

  compute = (busiest worker's forward+backward FLOPs) / (F * e(b))
            where b is the per-device batch (global batch / data shards) and
            e(b) = b / (b + b_half) models how small per-device batches
            under-utilise a device's parallel cores;

  communication is a sequence of dependency-ordered phases (per cross layer
  one forward and one backward exchange; for data sharding one gradient
  reduce and one parameter broadcast). Within a phase, transfers over
  disjoint links run concurrently and each link moves `bandwidth` bytes/s,
  so the phase costs its busiest worker's same-direction traffic:
  max_node_bytes / bandwidth + max_node_messages * latency. Phases add up.

Total accounted bytes across phases equal schemes.comm_volume, which in turn
equals the fabric ledger byte-for-byte.

Calibration fits (throughput, bandwidth, latency, b_half) to observed
(plan, days) rows by grid search plus deterministic pattern refinement on
the mean squared log prediction error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import CalibrationError, InfeasiblePlanError, ValidationError
from .fabric import DeviceSpec
from .netdef import (
    DEFAULT_MEMORY,
    NetworkSpec,
    config_lines,
    require_fit,
    shape_report,
)
from .schemes import ParallelPlan, comm_phases, plan_columnized

SECONDS_PER_DAY = 86400.0
IMAGENET_TRAIN_SIZE = 1_281_167


@dataclass(frozen=True)
class CostParams:
    """Device throughput F (FLOP/s), per-link bandwidth W (B/s), per-message
    latency L (s), efficiency half-batch, and device memory capacity (bytes)."""

    throughput: float
    bandwidth: float
    latency: float
    b_half: float
    memory: int = DEFAULT_MEMORY

    def __post_init__(self):
        for key in _COST_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise ValidationError(
                    f"cost parameter {key} must be finite, got {getattr(self, key)}"
                )
        if self.throughput <= 0 or self.bandwidth <= 0:
            raise ValidationError("throughput and bandwidth must be positive")
        if self.latency < 0 or self.b_half < 0:
            raise ValidationError("latency and b_half must be non-negative")
        DeviceSpec(self.memory)  # the device's capacity check


_COST_KEYS = ("throughput", "bandwidth", "latency", "b_half", "memory")


def save_cost_params(cp: CostParams, path) -> None:
    lines = [f"{key} {getattr(cp, key)!r}" for key in _COST_KEYS]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_cost_params(path) -> CostParams:
    values: dict[str, float] = {}
    for lineno, line in config_lines(Path(path).read_text(encoding="utf-8")):
        parts = line.split()
        if len(parts) != 2 or parts[0] not in _COST_KEYS:
            raise ValidationError(f"cost params line {lineno}: expected '<key> <value>', got {line!r}")
        key, text = parts
        if key in values:
            raise ValidationError(f"cost params line {lineno}: duplicate key {key!r}")
        try:
            values[key] = int(float(text)) if key == "memory" else float(text)
        except (ValueError, OverflowError):
            raise ValidationError(
                f"cost params line {lineno}: {key} needs a finite number, got {text!r}"
            ) from None
    missing = [k for k in _COST_KEYS if k not in values]
    if missing:
        raise ValidationError(f"cost params file missing keys: {', '.join(missing)}")
    return CostParams(**values)


def load_observations(
    path, cross_layers: tuple[int, ...] = ()
) -> list[tuple[ParallelPlan, float]]:
    """Observed (plan, days) rows from a `plan_d,plan_m,days` CSV (header optional);
    plans with m > 1 cross at `cross_layers`."""
    rows = []
    for lineno, line in config_lines(Path(path).read_text(encoding="utf-8")):
        parts = [p.strip() for p in line.split(",")]
        if parts[:3] == ["plan_d", "plan_m", "days"]:
            continue  # header
        if len(parts) != 3:
            raise ValidationError(f"{path}:{lineno}: expected 'd,m,days', got {line!r}")
        try:
            d, m, days = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: bad numbers in {line!r}") from None
        rows.append((ParallelPlan(d, m, cross_layers if m > 1 else ()), days))
    return rows


def efficiency(b: float, b_half: float) -> float:
    """Fraction of peak throughput at per-device batch b: b / (b + b_half)."""
    if b <= 0:
        raise ValidationError("per-device batch must be positive")
    return b / (b + b_half)


@dataclass(frozen=True)
class StepTime:
    compute_seconds: float
    comm_seconds: float

    @property
    def step_seconds(self) -> float:
        return self.compute_seconds + self.comm_seconds


@dataclass(frozen=True)
class TimePrediction:
    plan: ParallelPlan
    step: StepTime
    steps_per_epoch: int
    epochs: int

    @property
    def epoch_seconds(self) -> float:
        return self.steps_per_epoch * self.step.step_seconds

    @property
    def total_seconds(self) -> float:
        return self.epochs * self.epoch_seconds

    @property
    def days(self) -> float:
        return self.total_seconds / SECONDS_PER_DAY


@dataclass(frozen=True)
class _PlanCost:
    """Pre-reduced per-plan quantities so parameter sweeps are pure arithmetic."""

    per_device_batch: int
    worker_flops: int
    node_bytes: int
    node_messages: int


def _plan_cost(plan: ParallelPlan, net: NetworkSpec, batch: int, memory: int) -> _PlanCost:
    """Raises InfeasiblePlanError when the plan does not fit in `memory` bytes."""
    shard = plan.shard(batch)
    cs = plan_columnized(net, plan)
    require_fit(cs, shard, memory)
    phases = comm_phases(plan, cs, batch)
    return _PlanCost(
        per_device_batch=shard,
        worker_flops=shape_report(cs, shard).total_flops,
        node_bytes=sum(p.max_node_bytes for p in phases),
        node_messages=sum(p.max_node_messages for p in phases),
    )


def _step_seconds(
    pc: _PlanCost, throughput: float, bandwidth: float, latency: float, b_half: float
) -> tuple[float, float]:
    """(compute, communication) seconds of one update: the one step-time formula."""
    compute = pc.worker_flops / (throughput * efficiency(pc.per_device_batch, b_half))
    comm = pc.node_bytes / bandwidth + pc.node_messages * latency
    return compute, comm


def step_time(plan: ParallelPlan, net: NetworkSpec, batch: int, cp: CostParams) -> StepTime:
    """Predicted seconds per update; raises InfeasiblePlanError on a memory breach."""
    pc = _plan_cost(plan, net, batch, cp.memory)
    compute, comm = _step_seconds(pc, cp.throughput, cp.bandwidth, cp.latency, cp.b_half)
    return StepTime(compute_seconds=compute, comm_seconds=comm)


def steps_per_epoch(dataset_size: int, batch: int) -> int:
    """Updates in one epoch: full batches only, the remainder is dropped (as train does)."""
    if dataset_size < batch:
        raise ValidationError(
            f"dataset too small for one batch: {dataset_size} samples, batch {batch}"
        )
    return dataset_size // batch


def predict_total(
    plan: ParallelPlan,
    net: NetworkSpec,
    batch: int,
    epochs: int,
    dataset_size: int,
    cp: CostParams,
) -> TimePrediction:
    if epochs < 0:
        raise ValidationError(f"epochs must be >= 0, got {epochs}")
    plan.shard(batch)  # a valid batch, checked before the dataset and the memory
    steps = steps_per_epoch(dataset_size, batch)
    return TimePrediction(
        plan=plan, step=step_time(plan, net, batch, cp), steps_per_epoch=steps, epochs=epochs
    )


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

# Documented search grid: log-spaced, chosen to bracket desk-plausible devices
# (0.1..10 TFLOP/s, 0.1..100 GB/s links, 10us..0.1s per message).
_GRID_THROUGHPUT = [10.0 ** (11.0 + 0.25 * k) for k in range(9)]  # 1e11 .. 1e13
_GRID_BANDWIDTH = [10.0 ** (8.0 + 0.25 * k) for k in range(13)]  # 1e8 .. 1e11
_GRID_LATENCY = [10.0 ** (-5.0 + 0.5 * k) for k in range(9)]  # 1e-5 .. 1e-1
_GRID_BHALF = [float(2**k) for k in range(10)]  # 1 .. 512

_REFINE_STARTS = 3  # best grid points refined (ties keep lexicographic order)
_REFINE_MAXITER = 4000


def calibrate(
    observations: list[tuple[ParallelPlan, float]],
    net: NetworkSpec,
    batch: int = 256,
    epochs: int = 100,
    dataset_size: int = IMAGENET_TRAIN_SIZE,
) -> CostParams:
    """Fit (throughput, bandwidth, latency, b_half) to observed (plan, days) rows.

    Minimises the mean squared log prediction error. Deterministic: an
    exhaustive scan of the documented grid (ties keep the lexicographically
    first point) seeds a Nelder-Mead refinement over the log parameters.
    Observations whose plan cannot fit in DEFAULT_MEMORY, the capacity the
    fitted parameters keep, are rejected.
    """
    if epochs < 1:
        raise ValidationError(f"epochs must be >= 1, got {epochs}")
    if len(observations) < 4:
        raise CalibrationError(
            f"calibration needs at least 4 observations, got {len(observations)}"
        )
    plan_costs: list[_PlanCost] = []
    targets: list[float] = []
    for plan, days in observations:
        if days <= 0:
            raise CalibrationError(f"observed days must be positive, got {days} for {plan.describe()}")
        try:
            plan_costs.append(_plan_cost(plan, net, batch, DEFAULT_MEMORY))
        except InfeasiblePlanError as err:
            raise CalibrationError(f"observation {plan.describe()}: {err}") from None
        targets.append(days)
    steps_total = steps_per_epoch(dataset_size, batch) * epochs
    log_targets = [math.log(t) for t in targets]

    def objective(f: float, w: float, l: float, bh: float) -> float:
        err = 0.0
        for pc, log_obs in zip(plan_costs, log_targets):
            compute, comm = _step_seconds(pc, f, w, l, bh)
            pred_days = steps_total * (compute + comm) / SECONDS_PER_DAY
            diff = math.log(pred_days) - log_obs
            err += diff * diff
        return err / len(plan_costs)

    scored = []
    for f in _GRID_THROUGHPUT:
        for w in _GRID_BANDWIDTH:
            for l in _GRID_LATENCY:
                for bh in _GRID_BHALF:
                    scored.append((objective(f, w, l, bh), len(scored), (f, w, l, bh)))
    scored.sort()
    starts = [point for _, _, point in scored[:_REFINE_STARTS]]

    # local refinement over log10 parameters, deterministic from each start's
    # fixed initial simplex; keep the best refined point. Imported here, as
    # scipy.optimize loads a second OpenBLAS that no training process needs.
    from scipy.optimize import minimize

    def log_objective(logx):
        return objective(*(10.0**v for v in logx))

    best_err = math.inf
    best = starts[0]
    for start in starts:
        x0 = [math.log10(v) for v in start]
        res = minimize(
            log_objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": _REFINE_MAXITER, "xatol": 1e-10, "fatol": 1e-16},
        )
        if res.fun < best_err:
            best_err = float(res.fun)
            best = tuple(float(10.0**v) for v in res.x)
    return CostParams(throughput=best[0], bandwidth=best[1], latency=best[2], b_half=best[3])
