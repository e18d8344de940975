"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion verdicts inline.
"""

import math

import numpy as np
import pytest

from parconv.costmodel import (
    IMAGENET_TRAIN_SIZE,
    CostParams,
    calibrate,
    predict_total,
)
from parconv.data import gen_synthetic
from parconv.errors import InfeasiblePlanError
from parconv.kernels import (
    conv2d_backward,
    conv2d_forward,
    fc_backward,
    fc_forward,
    maxpool_backward,
    maxpool_forward,
    relu_backward,
    relu_forward,
    softmax_xent,
)
from parconv.metrics import emit_csv, emit_svg
from parconv.netdef import columnize, load_network, worker_footprint_bytes
from parconv.schemes import (
    ParallelPlan,
    comm_volume,
    hybrid_step,
    init_dense_params,
    plan_columnized,
    setup_workers,
)
from parconv.fabric import spawn
from parconv.kernels import SgdState
from parconv.trainer import TrainConfig, run_equivalence, train

from oracles import CONFIGS, central_difference, relative_error

TINY = load_network(CONFIGS / "tinynet.net")
TINY2 = load_network(CONFIGS / "tinynet2.net")
MINI = load_network(CONFIGS / "minicnn.net")
ALEX = load_network(CONFIGS / "alexnet.net")

PLANS = [
    ParallelPlan(1, 1),
    ParallelPlan(2, 1),
    ParallelPlan(1, 2, (3,)),
    ParallelPlan(2, 2, (3,)),
]
ALEX_CROSS = (3, 6, 8, 10)
TABLE1 = [
    (ParallelPlan(1, 1), 10.5),
    (ParallelPlan(1, 2, ALEX_CROSS), 6.6),
    (ParallelPlan(2, 1), 7.0),
    (ParallelPlan(4, 1), 7.2),
    (ParallelPlan(2, 2, ALEX_CROSS), 4.8),
]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_scheme_equivalence():
    """Plans (1,1), (2,1), (1,2), (2,2): 50-update loss sequences and final
    parameters within 1e-9 relative of the reference."""
    results = run_equivalence(TINY, PLANS, steps=50, seed=0, batch=8)
    worst = max(d.worst for d in results)
    detail = ", ".join(f"{d.plan.describe()}: loss {d.loss_rel:.1e} params {d.param_rel:.1e}"
                       for d in results)
    report(1, worst <= 1e-9, f"worst divergence {worst:.2e} <= 1e-9 ({detail})")


def test_criterion_2_gradient_correctness():
    """Every backward kernel against central finite differences, rel err < 1e-4,
    100 randomized shapes (20 per kernel)."""
    failures = 0
    checks = 0

    for t in range(20):  # conv2d
        rs = np.random.RandomState(10_000 + t)
        b, c, n, k = rs.randint(1, 3), rs.randint(1, 3), rs.randint(1, 4), rs.randint(1, 4)
        stride, pad = rs.randint(1, 3), rs.randint(0, 2)
        h = k + rs.randint(0, 4)
        h += (stride - (h + 2 * pad - k) % stride) % stride
        x, w, bias = rs.randn(b, c, h, h), rs.randn(n, c, k, k), rs.randn(n)

        def loss():
            out = conv2d_forward(x, w, bias, stride, pad)
            return 0.5 * float(np.sum(out * out))

        gx, gw, gb = conv2d_backward(x, w, conv2d_forward(x, w, bias, stride, pad), stride, pad)
        for analytic, arr in ((gx, x), (gw, w), (gb, bias)):
            checks += 1
            if relative_error(analytic, central_difference(loss, arr)) >= 1e-4:
                failures += 1

    for t in range(20):  # fc
        rs = np.random.RandomState(20_000 + t)
        b, d, u = rs.randint(1, 5), rs.randint(1, 7), rs.randint(1, 6)
        x, w, bias = rs.randn(b, d), rs.randn(d, u), rs.randn(u)

        def loss():
            out = fc_forward(x, w, bias)
            return 0.5 * float(np.sum(out * out))

        gx, gw, gb = fc_backward(x, w, fc_forward(x, w, bias))
        for analytic, arr in ((gx, x), (gw, w), (gb, bias)):
            checks += 1
            if relative_error(analytic, central_difference(loss, arr)) >= 1e-4:
                failures += 1

    for t in range(20):  # relu (inputs kept away from the kink)
        rs = np.random.RandomState(30_000 + t)
        x = rs.randn(rs.randint(1, 4), rs.randint(1, 16))
        x = np.where(np.abs(x) < 1e-3, 0.25, x)

        def loss():
            out = relu_forward(x)
            return 0.5 * float(np.sum(out * out))

        checks += 1
        if relative_error(relu_backward(x, relu_forward(x)), central_difference(loss, x)) >= 1e-4:
            failures += 1

    for t in range(20):  # maxpool (window gaps regenerated away from ties)
        rs = np.random.RandomState(40_000 + t)
        k = rs.randint(1, 3)
        stride = rs.randint(1, 3)
        h = k + stride * rs.randint(1, 4)
        while True:
            x = rs.rand(1, rs.randint(1, 3), h, h)
            win = np.sort(
                np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
                [:, :, ::stride, ::stride].reshape(-1, k * k),
                axis=1,
            )
            if k == 1 or np.all(win[:, -1] - win[:, -2] > 1e-4):
                break

        def loss():
            out = maxpool_forward(x, k, stride)
            return 0.5 * float(np.sum(out * out))

        out = maxpool_forward(x, k, stride)
        checks += 1
        if relative_error(maxpool_backward(x, k, stride, out, out),
                          central_difference(loss, x)) >= 1e-4:
            failures += 1

    for t in range(20):  # softmax cross-entropy
        rs = np.random.RandomState(50_000 + t)
        b, k = rs.randint(1, 6), rs.randint(2, 8)
        logits = rs.randn(b, k) * 2
        labels = rs.randint(0, k, size=b)

        def loss():
            return softmax_xent(logits, labels)[0]

        checks += 1
        if relative_error(softmax_xent(logits, labels)[1],
                          central_difference(loss, logits)) >= 1e-4:
            failures += 1

    report(2, failures == 0, f"{checks} finite-difference checks over 100 randomized shapes, "
                             f"{failures} failures")


def test_criterion_3_communication_accounting():
    """Ledger bytes equal the closed forms byte-exactly: all 4 plans x 2 nets,
    the 2(d-1)*P*4 data-parallel formula, and the model-parallel cross formula
    2 * B * (m-1) * 4 bytes per full activation element entering a cross layer."""
    mismatches = []
    for net, cross in ((TINY, (3,)), (MINI, ())):
        for base_plan in PLANS:
            plan = ParallelPlan(base_plan.data_shards, base_plan.model_columns,
                                cross if base_plan.model_columns > 1 else ())
            cs = plan_columnized(net, plan)
            fab = spawn(plan.workers)
            setup_workers(fab, plan, cs, init_dense_params(net, 0), SgdState())
            rs = np.random.RandomState(0)
            x = rs.randn(8, *net.input_shape)
            y = rs.randint(0, net.classes, size=8)
            step = hybrid_step(fab, plan, cs, x, y)
            formula = comm_volume(plan, net, 8)
            if step.ledger_bytes != formula.bytes or step.ledger_messages != formula.messages:
                mismatches.append((net.name, plan.describe()))
            if plan.model_columns == 1 and plan.data_shards > 1:
                p = cs.column_param_count
                if step.ledger_bytes != 2 * (plan.data_shards - 1) * p * 4:
                    mismatches.append((net.name, plan.describe(), "dp formula"))
            if plan.data_shards == 1 and plan.model_columns > 1:
                m = plan.model_columns
                exchanged = sum(2 * 8 * math.prod(cl.in_shape) * (m - 1) * 4
                                for cl in cs.col_layers if cl.cross)
                if step.ledger_bytes != exchanged:
                    mismatches.append((net.name, plan.describe(), "cross formula"))
    report(3, not mismatches, f"ledger == closed form for 4 plans x 2 networks "
                              f"(mismatches: {mismatches or 'none'})")


@pytest.fixture(scope="module")
def table1_fit():
    return calibrate(TABLE1, ALEX)


def _table1_predictions(cp):
    return {
        (p.data_shards, p.model_columns):
            predict_total(p, ALEX, 256, 100, IMAGENET_TRAIN_SIZE, cp).days
        for p, _ in TABLE1
    }


def test_criterion_4_table1_reproduction(table1_fit):
    """Calibrated predictions within 10% per row, exact rank order, and the
    reported speedups within their bands."""
    preds = _table1_predictions(table1_fit)
    row_errs = {
        plan.describe(): abs(preds[(plan.data_shards, plan.model_columns)] - days) / days
        for plan, days in TABLE1
    }
    rows_ok = all(err < 0.10 for err in row_errs.values())
    s = preds
    rank_ok = s[(2, 2)] < s[(1, 2)] < s[(2, 1)] < s[(4, 1)] < s[(1, 1)]
    speed_data = s[(1, 1)] / s[(2, 1)]
    speed_model = s[(1, 1)] / s[(1, 2)]
    speed_hybrid = s[(1, 1)] / s[(2, 2)]
    bands_ok = (abs(speed_data - 1.5) <= 0.1 and abs(speed_model - 1.6) <= 0.1
                and abs(speed_hybrid - 2.2) <= 0.2)
    detail = (f"row errors {', '.join(f'{k}={v:.1%}' for k, v in row_errs.items())}; "
              f"rank {'exact' if rank_ok else 'WRONG'}; speedups data2={speed_data:.2f} "
              f"model2={speed_model:.2f} hybrid4={speed_hybrid:.2f}")
    report(4, rows_ok and rank_ok and bands_ok, detail)


def test_criterion_5_underutilization(table1_fit):
    """Calibrated 4-worker data parallelism strictly slower than 2-worker."""
    s = _table1_predictions(table1_fit)
    report(5, s[(4, 1)] > s[(2, 1)],
           f"predicted days: 4-data {s[(4, 1)]:.3f} > 2-data {s[(2, 1)]:.3f}")


def test_criterion_6_determinism(tmp_path, table1_fit):
    """Reruns produce bit-identical CSV/SVG/calibration files; 1-thread
    (lockstep) and multi-thread fabric scheduling agree bit for bit."""
    train_data, test_data = gen_synthetic(10, 8, (3, 16, 16), seed=5, test_per_class=2)

    def run(sched):
        cfg = TrainConfig(
            net=TINY, plan=PLANS[3], epochs=1, batch=8, seed=9,
            train_data=train_data, test_data=test_data, scheduling=sched,
            cost=CostParams(throughput=1e9, bandwidth=1e9, latency=1e-4, b_half=4.0),
        )
        return train(cfg).records

    files = {}
    for tag, records in (("a", run("lockstep")), ("b", run("lockstep")), ("t", run("threads"))):
        csv = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        emit_csv(records, csv)
        emit_svg({"run": records}, "sim_time", svg, y_field="test_error")
        files[tag] = (csv.read_bytes(), svg.read_bytes())
    rerun_ok = files["a"] == files["b"]
    sched_ok = files["a"] == files["t"]

    from parconv.costmodel import save_cost_params

    cal_a, cal_b = tmp_path / "cal_a.cost", tmp_path / "cal_b.cost"
    save_cost_params(table1_fit, cal_a)
    save_cost_params(calibrate(TABLE1, ALEX), cal_b)
    cal_ok = cal_a.read_bytes() == cal_b.read_bytes()
    report(6, rerun_ok and sched_ok and cal_ok,
           f"rerun identical: {rerun_ok}; lockstep == threads: {sched_ok}; "
           f"calibration file identical: {cal_ok}")


def test_criterion_7_memory_feasibility():
    """With capacity between the per-column and full-model footprints, the
    single-worker plan is rejected while the two-column plan trains."""
    batch = 8
    full = worker_footprint_bytes(columnize(TINY, 1), batch, holds_velocity=True)
    col = worker_footprint_bytes(columnize(TINY, 2, (3,)), batch, holds_velocity=True)
    capacity = (col + full) // 2
    train_data, _ = gen_synthetic(10, 8, (3, 16, 16), seed=5)

    def cfg(plan):
        return TrainConfig(net=TINY, plan=plan, epochs=1, batch=batch, seed=1,
                           train_data=train_data, memory_capacity=capacity)

    rejected = False
    try:
        train(cfg(ParallelPlan(1, 1)))
    except InfeasiblePlanError:
        rejected = True
    trained = len(train(cfg(ParallelPlan(1, 2, (3,)))).records) > 0
    report(7, rejected and trained,
           f"capacity {capacity} B (column footprint {col}, full {full}): "
           f"(1,1) rejected: {rejected}, (1,2) trained: {trained}")


def test_criterion_8_learning_sanity():
    """2-class separable blobs reach < 10% test error within 5 epochs under
    every plan."""
    train_data, test_data = gen_synthetic(2, 32, (3, 16, 16), seed=13, test_per_class=16)
    errors = {}
    for plan in PLANS:
        cfg = TrainConfig(
            net=TINY2, plan=plan, epochs=5, batch=16, seed=13,
            train_data=train_data, test_data=test_data,
        )
        records = train(cfg).records
        errors[plan.describe()] = [r.test_error for r in records if r.test_error is not None][-1]
    ok = all(err < 0.10 for err in errors.values())
    report(8, ok, "final test errors: "
           + ", ".join(f"{k}={v:.3f}" for k, v in errors.items()))
