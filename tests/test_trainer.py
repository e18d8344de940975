from dataclasses import replace

import numpy as np
import pytest

from parconv import rng
from parconv.costmodel import CostParams, step_time
from parconv.data import Dataset, gen_synthetic
from parconv.errors import InfeasiblePlanError, ValidationError
from parconv.fabric import spawn
from parconv.kernels import SgdState
from parconv.metrics import emit_csv
from parconv.netdef import columnize, load_network, worker_footprint_bytes
from parconv.schemes import ParallelPlan, init_dense_params, plan_columnized, setup_workers
from parconv.trainer import TrainConfig, _fabric_error_rate, run_equivalence, train

from oracles import CONFIGS

TINY = load_network(CONFIGS / "tinynet.net")
TINY2 = load_network(CONFIGS / "tinynet2.net")

PLANS = [
    ParallelPlan(1, 1),
    ParallelPlan(2, 1),
    ParallelPlan(1, 2, (3,)),
    ParallelPlan(2, 2, (3,)),
]


@pytest.fixture(scope="module")
def blobs10():
    return gen_synthetic(10, 8, (3, 16, 16), seed=77, test_per_class=2)


def config(train_data, test_data=None, plan=PLANS[0], **kw):
    defaults = dict(
        net=TINY, plan=plan, epochs=1, batch=8, seed=5,
        train_data=train_data, test_data=test_data,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# schedule invariants
# ---------------------------------------------------------------------------


def test_batch_order_depends_only_on_seed_and_epoch():
    a = rng.permutation(3, 0, 64)
    b = rng.permutation(3, 0, 64)
    c = rng.permutation(3, 1, 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_config_validation(blobs10):
    train_data, test_data = blobs10
    with pytest.raises(ValidationError):
        config(train_data, epochs=0)
    with pytest.raises(ValidationError):
        config(train_data, plan=ParallelPlan(3, 1), batch=8)
    with pytest.raises(ValidationError, match="classes"):
        config(Dataset(train_data.images, train_data.labels % 2, 2))
    small = Dataset(train_data.images[:4], train_data.labels[:4], 10)
    with pytest.raises(ValidationError, match="samples"):
        config(small, batch=8)
    # an empty test split fails before anything is spawned or trained
    empty = Dataset(test_data.images[:0], test_data.labels[:0], 10)
    with pytest.raises(ValidationError, match="test split is empty"):
        config(train_data, empty)


def test_test_split_sample_shape_rejected_up_front(blobs10):
    train_data, _ = blobs10
    _, small = gen_synthetic(10, 2, (3, 8, 8), seed=1)
    with pytest.raises(ValidationError, match=r"test split samples are \(3, 8, 8\)"):
        config(train_data, small)


# ---------------------------------------------------------------------------
# training loop behaviour
# ---------------------------------------------------------------------------


def test_zero_learning_rate_constant_loss(blobs10):
    # frozen optimiser on constant batch content: the loss cannot drift
    sample = blobs10[0].images[0]
    images = np.repeat(sample[None], 16, axis=0)
    constant = Dataset(images, np.zeros(16, dtype=np.int64), 10)
    cfg = config(constant, sgd=SgdState(learning_rate=0.0), epochs=2)
    result = train(cfg)
    losses = [r.train_loss for r in result.records]
    assert len(losses) == 4
    assert max(losses) - min(losses) < 1e-12
    assert all(
        np.array_equal(result.final_params[i][k], init_dense_params(TINY, cfg.seed)[i][k])
        for i in result.final_params
        for k in ("w", "b")
    )


def test_metrics_invariants_and_sim_time_product(blobs10):
    train_data, test_data = blobs10
    cost = CostParams(throughput=1e9, bandwidth=1e9, latency=1e-4, b_half=4.0)
    cfg = config(train_data, test_data, plan=PLANS[3], epochs=2, cost=cost)
    result = train(cfg)
    records = result.records
    assert [r.update for r in records] == list(range(1, len(records) + 1))
    step_s = step_time(cfg.plan, cfg.net, cfg.batch, cost).step_seconds
    assert result.step_seconds == step_s
    for r in records:
        assert r.sim_seconds == r.update * step_s
    ledger = [r.ledger_bytes for r in records]
    assert all(b2 > b1 for b1, b2 in zip(ledger, ledger[1:]))
    # test error recorded exactly on each epoch's last update
    evals = [r for r in records if r.test_error is not None]
    per_epoch = len(records) // 2
    assert [r.update for r in evals] == [per_epoch, 2 * per_epoch]


def test_rerun_bit_identical_csv(tmp_path, blobs10):
    train_data, test_data = blobs10
    paths = []
    for name in ("a", "b"):
        cfg = config(train_data, test_data, plan=PLANS[1], epochs=1)
        result = train(cfg)
        path = tmp_path / f"{name}.csv"
        emit_csv(result.records, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_scheduling_modes_bit_identical(tmp_path, blobs10):
    train_data, test_data = blobs10
    outputs = []
    for sched in ("lockstep", "threads"):
        cfg = config(train_data, test_data, plan=PLANS[3], epochs=1, scheduling=sched)
        result = train(cfg)
        path = tmp_path / f"{sched}.csv"
        emit_csv(result.records, path)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_wall_clock_opt_in(blobs10):
    train_data, _ = blobs10
    silent = train(config(train_data))
    assert all(r.wall_seconds == 0.0 for r in silent.records)
    timed = train(config(train_data, record_wall_time=True))
    walls = [r.wall_seconds for r in timed.records]
    assert walls[-1] > 0.0
    assert all(b >= a for a, b in zip(walls, walls[1:]))


def test_runtime_meter_peak_matches_static_footprint(blobs10):
    """Every worker's meter peak is the footprint formula; only column roots
    (replica 0) hold a velocity."""
    train_data, test_data = blobs10
    for plan in (PLANS[0], PLANS[2], PLANS[3]):
        cfg = config(train_data, test_data, plan=plan, epochs=1)
        result = train(cfg)
        cs = columnize(TINY, plan.model_columns, plan.cross_layers)
        shard = cfg.batch // plan.data_shards
        assert result.fabric.meter.peak == [
            worker_footprint_bytes(cs, shard, holds_velocity=wid < plan.model_columns)
            for wid in range(plan.workers)
        ]


def test_grouped_plan_trains_and_gathers(blobs10):
    """With no cross layer, tinynet's second conv reads its column's slice
    (grouped): training runs and returns the gathered dense parameters, whose
    grouped weight is block-diagonal."""
    train_data, test_data = blobs10
    plan = ParallelPlan(1, 2)
    result = train(config(train_data, test_data, plan=plan))
    w = result.final_params[3]["w"]
    assert w.shape == (8, 8, 3, 3)
    assert not w[:4, 4:].any() and not w[4:, :4].any()
    assert w[:4, :4].all() and w[4:, 4:].all()
    losses = [r.train_loss for r in result.records]
    assert len(losses) == 10 and all(np.isfinite(losses))
    assert np.isfinite(result.records[-1].test_error)
    cs = plan_columnized(TINY, plan)
    assert result.fabric.meter.peak == [worker_footprint_bytes(cs, 8, holds_velocity=True)] * 2


def test_memory_window_rejects_full_model_but_trains_columns(blobs10):
    train_data, _ = blobs10
    batch = 8
    full = worker_footprint_bytes(columnize(TINY, 1), batch, holds_velocity=True)
    col = worker_footprint_bytes(columnize(TINY, 2, (3,)), batch, holds_velocity=True)
    assert col < full
    capacity = (col + full) // 2
    with pytest.raises(InfeasiblePlanError):
        train(config(train_data, plan=ParallelPlan(1, 1), memory_capacity=capacity))
    result = train(config(train_data, plan=ParallelPlan(1, 2, (3,)), memory_capacity=capacity))
    assert len(result.records) > 0
    # the bound is inclusive: the full model trains in exactly its footprint,
    # and one byte less is refused before anything runs
    assert train(config(train_data, memory_capacity=full)).fabric.meter.peak == [full]
    with pytest.raises(InfeasiblePlanError) as info:
        train(config(train_data, memory_capacity=full - 1))
    assert (info.value.required, info.value.capacity) == (full, full - 1)


def test_memory_capacity_overrides_the_cost_memory(blobs10):
    """Without memory_capacity the cost's memory is the device's; a
    memory_capacity wins over it, and the simulated time still comes from the cost."""
    train_data, _ = blobs10
    need = worker_footprint_bytes(columnize(TINY, 1), 8, holds_velocity=True)
    small = CostParams(throughput=1e9, bandwidth=1e9, latency=1e-4, b_half=4.0, memory=need - 1)
    with pytest.raises(InfeasiblePlanError) as info:
        train(config(train_data, cost=small))
    assert info.value.capacity == need - 1
    cfg = config(train_data, cost=small, memory_capacity=need)
    result = train(cfg)
    assert result.fabric.device.memory_capacity == need
    step_s = step_time(cfg.plan, TINY, 8, replace(small, memory=need)).step_seconds
    assert result.step_seconds == step_s > 0
    assert [r.sim_seconds for r in result.records] == [r.update * step_s for r in result.records]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def d1m1_error_rate(net, params, test, eval_batch=256):
    """Error rate of dense parameters on a fresh one-worker fabric."""
    plan = ParallelPlan(1, 1)
    cs = plan_columnized(net, plan)
    fab = spawn(1)
    setup_workers(fab, plan, cs, params, SgdState())
    return _fabric_error_rate(fab, plan, cs, test, eval_batch)


def test_evaluate_all_correct_is_zero():
    net = TINY2
    params = init_dense_params(net, 0)
    train_data, _ = gen_synthetic(2, 8, net.input_shape, seed=1)
    # craft a classifier that keys directly on the label via the head bias
    for idx in params:
        params[idx]["w"][:] = 0.0
        params[idx]["b"][:] = 0.0
    logits_bias = params[max(params)]["b"]
    correct = Dataset(train_data.images, np.zeros(train_data.size, dtype=np.int64), 2)
    logits_bias[0] = 1.0  # always predict class 0
    assert d1m1_error_rate(net, params, correct) == 0.0
    all_wrong = Dataset(train_data.images, np.ones(train_data.size, dtype=np.int64), 2)
    assert d1m1_error_rate(net, params, all_wrong) == 1.0


def test_evaluate_uniform_logits_random_labels():
    # ties resolve to class 0, so the error rate is P(label != 0) ~ 1 - 1/K
    net = TINY
    params = init_dense_params(net, 0)
    for idx in params:
        params[idx]["w"][:] = 0.0
        params[idx]["b"][:] = 0.0
    n, k = 2000, 10
    labels = rng.derive(123, 9).next_u64_array(n) % k
    images = np.zeros((n, 3, 16, 16))
    ds = Dataset(images, labels.astype(np.int64), k)
    err = d1m1_error_rate(net, params, ds)
    assert abs(err - (1 - 1 / k)) < 0.05


def test_fresh_d1m1_fabric_reproduces_the_trained_test_error(blobs10):
    train_data, test_data = blobs10
    cfg = config(train_data, test_data, plan=PLANS[2], epochs=1)
    result = train(cfg)
    fresh_err = d1m1_error_rate(TINY, result.final_params, test_data, cfg.batch)
    fabric_err = [r.test_error for r in result.records if r.test_error is not None][-1]
    assert fresh_err == fabric_err


# ---------------------------------------------------------------------------
# cross-plan equivalence (small version; the acceptance suite runs 50 steps)
# ---------------------------------------------------------------------------


def test_equivalence_short():
    results = run_equivalence(TINY, PLANS, steps=12, seed=3, batch=8)
    for div in results:
        assert div.worst < 1e-9, div


def test_equivalence_all_grids_up_to_four_workers():
    # every d x m grid with 1, 2, or 4 workers follows the same trajectory
    plans = PLANS + [ParallelPlan(4, 1), ParallelPlan(1, 4, (3,))]
    results = run_equivalence(TINY, plans, steps=6, seed=1, batch=8)
    for div in results:
        assert div.worst < 1e-9, div


def test_multi_plan_overlay_has_coincident_pixel_paths(tmp_path, blobs10):
    import re

    from parconv.metrics import emit_svg

    train_data, _ = blobs10
    series = {}
    for plan in (PLANS[0], PLANS[3]):
        result = train(config(train_data, plan=plan, epochs=1))
        series[plan.describe()] = result.records
    path = tmp_path / "overlay.svg"
    emit_svg(series, "updates", path, y_field="train_loss")
    paths = re.findall(r'points="([^"]+)"', path.read_text())
    assert len(paths) == 2 and paths[0] == paths[1]


def test_train_loss_sequences_match_across_plans(blobs10):
    train_data, _ = blobs10
    sequences = []
    for plan in PLANS:
        cfg = config(train_data, plan=plan, epochs=1)
        result = train(cfg)
        sequences.append([r.train_loss for r in result.records])
    base = sequences[0]
    for other in sequences[1:]:
        for a, b in zip(base, other):
            assert abs(a - b) / max(abs(a), abs(b)) < 1e-9
