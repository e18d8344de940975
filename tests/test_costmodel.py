import math
from dataclasses import replace

import pytest

from parconv.costmodel import (
    IMAGENET_TRAIN_SIZE,
    CostParams,
    calibrate,
    efficiency,
    load_cost_params,
    predict_total,
    save_cost_params,
    step_time,
)
from parconv.data import gen_synthetic
from parconv.errors import CalibrationError, InfeasiblePlanError, ValidationError
from parconv.netdef import (
    DEFAULT_MEMORY, columnize, load_network, parse_network, shape_report, worker_footprint_bytes,
)
from parconv.schemes import ParallelPlan
from parconv.trainer import TrainConfig, train

from oracles import CONFIGS

TINY = load_network(CONFIGS / "tinynet.net")
ALEX = load_network(CONFIGS / "alexnet.net")
CROSS = (3, 6, 8, 10)
TABLE1 = [
    (ParallelPlan(1, 1), 10.5),
    (ParallelPlan(1, 2, CROSS), 6.6),
    (ParallelPlan(2, 1), 7.0),
    (ParallelPlan(4, 1), 7.2),
    (ParallelPlan(2, 2, CROSS), 4.8),
]


@pytest.fixture(scope="module")
def table1_fit():
    return calibrate(TABLE1, ALEX)


def table1_predictions(cp):
    return {
        (p.data_shards, p.model_columns): predict_total(p, ALEX, 256, 100, IMAGENET_TRAIN_SIZE, cp).days
        for p, _ in TABLE1
    }


# ---------------------------------------------------------------------------
# efficiency curve
# ---------------------------------------------------------------------------


def test_efficiency_half_batch_is_half():
    assert efficiency(64, 64) == 0.5
    assert efficiency(10, 10) == 0.5


def test_efficiency_saturates():
    assert efficiency(100 * 32, 32) > 0.99
    assert efficiency(1, 32) < efficiency(2, 32) < efficiency(4, 32)


def test_efficiency_rejects_nonpositive_batch():
    with pytest.raises(ValidationError):
        efficiency(0, 8)


# ---------------------------------------------------------------------------
# step time
# ---------------------------------------------------------------------------


def test_step_time_pure_compute_limit():
    # e == 1 (b_half ~ 0), no communication for the single-worker plan
    cp = CostParams(throughput=1e9, bandwidth=1.0, latency=0.0, b_half=1e-30)
    st = step_time(ParallelPlan(1, 1), TINY, 8, cp)
    flops = shape_report(TINY, 8).total_flops
    assert st.comm_seconds == 0.0
    assert st.compute_seconds == flops / 1e9
    assert st.step_seconds == st.compute_seconds


def test_step_time_d2_halves_compute_adds_param_round_trip():
    cp = CostParams(throughput=1e9, bandwidth=1e6, latency=0.0, b_half=1e-30)
    st1 = step_time(ParallelPlan(1, 1), TINY, 8, cp)
    st2 = step_time(ParallelPlan(2, 1), TINY, 8, cp)
    assert abs(st2.compute_seconds - st1.compute_seconds / 2) < 1e-15
    p = columnize(TINY, 1).column_param_count
    assert st2.comm_seconds == 2 * p * 4 / 1e6


def test_step_time_latency_term():
    cp = CostParams(throughput=1e9, bandwidth=1e30, latency=0.5, b_half=1e-30)
    st = step_time(ParallelPlan(2, 1), TINY, 8, cp)
    assert abs(st.comm_seconds - 2 * 0.5) < 1e-12  # reduce leg + broadcast leg


def test_step_time_latency_counts_the_busiest_workers_messages():
    # d2m2 on tinynet: six cross phases of one message per worker (four in all)
    # and two collectives of one message at each column root (two in all), so
    # latency is paid 8 times, where the step sends 28 messages
    cp = CostParams(throughput=1e9, bandwidth=1e30, latency=0.5, b_half=1e-30)
    st = step_time(ParallelPlan(2, 2, (3,)), TINY, 8, cp)
    assert abs(st.comm_seconds - 8 * 0.5) < 1e-12


def test_step_time_doubling_batch_doubles_compute_when_saturated():
    cp = CostParams(throughput=1e9, bandwidth=1e30, latency=0.0, b_half=0.01)
    a = step_time(ParallelPlan(1, 1), TINY, 8, cp).compute_seconds
    b = step_time(ParallelPlan(1, 1), TINY, 16, cp).compute_seconds
    assert abs(b / a - 2.0) < 0.01


def test_step_time_memory_infeasible():
    cp = CostParams(throughput=1e9, bandwidth=1e9, latency=0.0, b_half=1.0, memory=1024)
    with pytest.raises(InfeasiblePlanError) as info:
        step_time(ParallelPlan(1, 1), TINY, 8, cp)
    assert info.value.capacity == 1024
    assert info.value.required > 1024
    # the bound is inclusive: the footprint fits exactly, one byte less is refused
    need = worker_footprint_bytes(columnize(TINY, 1), 8, holds_velocity=True)
    assert step_time(ParallelPlan(1, 1), TINY, 8, replace(cp, memory=need)).step_seconds > 0
    with pytest.raises(InfeasiblePlanError) as info:
        step_time(ParallelPlan(1, 1), TINY, 8, replace(cp, memory=need - 1))
    assert (info.value.required, info.value.capacity) == (need, need - 1)


def test_predict_total_epochs():
    cp = CostParams(throughput=1e12, bandwidth=1e9, latency=0.0, b_half=1.0)
    zero = predict_total(ParallelPlan(1, 1), TINY, 8, 0, 1000, cp)
    assert zero.days == 0.0
    one = predict_total(ParallelPlan(1, 1), TINY, 8, 1, 1000, cp)
    ten = predict_total(ParallelPlan(1, 1), TINY, 8, 10, 1000, cp)
    assert abs(ten.total_seconds - 10 * one.total_seconds) < 1e-12
    assert one.steps_per_epoch == math.ceil(1000 / 8)


def test_steps_per_epoch_matches_train_updates():
    """A batch that does not divide the dataset: the remainder is dropped, as train drops it."""
    cp = CostParams(throughput=1e12, bandwidth=1e9, latency=0.0, b_half=1.0)
    train_data, _ = gen_synthetic(10, 9, TINY.input_shape, seed=3, test_per_class=1)
    assert train_data.size == 90
    pred = predict_total(ParallelPlan(1, 1), TINY, 8, 1, train_data.size, cp)
    result = train(TrainConfig(net=TINY, plan=ParallelPlan(1, 1), epochs=1, batch=8, seed=0,
                               train_data=train_data))
    assert pred.steps_per_epoch == len(result.records) == 11
    assert pred.epoch_seconds == 11 * pred.step.step_seconds


def test_dataset_smaller_than_batch_rejected():
    cp = CostParams(throughput=1e12, bandwidth=1e9, latency=0.0, b_half=1.0)
    with pytest.raises(ValidationError, match="dataset too small for one batch"):
        predict_total(ParallelPlan(1, 1), TINY, 8, 1, 7, cp)
    # checked before memory: a plan that does not fit still reports the bad dataset
    tiny_device = CostParams(throughput=1e12, bandwidth=1e9, latency=0.0, b_half=1.0, memory=1024)
    with pytest.raises(ValidationError, match="dataset too small for one batch"):
        predict_total(ParallelPlan(1, 1), TINY, 8, 1, 0, tiny_device)
    with pytest.raises(ValidationError, match="dataset too small for one batch"):
        calibrate(TABLE1, ALEX, batch=256, dataset_size=255)


# ---------------------------------------------------------------------------
# calibration against the observed timings
# ---------------------------------------------------------------------------


def test_calibrate_needs_four_observations():
    with pytest.raises(CalibrationError):
        calibrate(TABLE1[:3], ALEX)


def test_calibrate_rejects_infeasible_observation():
    with pytest.raises(CalibrationError, match="observation d1xm1: plan infeasible"):
        calibrate(TABLE1, ALEX, batch=1024)  # d1m1 needs 6.55 GiB of the 6 GiB default
    for days in (0.0, -1.0):
        bad = TABLE1[:-1] + [(TABLE1[-1][0], days)]
        with pytest.raises(CalibrationError, match=f"days must be positive, got {days} for d2xm2"):
            calibrate(bad, ALEX)


def test_calibrate_takes_an_observation_that_exactly_fills_the_default_memory():
    net = parse_network("input 3 21 21\nfc 12\nsoftmax 12\n")
    batch = 1_195_680  # d1m1 needs exactly DEFAULT_MEMORY at this batch
    assert worker_footprint_bytes(columnize(net, 1), batch) == DEFAULT_MEMORY
    rows = [(ParallelPlan(d, 1), days) for d, days in ((1, 4.0), (2, 2.5), (4, 1.5), (8, 1.0))]
    assert calibrate(rows, net, batch=batch, epochs=1).memory == DEFAULT_MEMORY


def test_calibrate_reproduces_all_rows_within_10_percent(table1_fit):
    preds = table1_predictions(table1_fit)
    for plan, days in TABLE1:
        pred = preds[(plan.data_shards, plan.model_columns)]
        assert abs(pred - days) / days < 0.10, (plan.describe(), pred, days)


def test_calibrate_reproduces_rank_order(table1_fit):
    s = table1_predictions(table1_fit)
    assert s[(2, 2)] < s[(1, 2)] < s[(2, 1)] < s[(4, 1)] < s[(1, 1)]


def test_calibrate_speedups_in_reported_bands(table1_fit):
    s = table1_predictions(table1_fit)
    assert abs(s[(1, 1)] / s[(2, 1)] - 1.5) <= 0.1
    assert abs(s[(1, 1)] / s[(1, 2)] - 1.6) <= 0.1
    assert abs(s[(1, 1)] / s[(2, 2)] - 2.2) <= 0.2


def test_calibrate_underutilization_4_data_slower_than_2(table1_fit):
    s = table1_predictions(table1_fit)
    assert s[(4, 1)] > s[(2, 1)]


def test_calibrate_round_trip_recovery():
    true = CostParams(throughput=2.0e12, bandwidth=5.0e9, latency=0.004, b_half=40.0)
    obs = [
        (p, predict_total(p, ALEX, 256, 100, IMAGENET_TRAIN_SIZE, true).days)
        for p, _ in TABLE1
    ]
    fitted = calibrate(obs, ALEX)
    for key in ("throughput", "bandwidth", "latency", "b_half"):
        t, f = getattr(true, key), getattr(fitted, key)
        assert abs(f - t) / t < 0.05, (key, t, f)


def test_calibrate_deterministic(table1_fit):
    again = calibrate(TABLE1, ALEX)
    assert again == table1_fit


# ---------------------------------------------------------------------------
# monotonicity in the hardware parameters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "plan",
    [ParallelPlan(1, 1), ParallelPlan(2, 1), ParallelPlan(1, 2, CROSS), ParallelPlan(2, 2, CROSS)],
)
def test_monotonicity(plan):
    base = CostParams(throughput=1e12, bandwidth=4e9, latency=1e-3, b_half=32.0)

    def days(cp):
        return predict_total(plan, ALEX, 256, 100, IMAGENET_TRAIN_SIZE, cp).days

    assert days(CostParams(2e12, 4e9, 1e-3, 32.0)) <= days(base)
    assert days(CostParams(1e12, 8e9, 1e-3, 32.0)) <= days(base)
    assert days(CostParams(1e12, 4e9, 2e-3, 32.0)) >= days(base)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_cost_params_file_round_trip(tmp_path):
    cp = CostParams(throughput=1.25e12, bandwidth=3.5e9, latency=0.00125, b_half=17.5)
    path = tmp_path / "params.cost"
    save_cost_params(cp, path)
    assert load_cost_params(path) == cp
    # byte-deterministic rewrite
    first = path.read_bytes()
    save_cost_params(cp, path)
    assert path.read_bytes() == first


def test_cost_params_file_validation(tmp_path):
    path = tmp_path / "bad.cost"
    path.write_text("throughput 1e12\n")
    with pytest.raises(ValidationError, match="missing keys"):
        load_cost_params(path)
    path.write_text("throughput 1e12 extra\n")
    with pytest.raises(ValidationError):
        load_cost_params(path)
    good = "# desk\n\nthroughput 1e12  # F\nbandwidth 1e9\nlatency 0.001\nb_half 4\nmemory 1024\n"
    path.write_text(good)
    assert load_cost_params(path) == CostParams(1e12, 1e9, 0.001, 4.0, 1024)
    path.write_text(good.replace("bandwidth 1e9", "bandwidth fast # bad"))
    with pytest.raises(ValidationError, match="cost params line 4: bandwidth"):
        load_cost_params(path)


def test_cost_params_file_rejects_duplicate_keys(tmp_path):
    # a second line took the first's place
    path = tmp_path / "twice.cost"
    save_cost_params(CostParams(1e12, 1e9, 0.001, 4.0), path)
    path.write_text(path.read_text() + "throughput 2e12\n")
    lineno = len(path.read_text().splitlines())
    with pytest.raises(ValidationError,
                       match=f"cost params line {lineno}: duplicate key 'throughput'"):
        load_cost_params(path)


def test_cost_params_validation():
    with pytest.raises(ValidationError):
        CostParams(throughput=0, bandwidth=1, latency=0, b_half=1)
    with pytest.raises(ValidationError):
        CostParams(throughput=1, bandwidth=1, latency=-1, b_half=1)
    with pytest.raises(ValidationError, match="b_half must be finite"):
        CostParams(throughput=1, bandwidth=1, latency=0, b_half=math.nan)
    with pytest.raises(ValidationError, match="memory must be finite"):
        CostParams(throughput=1, bandwidth=1, latency=0, b_half=1, memory=math.inf)
    with pytest.raises(ValidationError, match="memory capacity must be >= 1 byte, got 0"):
        CostParams(throughput=1, bandwidth=1, latency=0, b_half=1, memory=0)
