import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parconv import kernels, schemes
from parconv.errors import CapacityError, ShapeError, ValidationError
from parconv.fabric import DeviceSpec, Fabric, Worker, spawn
from parconv.kernels import SgdState, conv2d_backward
from parconv.netdef import columnize, load_network, parse_network
from parconv.schemes import (
    FabricExchange,
    ParallelPlan,
    column_forward,
    column_fwd_bwd,
    comm_phases,
    comm_volume,
    evaluation_errors,
    gather_dense_params,
    hybrid_step,
    init_dense_params,
    merge_params,
    pack_tree,
    parse_plan,
    plan_columnized,
    reference_step,
    setup_workers,
    split_params,
    unpack_tree,
)

from oracles import CONFIGS

TINY = load_network(CONFIGS / "tinynet.net")
MINI = load_network(CONFIGS / "minicnn.net")
MID = load_network(CONFIGS.parent / "stepbench" / "configs" / "midnet.net")


def make_batch(net, b, seed=0):
    rs = np.random.RandomState(seed)
    x = rs.randn(b, *net.input_shape)
    y = rs.randint(0, net.classes, size=b)
    return x, y


def max_rel(a, b):
    worst = 0.0
    for idx in a:
        for key in ("w", "b"):
            ta, tb = a[idx][key], b[idx][key]
            scale = max(np.max(np.abs(ta)), np.max(np.abs(tb)), 1e-300)
            worst = max(worst, float(np.max(np.abs(ta - tb)) / scale))
    return worst


def run_plan(net, plan, batches, seed=0):
    cs = plan_columnized(net, plan)
    fab = spawn(plan.workers)
    setup_workers(fab, plan, cs, init_dense_params(net, seed), SgdState())
    losses = [hybrid_step(fab, plan, cs, x, y).loss for x, y in batches]
    return losses, gather_dense_params(fab, plan, cs), fab


# ---------------------------------------------------------------------------
# plan files
# ---------------------------------------------------------------------------


def test_parse_plan():
    plan = parse_plan("data_shards 2\nmodel_columns 2\ncross_layers 3\n")
    assert plan == ParallelPlan(2, 2, (3,))
    assert plan.workers == 4
    assert plan.worker_of(1, 0) == 2
    commented = "# hybrid\n\ndata_shards 2  # replicas\nmodel_columns\t2\ncross_layers 3, 6 # x\n"
    assert parse_plan(commented) == ParallelPlan(2, 2, (3, 6))


def test_parse_plan_defaults_and_errors():
    assert parse_plan("") == ParallelPlan(1, 1, ())
    with pytest.raises(ValidationError):
        parse_plan("data_shards x\n")
    with pytest.raises(ValidationError):
        parse_plan("gpus 4\n")
    with pytest.raises(ValidationError, match=r"line 3: bad integer in 'cross_layers 3,x'"):
        parse_plan("# plan\n\ncross_layers 3,x  # bad\n")
    with pytest.raises(ValidationError, match="line 2: unknown plan key 'gpus'"):
        parse_plan("\ngpus 4 # bad\n")
    with pytest.raises(ValidationError):
        ParallelPlan(0, 1)


# ---------------------------------------------------------------------------
# parameter split / merge round trip
# ---------------------------------------------------------------------------


def test_split_merge_roundtrip_exact():
    dense = init_dense_params(TINY, 11)
    cs = columnize(TINY, 2, (3,))
    columns = [split_params(dense, cs, j) for j in range(2)]
    back = merge_params(columns, cs)
    assert max_rel(back, dense) == 0.0


def test_split_shares_head_copy():
    dense = init_dense_params(TINY, 11)
    cs = columnize(TINY, 4, (3,))
    cols = [split_params(dense, cs, j) for j in range(4)]
    for col in cols:
        assert np.array_equal(col[7]["w"], dense[7]["w"])
    assert merge_params(cols, cs)[7]["w"] is not cols[0][7]["w"]


def assert_gathers_block_diagonal(plan, cs, fab, x):
    """A grouped plan gathers: each grouped weight is zero off its columns'
    blocks, split_params gives back replica 0's columns bit for bit, and the
    dense network computes the plan's logits on `x`."""
    m = plan.model_columns
    columns = fab.run(lambda ctx: ctx.local["layers"])[:m]
    merged = gather_dense_params(fab, plan, cs)
    for cl in cs.param_layers():
        if cl.grouped:
            n, c = cl.weight_shape[:2]
            blocks = np.kron(np.eye(m), np.ones((n, c))) > 0
            assert not merged[cl.index]["w"][~blocks].any()
    for j, column in enumerate(columns):
        back = split_params(merged, cs, j)
        assert all(np.array_equal(back[i][k], column[i][k]) for i in column for k in ("w", "b"))

    def forward(ctx):
        exchange = FabricExchange(ctx, 0, ctx.wid, m)
        return column_forward(cs, columns[ctx.wid], x, exchange)[0]

    want = spawn(m).run(forward)[0]
    got = column_forward(columnize(cs.base, 1), merged, x, None)[0]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [2, 4])
def test_grouped_merge_is_block_diagonal(m):
    """Without the conv cross, tinynet's layer 3 reads its column's slice
    (grouped); after three steps its columns still merge."""
    plan = ParallelPlan(1, m)
    cs = plan_columnized(TINY, plan)
    assert [cl.index for cl in cs.col_layers if cl.grouped] == [3]
    batches = [make_batch(TINY, 8, seed=s) for s in range(3)]
    _, _, fab = run_plan(TINY, plan, batches)
    assert_gathers_block_diagonal(plan, cs, fab, batches[0][0])


def test_merge_rejects_wrong_column_count_and_diverged_heads():
    dense = init_dense_params(TINY, 1)
    cs = columnize(TINY, 2, (3,))
    cols = [split_params(dense, cs, j) for j in range(2)]
    with pytest.raises(ValidationError, match="merge_params needs 2 column sets, got 1"):
        merge_params(cols[:1], cs)
    w, b = cols[1][7]["w"], cols[1][7]["b"]
    for diverged in ({"w": w + 1.0, "b": b}, {"w": w, "b": b + 1.0}):
        cols[1][7] = diverged
        with pytest.raises(ValidationError, match="layer 7: replicated head copies diverged"):
            merge_params(cols, cs)


def test_pack_unpack_roundtrip():
    dense = init_dense_params(MINI, 5)
    cs = columnize(MINI, 1)
    flat = pack_tree(dense, cs)
    assert flat.size == cs.column_param_count
    back = unpack_tree(flat, cs)
    assert max_rel(back, dense) == 0.0
    with pytest.raises(ValidationError):
        unpack_tree(flat[:-1], cs)


def test_init_is_seed_deterministic_and_scaled():
    a = init_dense_params(TINY, 3)
    b = init_dense_params(TINY, 3)
    c = init_dense_params(TINY, 4)
    assert max_rel(a, b) == 0.0
    assert max_rel(a, c) > 0.0
    # fan-in scaling by default: conv0 sees 3 * 3 * 3 = 27 inputs
    w = a[0]["w"]
    assert abs(float(np.std(w)) - (2.0 / 27) ** 0.5) < 0.05
    assert not a[0]["b"].any()


# ---------------------------------------------------------------------------
# reference step
# ---------------------------------------------------------------------------


def test_reference_zero_lr_keeps_params():
    params = init_dense_params(TINY, 0)
    x, y = make_batch(TINY, 4)
    out = reference_step(TINY, params, (x, y), SgdState(learning_rate=0.0))
    assert np.isfinite(out.loss)
    assert max_rel(out.params, params) == 0.0


def test_reference_step_rejects_bad_inputs():
    params = init_dense_params(TINY, 0)
    x, y = make_batch(TINY, 4)
    with pytest.raises(ValidationError, match="reference_step needs a non-empty batch"):
        reference_step(TINY, params, (x[:0], y[:0]), SgdState())
    velocity = reference_step(TINY, params, (x, y), SgdState()).velocity
    with pytest.raises(ShapeError, match="reference_step: 7 velocity tensors for 8 parameters"):
        reference_step(TINY, params, (x, y), SgdState(), velocity[:-1])


def test_reference_uniform_logits_loss_ln10():
    params = init_dense_params(TINY, 0)
    params[7]["w"][:] = 0.0  # zero the classifier head: logits all zero
    params[7]["b"][:] = 0.0
    x, y = make_batch(TINY, 6)
    out = reference_step(TINY, params, (x, y), SgdState())
    assert abs(out.loss - np.log(10)) < 1e-9


def test_reference_loss_decreases_on_separable_data():
    from parconv.data import gen_synthetic

    net = load_network(CONFIGS / "tinynet2.net")
    train, _ = gen_synthetic(2, 16, net.input_shape, seed=5)
    params = init_dense_params(net, 5)
    sgd, velocity = SgdState(), None
    losses = []
    for step in range(20):
        lo = (step * 8) % 24
        x = train.images[lo : lo + 8]
        y = train.labels[lo : lo + 8]
        out = reference_step(net, params, (x, y), sgd, velocity)
        params, velocity = out.params, out.velocity
        losses.append(out.loss)
    assert np.mean(losses[-5:]) < losses[0]


# ---------------------------------------------------------------------------
# scheme equivalences
# ---------------------------------------------------------------------------


def test_data_parallel_d1_bit_identical_to_reference():
    plan = ParallelPlan(1, 1)
    cs = plan_columnized(TINY, plan)
    fab = spawn(1)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 2), SgdState())
    x, y = make_batch(TINY, 4, seed=2)

    ref_params = init_dense_params(TINY, 2)
    ref = reference_step(TINY, ref_params, (x, y), SgdState())
    step = hybrid_step(fab, plan, cs, x, y)
    assert step.loss == ref.loss  # bit-identical
    assert max_rel(gather_dense_params(fab, plan, cs), ref.params) == 0.0
    assert step.ledger_bytes == 0


def test_data_parallel_two_shards_matches_reference():
    plan = ParallelPlan(2, 1)
    batches = [make_batch(TINY, 8, seed=s) for s in range(3)]
    losses, merged, fab = run_plan(TINY, plan, batches, seed=2)

    params = init_dense_params(TINY, 2)
    sgd, velocity = SgdState(), None
    for (x, y), got in zip(batches, losses):
        out = reference_step(TINY, params, (x, y), sgd, velocity)
        params, velocity = out.params, out.velocity
        assert abs(out.loss - got) / abs(out.loss) < 1e-9
    assert max_rel(merged, params) < 1e-9


def test_data_parallel_ledger_formula():
    plan = ParallelPlan(2, 1)
    cs = plan_columnized(TINY, plan)
    fab = spawn(2)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    x, y = make_batch(TINY, 8)
    step = hybrid_step(fab, plan, cs, x, y)
    p = cs.column_param_count
    assert step.ledger_bytes == 2 * (2 - 1) * p * 4
    assert step.ledger_messages == 2


def test_data_parallel_requires_divisible_batch():
    plan = ParallelPlan(2, 1)
    cs = plan_columnized(TINY, plan)
    fab = spawn(2)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    x, y = make_batch(TINY, 5)
    with pytest.raises(ValidationError, match="divisible"):
        hybrid_step(fab, plan, cs, x, y)


def test_wrapper_plan_validation():
    dense, sgd = init_dense_params(TINY, 0), SgdState()
    d1m2 = ParallelPlan(1, 2, (3,))
    with pytest.raises(ValidationError, match=r"\(1 columns.*not plan_columnized.*plan d1xm2"):
        setup_workers(spawn(2), d1m2, plan_columnized(TINY, ParallelPlan(2, 1)), dense, sgd)
    with pytest.raises(ValidationError, match="workers"):
        setup_workers(spawn(3), ParallelPlan(2, 2, (3,)),
                      plan_columnized(TINY, ParallelPlan(2, 2, (3,))), dense, sgd)
    # the plan's column count without its cross layer: trained, it would ledger
    # half of what comm_volume says
    with pytest.raises(ValidationError, match=r"plan d1xm2 with cross layers \[3\]"):
        setup_workers(spawn(2), d1m2, columnize(TINY, 2), dense, sgd)


def test_failed_step_gives_back_accounted_memory():
    plan = ParallelPlan(1, 2, (3,))
    cs = plan_columnized(TINY, plan)
    fab = spawn(2)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    before = list(fab.meter.current)
    x, y = make_batch(TINY, 4)
    y[0] = 99  # no such class: the loss layer raises mid-step
    with pytest.raises(ValidationError, match="labels"):
        hybrid_step(fab, plan, cs, x, y)
    assert fab.meter.current == before


def test_empty_batch_rejected():
    plan = ParallelPlan(2, 1)
    cs = plan_columnized(TINY, plan)
    fab = spawn(2)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    x, y = make_batch(TINY, 0)
    with pytest.raises(ValidationError, match="non-empty"):
        hybrid_step(fab, plan, cs, x, y)


@pytest.mark.parametrize("sched", ["lockstep", "threads"])
def test_bad_batch_rejected_before_any_worker_starts(sched):
    """A label short, samples of the wrong shape and labels outside
    [0, classes) each raise a ValidationError naming the problem before any
    worker starts; the next step then trains as on a fresh fabric."""
    plan = ParallelPlan(2, 1)
    cs = plan_columnized(TINY, plan)
    x, y = make_batch(TINY, 8)
    high, low = y.copy(), y.copy()
    high[3], low[5] = TINY.classes, -1
    fab = spawn(2, scheduling=sched)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    bad = [
        (x, y[:7], r"labels of shape \(7,\) for 8 samples"),
        (x[:, :, :15, :15], y, r"samples of shape \(3, 15, 15\)"),
        (x, high, r"labels must lie in \[0, 10\)"),
        (x, low, r"labels must lie in \[0, 10\)"),
    ]
    for bad_x, bad_y, message in bad:
        with pytest.raises(ValidationError, match=message):
            hybrid_step(fab, plan, cs, bad_x, bad_y)
    assert fab.ledger.total_bytes == 0
    fresh = spawn(2, scheduling=sched)
    setup_workers(fresh, plan, cs, init_dense_params(TINY, 0), SgdState())
    assert hybrid_step(fab, plan, cs, x, y) == hybrid_step(fresh, plan, cs, x, y)
    got, want = gather_dense_params(fab, plan, cs), gather_dense_params(fresh, plan, cs)
    assert all(got[i][key].tobytes() == want[i][key].tobytes() for i in want for key in ("w", "b"))


@pytest.mark.parametrize("sched", ["lockstep", "threads"])
def test_evaluation_errors_rejects_bad_batch_before_any_worker_starts(sched):
    """evaluation_errors checks its batch as hybrid_step does: 1 or 7 labels
    for 8 samples, samples of the wrong shape, a label outside [0, classes)
    and float labels each raise a ValidationError naming the problem before
    any worker starts; the next call counts as on a fresh fabric."""
    plan = ParallelPlan(1, 2, (3,))
    cs = plan_columnized(TINY, plan)
    x, y = make_batch(TINY, 8)
    high = y.copy()
    high[3] = TINY.classes
    fab = spawn(2, scheduling=sched)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    bad = [
        (x, y[:1], r"labels of shape \(1,\) for 8 samples"),
        (x, y[:7], r"labels of shape \(7,\) for 8 samples"),
        (x[:, :, :15, :15], y, r"samples of shape \(3, 15, 15\)"),
        (x, high, r"labels must lie in \[0, 10\)"),
        (x, y + 0.7, r"labels of dtype float64"),
    ]
    for bad_x, bad_y, message in bad:
        with pytest.raises(ValidationError, match=message):
            evaluation_errors(fab, plan, cs, bad_x, bad_y)
    assert fab.ledger.total_bytes == 0
    fresh = spawn(2, scheduling=sched)
    setup_workers(fresh, plan, cs, init_dense_params(TINY, 0), SgdState())
    assert evaluation_errors(fab, plan, cs, x, y) == evaluation_errors(fresh, plan, cs, x, y)
    assert fab.ledger.total_bytes == fresh.ledger.total_bytes > 0


@pytest.mark.parametrize("sched", ["lockstep", "threads"])
def test_hybrid_step_rejects_non_integer_labels(sched):
    """Float labels, even whole-valued ones, are refused rather than truncated;
    the next step trains as on a fresh fabric."""
    plan = ParallelPlan(2, 1)
    cs = plan_columnized(TINY, plan)
    x, y = make_batch(TINY, 8)
    fab = spawn(2, scheduling=sched)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    for bad_y in (y + 0.7, y.astype(np.float64)):
        with pytest.raises(ValidationError, match="labels of dtype float64"):
            hybrid_step(fab, plan, cs, x, bad_y)
    fresh = spawn(2, scheduling=sched)
    setup_workers(fresh, plan, cs, init_dense_params(TINY, 0), SgdState())
    assert hybrid_step(fab, plan, cs, x, y) == hybrid_step(fresh, plan, cs, x, y)
    assert hybrid_step(fab, plan, cs, x, y.astype(np.int32)) == hybrid_step(fresh, plan, cs, x, y)


def test_second_setup_gives_back_accounted_memory():
    plan = ParallelPlan(2, 1)
    cs = plan_columnized(TINY, plan)
    fab = spawn(2)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    first = list(fab.meter.current)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 1), SgdState())
    assert fab.meter.current == first


ENTRY_POINTS = pytest.mark.parametrize(
    "call",
    [
        lambda fab, plan, cs, x, y: hybrid_step(fab, plan, cs, x, y),
        lambda fab, plan, cs, x, y: evaluation_errors(fab, plan, cs, x, y),
        lambda fab, plan, cs, x, y: gather_dense_params(fab, plan, cs),
    ],
    ids=["hybrid_step", "evaluation_errors", "gather_dense_params"],
)


@ENTRY_POINTS
def test_workers_never_set_up_are_named(call):
    plan = ParallelPlan(1, 1)
    x, y = make_batch(TINY, 4)
    with pytest.raises(ValidationError, match="worker 0 has no parameters; run setup_workers"):
        call(spawn(1), plan, plan_columnized(TINY, plan), x, y)


@pytest.mark.parametrize("sched", ["lockstep", "threads"])
@ENTRY_POINTS
def test_failed_setup_leaves_workers_empty(call, sched):
    """A set-up that does not fit accounts nothing and stores nothing."""
    plan = ParallelPlan(1, 1)
    cs = plan_columnized(TINY, plan)
    fab = spawn(1, device=DeviceSpec(memory_capacity=1000), scheduling=sched)
    with pytest.raises(CapacityError):
        setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    assert fab.meter.current == [0]
    x, y = make_batch(TINY, 4)
    with pytest.raises(ValidationError, match="run setup_workers first"):
        call(fab, plan, cs, x, y)


@pytest.mark.parametrize("sched", ["lockstep", "threads"])
@ENTRY_POINTS
def test_plan_other_than_the_set_up_one_is_named(call, sched):
    """Set up under d2m1, then called with d1m2 on the same two workers."""
    fab = spawn(2, scheduling=sched)
    setup = ParallelPlan(2, 1)
    setup_workers(fab, setup, plan_columnized(TINY, setup), init_dense_params(TINY, 0), SgdState())
    other = ParallelPlan(1, 2, (3,))
    x, y = make_batch(TINY, 4)
    with pytest.raises(ValidationError, match="worker 0 was set up for a different plan"):
        call(fab, other, plan_columnized(TINY, other), x, y)
    assert hybrid_step(fab, setup, plan_columnized(TINY, setup), x, y).loss > 0


PAPER_PLANS = [ParallelPlan(1, 1), ParallelPlan(2, 1), ParallelPlan(1, 2, (3,)),
               ParallelPlan(2, 2, (3,)), ParallelPlan(4, 1)]


class Injected(Exception):
    """The fault the injection test raises inside one worker."""


@st.composite
def faults(draw):
    """(plan, scheduler, worker, site, k): the worker raises on its k-th call of site."""
    plan = draw(st.sampled_from(PAPER_PLANS))
    return (plan, draw(st.sampled_from(["lockstep", "threads"])),
            draw(st.integers(0, plan.workers - 1)),
            draw(st.sampled_from(["send", "recv", "relu_backward"])), draw(st.integers(0, 3)))


@given(fault=faults())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_failed_step_leaves_the_fabric_as_found(fault):
    """A step whose worker raises on its k-th send, recv or relu_backward raises that
    error and leaves no message, ledgered byte or accounted byte behind; the next
    step is refused, and after a fresh set-up the fabric trains bit-identically
    to one that never failed. A worker making k calls or fewer just finishes the
    step."""
    plan, sched, victim, site, k = fault
    cs = plan_columnized(TINY, plan)
    batches = [make_batch(TINY, 8, seed) for seed in range(4)]
    fab = spawn(plan.workers, scheduling=sched)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    hybrid_step(fab, plan, cs, *batches[0])
    ledger, meter = fab.ledger.snapshot(), list(fab.meter.current)

    tls, calls = threading.local(), [0]
    run = Fabric.run

    def tagged_run(fabric, program, args=None):
        def tagged(ctx, *a):
            tls.wid = ctx.wid
            return program(ctx, *a)
        return run(fabric, tagged, args)

    def faulty(fn):
        def call(*args, **kwargs):
            if getattr(tls, "wid", None) == victim:
                if calls[0] == k:
                    raise Injected(f"worker {victim}: {site} call {k}")
                calls[0] += 1
            return fn(*args, **kwargs)
        return call

    owner = schemes if site == "relu_backward" else Worker
    failed = False
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fabric, "run", tagged_run)
        mp.setattr(owner, site, faulty(getattr(owner, site)))
        try:
            hybrid_step(fab, plan, cs, *batches[1])
        except Injected as err:
            assert str(err) == f"worker {victim}: {site} call {k}"
            assert not any(fab._channels.values())
            assert fab.ledger.snapshot() == ledger
            assert fab.meter.current == meter
            failed = True
    if failed:
        with pytest.raises(ValidationError, match="run setup_workers first"):
            hybrid_step(fab, plan, cs, *batches[1])

    def train_afresh(fabric):
        setup_workers(fabric, plan, cs, init_dense_params(TINY, 0), SgdState())
        steps = []
        for x, y in batches[2:]:
            before = fabric.ledger.snapshot()
            loss = hybrid_step(fabric, plan, cs, x, y).loss
            steps.append((loss, link_delta(before, fabric.ledger.snapshot())))
        params = gather_dense_params(fabric, plan, cs)
        return steps, {(i, key): t[key].tobytes() for i, t in params.items() for key in ("w", "b")}

    assert train_afresh(fab) == train_afresh(spawn(plan.workers, scheduling=sched))


@pytest.mark.parametrize("sched", ["lockstep", "threads"])
def test_root_failing_after_its_update_is_refused_until_set_up(monkeypatch, sched):
    """Column root worker 0 raises on its broadcast, after its sgd_step, so its
    parameters are ahead of replica worker 2's: every entry point refuses the
    torn fabric, naming worker 0, until setup_workers runs again."""
    plan = ParallelPlan(2, 2, (3,))
    cs = plan_columnized(TINY, plan)
    x, y = make_batch(TINY, 8)
    fab = spawn(plan.workers, scheduling=sched)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    send = Worker.send

    def failing_send(ctx, dst, tag, value):
        if ctx.wid == 0 and tag == "bcast":
            raise Injected("worker 0: bcast")
        return send(ctx, dst, tag, value)

    with monkeypatch.context() as mp:
        mp.setattr(Worker, "send", failing_send)
        with pytest.raises(Injected):
            hybrid_step(fab, plan, cs, x, y)
    for call in (lambda: hybrid_step(fab, plan, cs, x, y),
                 lambda: evaluation_errors(fab, plan, cs, x, y),
                 lambda: gather_dense_params(fab, plan, cs)):
        with pytest.raises(ValidationError, match="worker 0 did not finish its last step"):
            call()
    setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    assert hybrid_step(fab, plan, cs, x, y).loss > 0


@pytest.mark.parametrize("plan", [ParallelPlan(2, 2, (3,)), ParallelPlan(4, 1)], ids=["d2m2", "d4m1"])
def test_midnet_schedulers_bit_identical(plan):
    """midnet at batch 32 runs GEMMs large enough for OpenBLAS's blocked paths,
    which tinynet's are not: losses, ledger and parameters match bit for bit."""
    cs = plan_columnized(MID, plan)
    batches = [make_batch(MID, 32, seed) for seed in (1, 2)]
    runs = []
    for sched in ("lockstep", "threads"):
        fab = spawn(plan.workers, scheduling=sched)
        setup_workers(fab, plan, cs, init_dense_params(MID, 0), SgdState())
        losses = [hybrid_step(fab, plan, cs, x, y).loss for x, y in batches]
        params = gather_dense_params(fab, plan, cs)
        raw = {(i, k): (t[k].shape, t[k].tobytes()) for i, t in params.items() for k in ("w", "b")}
        runs.append((losses, fab.ledger.snapshot(), raw))
    (losses, ledger, raw), (losses_t, ledger_t, raw_t) = runs
    assert np.array(losses).tobytes() == np.array(losses_t).tobytes()
    assert ledger == ledger_t
    assert raw == raw_t


@pytest.mark.parametrize(
    "plan, sched",
    [(ParallelPlan(1, 1), "lockstep"), (ParallelPlan(1, 2, (3,)), "threads"),
     (ParallelPlan(2, 2, (3,)), "threads"), (ParallelPlan(4, 1), "threads")],
    ids=["d1m1-lockstep", "d1m2-threads", "d2m2-threads", "d4m1-threads"],
)
def test_warm_updates_barely_fault(plan, sched):
    """With malloc pinned (kernels.MALLOC_PINNED), a warm midnet update at batch 32
    reuses the pages of the one before: under 100 minor page faults per update,
    where glibc's default thresholds take thousands."""
    if kernels.MALLOC_PINNED is not True:
        pytest.skip("malloc's thresholds are not pinned")
    import resource  # glibc implies a Unix
    cs = plan_columnized(MID, plan)
    fab = spawn(plan.workers, scheduling=sched)
    setup_workers(fab, plan, cs, init_dense_params(MID, 0), SgdState())
    batches = [make_batch(MID, 32, seed) for seed in range(8)]
    for x, y in batches[:3]:
        hybrid_step(fab, plan, cs, x, y)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for x, y in batches[3:]:
        hybrid_step(fab, plan, cs, x, y)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5
    assert faults < 100


@pytest.mark.parametrize("sched", ["lockstep", "threads"])
def test_paper_plans_leave_no_message_behind(sched):
    """A run that ends with an undelivered message raises, so each call passing is the check."""
    x, y = make_batch(TINY, 8)
    for d, m in [(1, 1), (2, 1), (1, 2), (2, 2), (4, 1)]:
        plan = ParallelPlan(d, m, (3,) if m > 1 else ())
        cs = plan_columnized(TINY, plan)
        fab = spawn(plan.workers, scheduling=sched)
        setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
        hybrid_step(fab, plan, cs, x, y)
        assert 0 <= evaluation_errors(fab, plan, cs, x, y) <= 8


def test_model_parallel_matches_reference_after_10_steps():
    plan = ParallelPlan(1, 2, (3,))
    batches = [make_batch(TINY, 8, seed=100 + s) for s in range(10)]
    losses, merged, fab = run_plan(TINY, plan, batches, seed=9)

    params = init_dense_params(TINY, 9)
    sgd, velocity = SgdState(), None
    for (x, y), got in zip(batches, losses):
        out = reference_step(TINY, params, (x, y), sgd, velocity)
        params, velocity = out.params, out.velocity
        assert abs(out.loss - got) / abs(out.loss) < 1e-9
    assert max_rel(merged, params) < 1e-9


def test_model_parallel_ledger_equals_cross_phases():
    plan = ParallelPlan(1, 2, (3,))
    cs = plan_columnized(TINY, plan)
    fab = spawn(2)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    x, y = make_batch(TINY, 6)
    step = hybrid_step(fab, plan, cs, x, y)
    phases = comm_phases(plan, cs, 6)
    assert all(ph.label.startswith("cross") for ph in phases)
    assert step.ledger_bytes == sum(ph.total_bytes for ph in phases)


def test_reparameterization_bijection_single_step():
    # map columnized params back to the dense layout and run the reference:
    # it must reproduce the columnized update within 1e-12
    plan = ParallelPlan(1, 2, (3,))
    cs = plan_columnized(TINY, plan)
    dense = init_dense_params(TINY, 21)
    fab = spawn(2)
    setup_workers(fab, plan, cs, dense, SgdState())
    x, y = make_batch(TINY, 4, seed=21)
    hybrid_step(fab, plan, cs, x, y)
    merged = gather_dense_params(fab, plan, cs)

    ref = reference_step(TINY, dense, (x, y), SgdState())
    assert max_rel(merged, ref.params) < 1e-12


def test_hybrid_2x2_matches_reference():
    plan = ParallelPlan(2, 2, (3,))
    batches = [make_batch(TINY, 8, seed=300 + s) for s in range(10)]
    losses, merged, fab = run_plan(TINY, plan, batches, seed=4)

    params = init_dense_params(TINY, 4)
    sgd, velocity = SgdState(), None
    for (x, y), got in zip(batches, losses):
        out = reference_step(TINY, params, (x, y), sgd, velocity)
        params, velocity = out.params, out.velocity
        assert abs(out.loss - got) / abs(out.loss) < 1e-9
    assert max_rel(merged, params) < 1e-9


def test_hybrid_ledger_decomposition():
    # cross bytes per replica x d plus the per-column reduce/broadcast round trip
    plan = ParallelPlan(2, 2, (3,))
    cs = plan_columnized(TINY, plan)
    fab = spawn(4)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    b = 8
    x, y = make_batch(TINY, b)
    step = hybrid_step(fab, plan, cs, x, y)
    one_replica = comm_phases(ParallelPlan(1, 2, (3,)), cs, b // 2)
    cross_per_replica = sum(ph.total_bytes for ph in one_replica)
    dp_round_trip = 2 * (2 - 1) * cs.column_param_count * 4 * 2  # per column, 2 columns
    assert step.ledger_bytes == cross_per_replica * 2 + dp_round_trip


# ---------------------------------------------------------------------------
# gradient semantics
# ---------------------------------------------------------------------------


def test_shard_gradients_sum_to_full_batch_gradient():
    # 1/B-normalised shard gradients reassociate to the full-batch mean gradient
    cs = columnize(TINY, 1)
    params = init_dense_params(TINY, 8)
    x, y = make_batch(TINY, 8, seed=8)
    _, full = column_fwd_bwd(cs, params, x, y, 1.0 / 8, None)
    _, left = column_fwd_bwd(cs, params, x[:4], y[:4], 1.0 / 8, None)
    _, right = column_fwd_bwd(cs, params, x[4:], y[4:], 1.0 / 8, None)
    for idx in full:
        for key in ("w", "b"):
            combined = left[idx][key] + right[idx][key]
            scale = max(np.max(np.abs(full[idx][key])), 1e-300)
            assert np.max(np.abs(combined - full[idx][key])) / scale < 1e-12


def test_first_layer_input_gradient_is_not_computed(monkeypatch):
    """The image gradient is thrown away, so layer 0's backward skips it."""
    flags = []

    def spy(*args, **kwargs):
        flags.append(kwargs.get("input_grad", True))
        return conv2d_backward(*args, **kwargs)

    monkeypatch.setattr(schemes, "conv2d_backward", spy)
    x, y = make_batch(TINY, 4)
    column_fwd_bwd(columnize(TINY, 1), init_dense_params(TINY, 0), x, y, 1.0 / 4, None)
    assert flags == [True, False]  # layer 3, then layer 0


def test_losses_are_finite_and_plan_loss_is_full_batch_mean():
    plan = ParallelPlan(4, 1)
    cs = plan_columnized(TINY, plan)
    fab = spawn(4)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 6), SgdState())
    x, y = make_batch(TINY, 8, seed=6)
    step = hybrid_step(fab, plan, cs, x, y)
    params = init_dense_params(TINY, 6)
    cs1 = columnize(TINY, 1)
    logits = None
    loss_ref, _ = column_fwd_bwd(cs1, params, x, y, 1.0 / 8, None)
    assert abs(step.loss - loss_ref) < 1e-12


# ---------------------------------------------------------------------------
# comm volume closed forms
# ---------------------------------------------------------------------------


def test_comm_volume_trivial_and_dp():
    assert comm_volume(ParallelPlan(1, 1), TINY, 8) == comm_volume(ParallelPlan(1, 1), TINY, 8)
    assert comm_volume(ParallelPlan(1, 1), TINY, 8).bytes == 0
    p = columnize(TINY, 1).column_param_count
    assert comm_volume(ParallelPlan(2, 1), TINY, 8).bytes == 2 * p * 4


def phase_links(plan, cs, batch):
    """{(src, dst): (bytes, messages)} per step as comm_phases implies: each
    phase's per-pair load on every link between columns of one replica
    (cross phases) or between a column root and its replicas (collectives)."""
    d, m = plan.data_shards, plan.model_columns
    links = {}
    for ph in comm_phases(plan, cs, batch):
        if ph.label.startswith("cross"):
            pair = ph.max_node_bytes // (m - 1)
            pairs = [(plan.worker_of(r, j), plan.worker_of(r, k))
                     for r in range(d) for j in range(m) for k in range(m) if j != k]
        else:
            pair = ph.max_node_bytes // (d - 1)
            pairs = [(plan.worker_of(r, j), plan.worker_of(0, j))
                     for j in range(m) for r in range(1, d)]
            if ph.label == "param-broadcast":
                pairs = [(dst, src) for src, dst in pairs]
        assert pair * len(pairs) == ph.total_bytes and len(pairs) == ph.total_messages
        for link in pairs:
            nbytes, count = links.get(link, (0, 0))
            links[link] = (nbytes + pair, count + 1)
    return links


def link_delta(before, after):
    """{(src, dst): (bytes, messages)} the ledger gained between two snapshots."""
    delta = {}
    for link, (nbytes, count) in after.items():
        old_bytes, old_count = before.get(link, (0, 0))
        if (nbytes, count) != (old_bytes, old_count):
            delta[link] = (nbytes - old_bytes, count - old_count)
    return delta


@pytest.mark.parametrize("net", [TINY, MINI, MID])
@pytest.mark.parametrize(
    "plan",
    [
        ParallelPlan(1, 1),
        ParallelPlan(2, 1),
        ParallelPlan(1, 2),
        ParallelPlan(2, 2),
        ParallelPlan(4, 1),
        ParallelPlan(1, 4),
    ],
)
def test_ledger_equals_comm_volume(net, plan):
    if plan.model_columns > 1 and net is not MINI:
        plan = ParallelPlan(plan.data_shards, plan.model_columns, (3,))
    cs = plan_columnized(net, plan)
    fab = spawn(plan.workers)
    setup_workers(fab, plan, cs, init_dense_params(net, 0), SgdState())
    x, y = make_batch(net, 8)
    expected_links = phase_links(plan, cs, 8)
    if plan.data_shards > 1:  # each same-column link carries P * 4 bytes each way
        root, other = plan.worker_of(0, 0), plan.worker_of(1, 0)
        assert expected_links[(root, other)] == expected_links[(other, root)]
        assert expected_links[(root, other)][0] == cs.column_param_count * 4
    for _ in range(2):  # steady-state step deltas
        before_b, before_m = fab.ledger.total_bytes, fab.ledger.total_messages
        before_links = fab.ledger.snapshot()
        step = hybrid_step(fab, plan, cs, x, y)
        volume = comm_volume(plan, net, 8)
        assert step.ledger_bytes == volume.bytes
        assert step.ledger_messages == volume.messages
        assert fab.ledger.total_bytes - before_b == volume.bytes
        assert link_delta(before_links, fab.ledger.snapshot()) == expected_links


# ---------------------------------------------------------------------------
# random networks and plans
# ---------------------------------------------------------------------------


@st.composite
def drawn_nets(draw):
    """A conv/relu/pool stack on an input of at most 2x9x9, whose filters and
    hidden units are multiples of 4, with random conv cross layers, a per-shard
    batch and a scheduling mode. A conv has stride 1 and 'same' padding or
    stride 2 and pad 1; a pool is 2x2/2 or the overlapping 3x3/2. The stack
    ends in an FC head, or in none, when the softmax is the last cross point."""
    extents = st.sampled_from([4, 5, 8, 9])
    c, h, w = draw(st.integers(1, 2)), draw(extents), draw(extents)
    lines = [f"input {c} {h} {w}"]
    convs = []
    for _ in range(draw(st.integers(1, 3))):
        convs.append(len(lines) - 1)
        c = 4 * draw(st.integers(1, 2))
        if h % 2 == w % 2 and draw(st.booleans()):  # (extent + 2 - k) must be even
            k = draw(st.sampled_from([1, 3] if h % 2 else [2, 4]))
            lines.append(f"conv {c} {k} 2 1")
            h, w = (h + 2 - k) // 2 + 1, (w + 2 - k) // 2 + 1
        else:
            k = draw(st.sampled_from([1, 3, 5]))
            lines.append(f"conv {c} {k} 1 {k // 2}")
        if draw(st.booleans()):
            lines.append("relu")
        pool = {(0, 0): 2, (1, 1): 3}.get((h % 2, w % 2)) if min(h, w) > 1 else None
        if pool and draw(st.booleans()):
            lines.append(f"maxpool {pool} 2")
            h, w = (h - pool) // 2 + 1, (w - pool) // 2 + 1
    if draw(st.booleans()):
        if draw(st.booleans()):
            lines += [f"fc {4 * draw(st.integers(1, 3))}", "relu"]
        classes = draw(st.integers(2, 5))
        lines.append(f"fc {classes}")
    else:
        classes = c * h * w
    lines.append(f"softmax {classes}")
    net = parse_network("\n".join(lines), name="drawn")
    cross = tuple(draw(st.sets(st.sampled_from(convs[1:])))) if len(convs) > 1 else ()
    return net, cross, draw(st.integers(1, 2)), draw(st.sampled_from(["lockstep", "threads"]))


@pytest.mark.parametrize("d, m", [(1, 1), (2, 1), (4, 1), (1, 2), (2, 2), (1, 4)])
@given(case=drawn_nets())
@settings(max_examples=20, deadline=2000, derandomize=True)
def test_random_nets_and_plans(d, m, case):
    net, cross, shard, sched = case
    plan, batch = ParallelPlan(d, m, cross), d * shard
    cs = plan_columnized(net, plan)
    batches = [make_batch(net, batch, seed=s) for s in range(2)]

    # each column layer's input is (B,) + in_shape, the logits (B,) + the last
    # out_shape; the engine keeps the input, each cross layer's concatenated
    # input and every layer's output, (B,) + out_shape
    layer, seen = schemes._layer, threading.local()

    def recording_layer(cl, params, a, first):
        seen.shapes.append(a.shape)
        return layer(cl, params, a, first)

    def forward(ctx):
        replica, column = divmod(ctx.wid, m)
        exchange = FabricExchange(ctx, replica, column, m) if m > 1 else None
        x = batches[0][0][replica * shard : (replica + 1) * shard]
        params = split_params(init_dense_params(net, 0), cs, column)
        seen.shapes = []
        logits, _, kept = column_forward(cs, params, x, exchange)
        return seen.shapes + [logits.shape], kept

    shapes = [(shard,) + cl.in_shape for cl in cs.col_layers]
    shapes.append((shard,) + cs.col_layers[-1].out_shape)
    kept = [(shard,) + net.input_shape]
    for cl in cs.col_layers:
        kept += [(shard,) + cl.in_shape] * cl.cross + [(shard,) + cl.out_shape]
    want = (shapes, [math.prod(shape) for shape in kept])
    with mock.patch.object(schemes, "_layer", recording_layer):
        assert spawn(plan.workers, scheduling=sched).run(forward) == [want] * plan.workers

    fab = spawn(plan.workers, scheduling=sched)
    setup_workers(fab, plan, cs, init_dense_params(net, 0), SgdState())
    links = phase_links(plan, cs, batch)
    params, sgd, velocity = init_dense_params(net, 0), SgdState(), None
    losses = []
    for x, y in batches:
        before = fab.ledger.snapshot()
        got = hybrid_step(fab, plan, cs, x, y).loss
        assert link_delta(before, fab.ledger.snapshot()) == links
        ref = reference_step(net, params, (x, y), sgd, velocity)
        params, velocity = ref.params, ref.velocity
        losses.append((got, ref.loss))
    # grouped: a split weight layer that reads less than its dense counterpart
    dense_in = [cl.in_shape for cl in columnize(net, 1).col_layers]
    for cl in cs.col_layers:
        assert cl.grouped == (
            cl.weight_shape is not None
            and not (cl.shared or cl.cross)
            and cl.in_shape != dense_in[cl.index]
        )
    if any(cl.grouped for cl in cs.col_layers):  # its trajectory leaves the dense one
        assert_gathers_block_diagonal(plan, cs, fab, batches[0][0])
        return
    merged = gather_dense_params(fab, plan, cs)
    for got, want_loss in losses:
        assert abs(got - want_loss) <= 1e-9 * abs(want_loss)
    assert max_rel(merged, params) < 1e-9
