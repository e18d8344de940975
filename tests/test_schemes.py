import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parconv.errors import ValidationError
from parconv.fabric import spawn
from parconv.kernels import SgdState
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

TINY = load_network("configs/tinynet.net")
MINI = load_network("configs/minicnn.net")
MID = load_network("stepbench/configs/midnet.net")


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


def test_parse_plan_defaults_and_errors():
    assert parse_plan("") == ParallelPlan(1, 1, ())
    with pytest.raises(ValidationError):
        parse_plan("data_shards x\n")
    with pytest.raises(ValidationError):
        parse_plan("gpus 4\n")
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


def test_merge_rejects_grouped_layers():
    cs = columnize(TINY, 2, ())  # second conv consumes a slice: grouped
    dense = init_dense_params(TINY, 1)
    cols = [split_params(dense, cs, j) for j in range(2)]
    with pytest.raises(ValidationError, match="grouped"):
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
    # a flat scale can be forced
    flat = init_dense_params(TINY, 3, std=0.01)
    assert abs(float(np.std(flat[5]["w"])) - 0.01) < 0.002


# ---------------------------------------------------------------------------
# reference step
# ---------------------------------------------------------------------------


def test_reference_zero_lr_keeps_params():
    params = init_dense_params(TINY, 0)
    x, y = make_batch(TINY, 4)
    out = reference_step(TINY, params, (x, y), SgdState(learning_rate=0.0))
    assert np.isfinite(out.loss)
    assert max_rel(out.params, params) == 0.0


def test_reference_uniform_logits_loss_ln10():
    params = init_dense_params(TINY, 0)
    params[7]["w"][:] = 0.0  # zero the classifier head: logits all zero
    params[7]["b"][:] = 0.0
    x, y = make_batch(TINY, 6)
    out = reference_step(TINY, params, (x, y), SgdState())
    assert abs(out.loss - np.log(10)) < 1e-9


def test_reference_loss_decreases_on_separable_data():
    from parconv.data import gen_synthetic

    net = load_network("configs/tinynet2.net")
    train, _ = gen_synthetic(2, 16, net.input_shape, seed=5)
    params = init_dense_params(net, 5)
    sgd = SgdState()
    losses = []
    for step in range(20):
        lo = (step * 8) % 24
        x = train.images[lo : lo + 8]
        y = train.labels[lo : lo + 8]
        out = reference_step(net, params, (x, y), sgd)
        params, sgd = out.params, out.sgd
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
    sgd = SgdState()
    for (x, y), got in zip(batches, losses):
        out = reference_step(TINY, params, (x, y), sgd)
        params, sgd = out.params, out.sgd
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
    fab = spawn(2)
    cs = plan_columnized(TINY, ParallelPlan(2, 1))
    x, y = make_batch(TINY, 4)
    with pytest.raises(ValidationError, match="column count"):
        hybrid_step(fab, ParallelPlan(1, 2, (3,)), cs, x, y)
    with pytest.raises(ValidationError, match="workers"):
        hybrid_step(spawn(3), ParallelPlan(2, 2, (3,)), plan_columnized(TINY, ParallelPlan(2, 2, (3,))), x, y)


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


def test_second_setup_gives_back_accounted_memory():
    plan = ParallelPlan(2, 1)
    cs = plan_columnized(TINY, plan)
    fab = spawn(2)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 0), SgdState())
    first = list(fab.meter.current)
    setup_workers(fab, plan, cs, init_dense_params(TINY, 1), SgdState())
    assert fab.meter.current == first


@pytest.mark.parametrize(
    "call",
    [
        lambda fab, plan, cs, x, y: hybrid_step(fab, plan, cs, x, y),
        lambda fab, plan, cs, x, y: evaluation_errors(fab, plan, cs, x, y),
        lambda fab, plan, cs, x, y: gather_dense_params(fab, plan, cs),
    ],
    ids=["hybrid_step", "evaluation_errors", "gather_dense_params"],
)
def test_workers_never_set_up_are_named(call):
    plan = ParallelPlan(1, 1)
    x, y = make_batch(TINY, 4)
    with pytest.raises(ValidationError, match="worker 0 has no parameters; run setup_workers"):
        call(spawn(1), plan, plan_columnized(TINY, plan), x, y)


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
    sgd = SgdState()
    for (x, y), got in zip(batches, losses):
        out = reference_step(TINY, params, (x, y), sgd)
        params, sgd = out.params, out.sgd
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
    sgd = SgdState()
    for (x, y), got in zip(batches, losses):
        out = reference_step(TINY, params, (x, y), sgd)
        params, sgd = out.params, out.sgd
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


class ShapeLog:
    """Stands in for the engine's meter; records the shape of every array noted."""

    def __init__(self):
        self.shapes = []

    def note(self, arr):
        self.shapes.append(arr.shape)


@st.composite
def drawn_nets(draw):
    """A conv/relu/pool/fc stack on an input of at most 2x8x8, whose filters and
    hidden units are multiples of 4, with random conv cross layers, a per-shard
    batch and a scheduling mode."""
    h, w = draw(st.sampled_from([4, 8])), draw(st.sampled_from([4, 8]))
    lines = [f"input {draw(st.integers(1, 2))} {h} {w}"]
    convs = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.sampled_from([1, 3, 5]))
        convs.append(len(lines) - 1)
        lines.append(f"conv {4 * draw(st.integers(1, 2))} {k} 1 {k // 2}")
        if draw(st.booleans()):
            lines.append("relu")
        if h % 2 == w % 2 == 0 and draw(st.booleans()):
            lines.append("maxpool 2 2")
            h, w = h // 2, w // 2
    if draw(st.booleans()):
        lines += [f"fc {4 * draw(st.integers(1, 3))}", "relu"]
    classes = draw(st.integers(2, 5))
    lines += [f"fc {classes}", f"softmax {classes}"]
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

    # every column layer's forward output is (B,) + out_shape; a cross layer
    # first notes its concatenated input, (B,) + in_shape
    def forward(ctx):
        replica, column = divmod(ctx.wid, m)
        log = ShapeLog()
        exchange = FabricExchange(ctx, replica, column, m) if m > 1 else None
        x = batches[0][0][replica * shard : (replica + 1) * shard]
        column_forward(cs, split_params(init_dense_params(net, 0), cs, column), x, exchange, log)
        return log.shapes

    want = [(shard,) + net.input_shape]
    for cl in cs.col_layers:
        want += [(shard,) + cl.in_shape] * cl.cross + [(shard,) + cl.out_shape]
    assert spawn(plan.workers, scheduling=sched).run(forward) == [want] * plan.workers

    fab = spawn(plan.workers, scheduling=sched)
    setup_workers(fab, plan, cs, init_dense_params(net, 0), SgdState())
    links = phase_links(plan, cs, batch)
    params, sgd = init_dense_params(net, 0), SgdState()
    losses = []
    for x, y in batches:
        before = fab.ledger.snapshot()
        got = hybrid_step(fab, plan, cs, x, y).loss
        assert link_delta(before, fab.ledger.snapshot()) == links
        ref = reference_step(net, params, (x, y), sgd)
        params, sgd = ref.params, ref.sgd
        losses.append((got, ref.loss))
    try:
        merged = gather_dense_params(fab, plan, cs)
    except ValidationError as err:  # a grouped layer has no dense equivalent
        assert "grouped" in str(err)
        return
    for got, want_loss in losses:
        assert abs(got - want_loss) <= 1e-9 * abs(want_loss)
    assert max_rel(merged, params) < 1e-9
