import sys
import threading
import time

import numpy as np
import pytest

from parconv.errors import CapacityError, DeadlockError, ParconvError, ValidationError
from parconv.fabric import DeviceSpec, spawn


def _run_bounded(fab, program, timeout=60.0):
    """fab.run(program) on a daemon thread, so a hung run fails the test instead of hanging it."""
    out = []

    def target():
        try:
            out.append(fab.run(program))
        except BaseException as err:  # noqa: BLE001 - re-raised below
            out.append(err)

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "fabric run hung"
    if isinstance(out[0], BaseException):
        raise out[0]
    return out[0]


def test_spawn_requires_workers():
    with pytest.raises(ValidationError):
        spawn(0)


def test_link_count():
    assert spawn(1).num_links == 0
    assert spawn(4).num_links == 12


def test_single_worker_collectives_leave_ledger_empty():
    fab = spawn(1)

    def program(ctx):
        t = np.arange(5.0)
        summed = ctx.reduce_to_root([0], 0, t)
        out = ctx.broadcast_from_root([0], 0, summed)
        return out

    (result,) = fab.run(program)
    assert np.array_equal(result, np.arange(5.0))
    assert fab.ledger.total_bytes == 0
    assert fab.ledger.total_messages == 0


@pytest.mark.parametrize("sched", ["lockstep", "threads"])
def test_send_recv_bit_identical(sched):
    fab = spawn(2, scheduling=sched)
    payload = np.random.RandomState(0).randn(3, 7)

    def program(ctx):
        if ctx.wid == 0:
            ctx.send(1, "t", payload)
            return None
        return ctx.recv(0, "t")

    results = fab.run(program)
    assert np.array_equal(results[1], payload)
    assert results[1].dtype == np.float64


def test_fifo_order_same_link_same_tag():
    fab = spawn(2)

    def program(ctx):
        if ctx.wid == 0:
            ctx.send(1, "seq", np.array([1.0]))
            ctx.send(1, "seq", np.array([2.0]))
            return None
        first = ctx.recv(0, "seq")
        second = ctx.recv(0, "seq")
        return (first.item(), second.item())

    assert fab.run(program)[1] == (1.0, 2.0)


def test_ledger_counts_single_tensor():
    fab = spawn(2)

    def program(ctx):
        if ctx.wid == 0:
            ctx.send(1, "x", np.zeros(10))
        else:
            ctx.recv(0, "x")

    fab.run(program)
    assert fab.ledger.link(0, 1) == (40, 1)  # 10 elements x 4-byte wire scalars


def test_ledger_hundred_sends():
    fab = spawn(2)

    def program(ctx):
        if ctx.wid == 0:
            for _ in range(100):
                ctx.send(1, "x", np.zeros((2, 3)))
        else:
            for _ in range(100):
                ctx.recv(0, "x")

    fab.run(program)
    assert fab.ledger.link(0, 1) == (100 * 6 * 4, 100)
    assert fab.ledger.total_bytes == 2400


def test_payload_full_precision_despite_wire_accounting():
    fab = spawn(2)
    value = np.array([1.0 + 2**-40])  # not representable in float32

    def program(ctx):
        if ctx.wid == 0:
            ctx.send(1, "v", value)
            return None
        return ctx.recv(0, "v")

    results = fab.run(program)
    assert results[1][0] == value[0]
    assert fab.ledger.link(0, 1) == (4, 1)


def test_reduce_to_root_sums_in_worker_order():
    fab = spawn(4)

    def program(ctx):
        t = np.full(3, float(ctx.wid + 1))
        return ctx.reduce_to_root(range(4), 0, t)

    results = fab.run(program)
    assert np.array_equal(results[0], np.full(3, 10.0))
    assert all(results[w] is None for w in (1, 2, 3))
    # (k - 1) messages of the tensor size into the root
    assert fab.ledger.total_messages == 3
    assert fab.ledger.total_bytes == 3 * 3 * 4


def test_reduce_byte_count_example():
    fab = spawn(4)
    p = 50

    def program(ctx):
        ctx.reduce_to_root(range(4), 0, np.ones(p))

    fab.run(program)
    into_root = sum(fab.ledger.link(src, 0)[0] for src in (1, 2, 3))
    assert into_root == 3 * p * 4


def test_broadcast_from_root():
    fab = spawn(3)

    def program(ctx):
        value = np.arange(4.0) if ctx.wid == 1 else None
        return ctx.broadcast_from_root(range(3), 1, value)

    results = fab.run(program)
    for r in results:
        assert np.array_equal(r, np.arange(4.0))
    assert fab.ledger.total_messages == 2
    assert fab.ledger.total_bytes == 2 * 4 * 4


def test_isolation_mutating_one_worker_leaves_others_alone():
    fab = spawn(3)

    def init(ctx):
        ctx.local["state"] = np.zeros(4)

    fab.run(init)

    def mutate(ctx):
        if ctx.wid == 1:
            ctx.local["state"] += 99.0
        return ctx.local["state"].copy()

    results = fab.run(mutate)
    assert np.array_equal(results[0], np.zeros(4))
    assert np.array_equal(results[1], np.full(4, 99.0))
    assert np.array_equal(results[2], np.zeros(4))


def test_sent_tensors_are_copies():
    fab = spawn(2)

    def program(ctx):
        if ctx.wid == 0:
            buf = np.ones(3)
            ctx.send(1, "x", buf)
            buf[:] = -1.0  # mutation after send must not reach the receiver
            return None
        return ctx.recv(0, "x")

    results = fab.run(program)
    assert np.array_equal(results[1], np.ones(3))


@pytest.mark.parametrize("sched", ["lockstep", "threads"])
def test_deadlock_detected(sched):
    fab = spawn(2, scheduling=sched)

    def program(ctx):
        ctx.recv(1 - ctx.wid, "never")

    with pytest.raises(DeadlockError) as info:
        _run_bounded(fab, program)
    assert "recv" in str(info.value)
    assert info.value.waiting


def test_self_deadlock_single_worker():
    fab = spawn(2)

    def program(ctx):
        if ctx.wid == 0:
            ctx.recv(1, "missing")

    with pytest.raises(DeadlockError):
        _run_bounded(fab, program)


def test_threads_deadlock_reported_at_once_naming_every_waiter():
    fab = spawn(3, scheduling="threads")

    def program(ctx):
        ctx.recv((ctx.wid + 1) % 3, ("never", ctx.wid))

    t0 = time.perf_counter()
    with pytest.raises(DeadlockError) as info:
        _run_bounded(fab, program)
    assert time.perf_counter() - t0 < 1.0
    assert info.value.waiting == {
        w: {"src": (w + 1) % 3, "tag": ("never", w)} for w in range(3)
    }
    for w in range(3):
        assert f"worker {w} waits on recv(src={(w + 1) % 3}, tag=('never', {w}))" in str(info.value)


@pytest.mark.parametrize("sched", ["lockstep", "threads"])
def test_deadlock_when_last_runnable_worker_finishes(sched):
    fab = spawn(2, scheduling=sched)

    def program(ctx):
        if ctx.wid == 0:
            ctx.recv(1, "missing")
            return
        # finish only once worker 0 waits, so the finish is what leaves no worker runnable
        deadline = time.monotonic() + 10
        while fab._blocked.get(0) != (1, 0, "missing"):
            assert time.monotonic() < deadline
            time.sleep(0.001)

    with pytest.raises(DeadlockError) as info:
        _run_bounded(fab, program)
    assert info.value.waiting == {0: {"src": 1, "tag": "missing"}}


@pytest.mark.parametrize("sched", ["lockstep", "threads"])
@pytest.mark.parametrize("src", [5, -1, 0])
def test_recv_from_invalid_source_names_worker(sched, src):
    fab = spawn(2, scheduling=sched)

    def program(ctx):
        if ctx.wid == 0:
            ctx.recv(src, "x")

    with pytest.raises(ValidationError, match=f"worker 0: invalid source {src}$"):
        _run_bounded(fab, program)


def test_worker_exception_propagates():
    fab = spawn(3)

    def program(ctx):
        if ctx.wid == 2:
            raise ValueError("boom")
        ctx.recv((ctx.wid + 1) % 3, "x")

    with pytest.raises(ValueError, match="boom"):
        fab.run(program)


@pytest.mark.parametrize("sched", ["lockstep", "threads"])
def test_failed_run_leaves_no_stale_messages(sched):
    fab = spawn(2, scheduling=sched)
    sent = threading.Event()

    def failing(ctx):
        if ctx.wid == 0:
            ctx.send(1, "t", np.array([1.0]))
            sent.set()
            return None
        assert sent.wait(timeout=10)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        fab.run(failing)

    def program(ctx):
        if ctx.wid == 0:
            ctx.send(1, "t", np.array([2.0]))
            return None
        return ctx.recv(0, "t").item()

    assert fab.run(program)[1] == 2.0


@pytest.mark.parametrize("sched", ["lockstep", "threads"])
def test_undelivered_message_fails_a_successful_run(sched):
    fab = spawn(3, scheduling=sched)

    def program(ctx):
        if ctx.wid == 0:
            ctx.send(1, "x", np.ones(2))
            ctx.send(1, "x", np.ones(2))
            ctx.send(2, ("y", 3), np.ones(1))

    with pytest.raises(ParconvError) as info:
        fab.run(program)
    assert not isinstance(info.value, ValidationError)
    assert "(0, 1, 'x') x2" in str(info.value)
    assert "(0, 2, ('y', 3)) x1" in str(info.value)

    def receive(ctx):
        if ctx.wid == 0:
            ctx.send(1, "x", np.array([2.0]))
            return None
        return ctx.recv(0, "x").item() if ctx.wid == 1 else None

    assert fab.run(receive)[1] == 2.0


def _ring_reduce(ctx):
    """Five ring shifts, then a reduce to worker 0 and a broadcast back."""
    n = ctx.n
    acc = np.full(4, float(ctx.wid))
    for step in range(5):
        ctx.send((ctx.wid + 1) % n, ("ring", step), acc)
        acc = acc + ctx.recv((ctx.wid - 1) % n, ("ring", step))
    total = ctx.reduce_to_root(range(n), 0, acc)
    if ctx.wid == 0:
        ctx.broadcast_from_root(range(n), 0, total)
        return total
    return ctx.broadcast_from_root(range(n), 0, None)


def test_determinism_across_scheduling_modes():
    snapshots = []
    outputs = []
    for sched in ("lockstep", "threads"):
        fab = spawn(4, scheduling=sched)
        results = fab.run(_ring_reduce)
        outputs.append(results)
        snapshots.append(fab.ledger.snapshot())
    assert snapshots[0] == snapshots[1]
    for a, b in zip(*outputs):
        assert np.array_equal(a, b)


def test_threads_stress_matches_lockstep():
    """8 workers (more than the cores) under a tiny switch interval: no false
    deadlock, no lost message, results and ledger equal to lockstep's."""
    ref = spawn(8)
    want = ref.run(_ring_reduce)
    want_ledger = ref.ledger.snapshot()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 5
        runs = 0
        while runs < 200 and (runs < 3 or time.monotonic() < deadline):
            fab = spawn(8, scheduling="threads")
            got = _run_bounded(fab, _ring_reduce)
            assert fab.ledger.snapshot() == want_ledger
            for a, b in zip(want, got):
                assert np.array_equal(a, b)
            runs += 1
    finally:
        sys.setswitchinterval(old)


def test_ledger_conservation():
    fab = spawn(3)

    def program(ctx):
        for dst in range(3):
            if dst != ctx.wid:
                ctx.send(dst, "all", np.ones(ctx.wid + 1))
        for src in range(3):
            if src != ctx.wid:
                ctx.recv(src, "all")

    fab.run(program)
    snap = fab.ledger.snapshot()
    assert fab.ledger.total_bytes == sum(b for b, _ in snap.values())
    assert fab.ledger.total_messages == sum(m for _, m in snap.values())
    assert len(snap) == 6


# ---------------------------------------------------------------------------
# memory metering
# ---------------------------------------------------------------------------


def test_meter_tracks_peak_and_capacity():
    fab = spawn(1, device=DeviceSpec(memory_capacity=100))

    def program(ctx):
        ctx.alloc(10)  # 40 bytes
        ctx.assert_capacity()
        ctx.alloc(15)  # +60 -> exactly 100: inclusive bound is fine
        ctx.assert_capacity()
        ctx.free_bytes(60)
        return None

    fab.run(program)
    assert fab.meter.peak[0] == 100
    assert fab.meter.current[0] == 40


def test_meter_capacity_breach_names_worker_and_overshoot():
    fab = spawn(2, device=DeviceSpec(memory_capacity=1))

    def program(ctx):
        if ctx.wid == 1:
            ctx.alloc(10)
            ctx.assert_capacity()

    with pytest.raises(CapacityError) as info:
        fab.run(program)
    assert info.value.worker == 1
    assert info.value.resident == 40
    assert "overshoot 39" in str(info.value)


def test_device_spec_validation():
    with pytest.raises(ValidationError):
        DeviceSpec(memory_capacity=0)
