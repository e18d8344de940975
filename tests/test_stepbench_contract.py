"""The step-time benchmark's tracer patches parconv's update path by name
(stepbench/tracer.py). A renamed, removed or no longer called name would
silently zero its metrics, so the names are checked here, in tier-1."""

import importlib.util
import itertools
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from parconv import fabric, gen_synthetic, load_plan, rng, schemes, spawn
from parconv.kernels import SgdState
from parconv.netdef import load_network, worker_footprint_bytes
from parconv.trainer import _batches

from oracles import CONFIGS

TRACER_PATH = Path(__file__).resolve().parent.parent / "stepbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("stepbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_every_patched_name_and_restores_originals():
    tr = load_tracer()
    patched = (
        [(schemes, name) for name in (*tr.KERNELS, *tr.SCHEME_CALLS)]
        + [(schemes.FabricExchange, name) for name in tr.EXCHANGE]
        + [(fabric.Worker, name) for name in (*tr.WORKER_CALLS, "send")]
        + [(fabric.Fabric, "run")]
    )
    originals = {(owner, name): owner.__dict__[name] for owner, name in patched}

    net = load_network(CONFIGS / "tinynet.net")
    plan = schemes.ParallelPlan(2, 2, (3,))
    cs = schemes.plan_columnized(net, plan)
    dense = schemes.init_dense_params(net, 0)
    rs = np.random.RandomState(0)
    x, y = rs.randn(8, *net.input_shape), rs.randint(0, net.classes, size=8)
    fab = fabric.spawn(plan.workers)

    tracer = tr.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[name] is not originals[owner, name] for owner, name in patched)
        schemes.setup_workers(fab, plan, cs, dense, SgdState())
        tracer.key = ("d2m2", 0)
        schemes.hybrid_step(fab, plan, cs, x, y)
        tracer.key = None
        schemes.reference_step(net, dense, (x, y), SgdState())
    finally:
        tracer.uninstall()

    assert all(owner.__dict__[name] is originals[owner, name] for owner, name in patched)
    in_step = {s.name for s in tracer.spans if s.key is not None}
    assert {"hybrid_step", "column_fwd_bwd", "sgd_step", "pack_tree", "conv2d_forward",
            "conv2d_backward", "cross_forward", "cross_backward"} <= in_step
    # every name the tracer wraps in parconv.schemes is still called somewhere
    spanned = {s.name for s in tracer.spans}
    assert {*tr.KERNELS, *tr.SCHEME_CALLS, *tr.EXCHANGE} <= spanned


@pytest.mark.parametrize("sched", ["lockstep", "threads"])
def test_benchmark_entry_points_keep_their_call_shapes(sched):
    """stepbench/run.py calls the entry points positionally; a changed signature
    would first show up as a failed benchmark run. tinynet under d2m2, each call
    made as run.py makes it."""
    net = load_network(CONFIGS / "tinynet.net")
    plan = load_plan(TRACER_PATH.parent / "configs" / "d2m2.plan")
    batch, shard = 8, 8 // plan.data_shards
    cs = schemes.plan_columnized(net, plan)
    train, test = gen_synthetic(net.classes, 2, net.input_shape, 1, 1)
    order = rng.permutation(1, 0, train.size)
    assert sorted(order) == list(range(train.size))
    dense = schemes.init_dense_params(net, 1)
    fab = spawn(plan.workers, scheduling=sched)

    schemes.setup_workers(fab, plan, cs, dense, SgdState())
    x, y = train.images[order[:batch]], train.labels[order[:batch]]
    res = schemes.hybrid_step(fab, plan, cs, x, y)
    vol = schemes.comm_volume(plan, net, batch)
    assert math.isfinite(res.loss)
    assert (res.ledger_bytes, res.ledger_messages) == (vol.bytes, vol.messages)
    assert [ph.label for ph in schemes.comm_phases(plan, cs, batch)] == [
        "cross3-fwd", "cross5-fwd", "cross7-fwd", "cross7-bwd", "cross5-bwd", "cross3-bwd",
        "grad-reduce", "param-broadcast"]
    assert 0 <= schemes.evaluation_errors(fab, plan, cs, test.images[:shard],
                                          test.labels[:shard]) <= shard
    gathered = schemes.gather_dense_params(fab, plan, cs)
    assert all(gathered[i]["w"].shape == dense[i]["w"].shape for i in dense)
    assert max(fab.meter.peak) == worker_footprint_bytes(cs, shard, holds_velocity=True)


def test_benchmark_batches_follow_the_trainer_schedule(monkeypatch):
    """stepbench/run.py keeps its own copy of the batch rule (`Bench.batches`);
    it must cut the same index arrays as the trainer's schedule."""
    path = TRACER_PATH.parent / "run.py"
    monkeypatch.syspath_prepend(str(path.parent))  # for its `import tracer`
    spec = importlib.util.spec_from_file_location("stepbench_run", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclass looks it up
    spec.loader.exec_module(module)
    for seed, n, batch in [(1, 200, 32), (3, 97, 8), (0, 64, 64)]:
        bench = SimpleNamespace(train=SimpleNamespace(size=n), wl=SimpleNamespace(batch=batch),
                                seed=seed)
        count = 3 * (n // batch)  # three epochs
        got = list(itertools.islice(module.Bench.batches(bench), count))
        want = [chosen for _, chosen in itertools.islice(_batches(seed, n, batch), count)]
        assert len(got) == count and all(np.array_equal(g, w) for g, w in zip(got, want))
