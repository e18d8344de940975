#!/usr/bin/env python3
"""Step-time benchmark: the paper's five plans trained side by side.

Run from the repository root:

    python3 stepbench/run.py --workload mid-threads --seed 1 --seconds 55 --trace 0

Every round feeds one batch to each of the plans d1m1, d2m1, d1m2, d2m2 and
d4m1 in turn (d data shards, m model columns), so all plans see the same
batch sequence and the same machine load. Every timed update is checked:
its ledger delta must equal `comm_volume`, its loss must be finite and
within 1e-9 of d1m1's, and (traced) its bytes per tag must equal
`comm_phases`; at the end every plan's gathered parameters must be within
1e-9 of d1m1's. An evaluation round (the test split through
`evaluation_errors` under each plan) runs every few rounds.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` rounds alternate between untraced and traced, and the last line
carries the per-layer metrics (see stepbench/README.md). A full report,
with provenance, goes to stepbench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np

    from parconv import SgdState, gen_synthetic, load_network, load_plan, rng, spawn
    from parconv.netdef import worker_footprint_bytes
    from parconv import schemes
except ImportError as err:
    raise SystemExit(f"stepbench: cannot import parconv from {ROOT / 'src'}: {err}") from None

import tracer as tr

PLANS = ("d1m1", "d2m1", "d1m2", "d2m2", "d4m1")
# Table 1 of the paper: days to train per plan; speedup bands are ratios to d1m1
PAPER_DAYS = {"d1m1": 10.5, "d2m1": 7.0, "d1m2": 6.6, "d2m2": 4.8, "d4m1": 7.2}
WARMUP_ROUNDS = 2
EVAL_EVERY = 4  # rounds between evaluation rounds
SETUP_REPEATS = 3  # set-ups before warm-up; one more runs with each evaluation round
TOLERANCE = 1e-9
TAIL_BEYOND = 10  # the tail percentile keeps at least this many updates beyond it
OVERHEAD_RUNS = 200  # empty Fabric.run calls timed per plan (traced run)
MB = 2**20


@dataclass(frozen=True)
class Workload:
    net: Path
    batch: int
    scheduling: str
    train_per_class: int
    test_per_class: int


# BENCHMARK.json gates the mid-* workloads. tiny-lockstep runs by hand: its
# ~97.5th-percentile tail follows the host's slow spells too closely to gate
# (see README.md).
WORKLOADS = {
    "tiny-lockstep": Workload(ROOT / "configs" / "tinynet.net", 16, "lockstep", 16, 4),
    "mid-threads": Workload(HERE / "configs" / "midnet.net", 32, "threads", 16, 2),
    "mid-lockstep": Workload(HERE / "configs" / "midnet.net", 32, "lockstep", 16, 2),
}


def end_to_end_names() -> list[str]:
    names = [f"{p}.update_ms" for p in PLANS] + [f"{p}.update_ms_tail" for p in PLANS]
    return names + ["eval_ms", "setup_s", "peak_rss_mb", "pass_ratio"]


SETUP_LAYERS = ("data.gen_ms", "netdef.columnize_ms", "schemes.init_params_ms",
                "schemes.setup_workers_ms", "fabric.spawn_ms")


def per_layer_names() -> list[str]:
    """Per-layer metrics on the result line: the ones an optimisation is likely
    to move, skipping those a plan's shape fixes at zero."""
    names = []
    for p in PLANS:
        d, m = int(p[1]), int(p[3])
        own = [f"kernels.{g}_ms" for g in tr.KERNEL_GROUPS]
        own += ["kernels.conv_gflops", "kernels.fc_gflops", "kernels.wait_ms", "kernels.busy_per_wall",
                "schemes.engine_ms", "schemes.engine_self_ms", "schemes.layout_ms",
                "schemes.step_self_ms", "fabric.run_self_ms", "fabric.run_overhead_us",
                "fabric.footprint_ratio", "trace.overhead_ms"]
        if d * m > 1:
            own += ["fabric.bytes_per_update", "fabric.recv_wait_ms"]
        if m > 1:
            own += ["schemes.exchange_ms", "fabric.cross_bytes"]
        if d > 1:
            own += ["fabric.reduce_ms", "fabric.bcast_ms", "fabric.collective_bytes"]
        names += [f"{p}.{n}" for n in own]
    return names + list(SETUP_LAYERS)


def unit_of(name: str) -> str:
    if name.endswith("_ms") or name.endswith("_ms_tail"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_gflops"):
        return "GFLOP/s"
    if name.endswith("_bytes") or name.endswith("bytes_per_update"):
        return "bytes"
    if name.endswith("_per_update"):
        return "count"
    return "ratio"


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _loadavg() -> list[str] | None:
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy has loaded, asked through its C API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            f = getattr(lib, fn, None)
            if f is not None:
                f.argtypes = []
                f.restype = ctypes.c_int
                return int(f())
    return None


def provenance(workload: str, seed: int, trace: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _git_commit(),
        "loadavg_start": _loadavg(),
    }


# ---------------------------------------------------------------------------
# The benchmark
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile with at least
    TAIL_BEYOND samples beyond it, never below the median."""
    s = sorted(samples)
    n = len(s)
    rank = n - TAIL_BEYOND
    if 2 * rank < n:
        return statistics.median(s), 50.0
    return s[rank - 1], 100.0 * rank / n


class Bench:
    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.net = load_network(wl.net)
        self.plans = {p: load_plan(HERE / "configs" / f"{p}.plan") for p in PLANS}
        self.volume = {p: schemes.comm_volume(self.plans[p], self.net, wl.batch) for p in PLANS}
        self.update_ms = {p: [] for p in PLANS}
        self.traced_ms = {p: [] for p in PLANS}
        self.update_at: dict[tuple[str, int], float] = {}  # (plan, round) -> ms
        self.eval_ms: list[float] = []
        self.failures: Counter[str] = Counter()
        self.failed_updates: set[tuple[str, int]] = set()
        self.failed_evals = 0
        self.last_update: dict[str, int] = {}
        self.setup_samples: list[tuple[float, dict[str, float]]] = []
        self.rounds = 0
        for _ in range(SETUP_REPEATS):
            world = self.set_up()
        self.train, self.test, self.cs, self.fabrics = world

    # -- set-up -----------------------------------------------------------------
    def set_up(self):
        """Data, dense params, and every plan's columnized spec and fabric.

        Records the time of the whole and of each part in `setup_samples`;
        returns (train, test, cs, fabrics).
        """
        wl, net = self.wl, self.net
        parts = dict.fromkeys(SETUP_LAYERS, 0.0)
        start = t0 = time.perf_counter()
        train, test = gen_synthetic(
            net.classes, wl.train_per_class, net.input_shape, self.seed, wl.test_per_class)
        t1 = time.perf_counter()
        dense = schemes.init_dense_params(net, self.seed)
        t2 = time.perf_counter()
        parts["data.gen_ms"] = 1e3 * (t1 - t0)
        parts["schemes.init_params_ms"] = 1e3 * (t2 - t1)
        cs, fabrics = {}, {}
        for p, plan in self.plans.items():
            t0 = time.perf_counter()
            cs[p] = schemes.plan_columnized(net, plan)
            t1 = time.perf_counter()
            fabrics[p] = spawn(plan.workers, scheduling=wl.scheduling)
            t2 = time.perf_counter()
            schemes.setup_workers(fabrics[p], plan, cs[p], dense, SgdState())
            t3 = time.perf_counter()
            parts["netdef.columnize_ms"] += 1e3 * (t1 - t0)
            parts["fabric.spawn_ms"] += 1e3 * (t2 - t1)
            parts["schemes.setup_workers_ms"] += 1e3 * (t3 - t2)
        self.setup_samples.append((time.perf_counter() - start, parts))
        return train, test, cs, fabrics

    def batches(self):
        """The trainer's schedule: a fresh permutation per epoch, cut into batches."""
        n, b = self.train.size, self.wl.batch
        epoch = 0
        while True:
            order = rng.permutation(self.seed, epoch, n)
            for step in range(n // b):
                yield order[step * b : (step + 1) * b]
            epoch += 1

    # -- one round ----------------------------------------------------------------
    def fail(self, name: str, key: tuple[str, int] | None = None) -> None:
        self.failures[name] += 1
        if key is not None:
            self.failed_updates.add(key)

    def train_round(self, chosen, timed: bool, tracer=None) -> None:
        """One batch through every plan; with a tracer, the round is traced."""
        x, y = self.train.images[chosen], self.train.labels[chosen]
        shift = self.rounds % len(PLANS)
        idx = self.rounds
        samples = self.traced_ms if tracer is not None else self.update_ms
        losses = {}
        if tracer is not None:
            tracer.install()
        try:
            for p in PLANS[shift:] + PLANS[:shift]:
                key = (p, idx)
                if tracer is not None:
                    tracer.key = key
                t0 = time.perf_counter()
                try:
                    res = schemes.hybrid_step(self.fabrics[p], self.plans[p], self.cs[p], x, y)
                except Exception as err:  # noqa: BLE001 - a failed timed update is counted and named
                    if not timed:
                        raise
                    self.fail(f"{p}.raised.{type(err).__name__}", key)
                    continue
                dt = time.perf_counter() - t0
                losses[p] = res.loss
                if not timed:
                    continue
                samples[p].append(1e3 * dt)
                self.update_at[key] = 1e3 * dt
                self.last_update[p] = idx
                vol = self.volume[p]
                if (res.ledger_bytes, res.ledger_messages) != (vol.bytes, vol.messages):
                    self.fail(f"{p}.ledger_vs_comm_volume", key)
        finally:
            if tracer is not None:
                tracer.key = None
                tracer.uninstall()
        if timed:
            ref = losses.get("d1m1")
            for p, loss in losses.items():
                if not (math.isfinite(loss) and ref is not None and math.isfinite(ref)
                        and abs(loss - ref) <= TOLERANCE * max(abs(loss), abs(ref), 1e-300)):
                    self.fail(f"{p}.loss_vs_d1m1", (p, idx))
        self.rounds += 1

    def eval_round(self, timed: bool) -> None:
        """The fixed test split through evaluation_errors under every plan."""
        test = self.test
        errors = {}
        t0 = time.perf_counter()
        for p in PLANS:
            plan = self.plans[p]
            chunk = self.wl.batch // plan.data_shards
            errors[p] = sum(
                schemes.evaluation_errors(self.fabrics[p], plan, self.cs[p],
                                          test.images[lo : lo + chunk], test.labels[lo : lo + chunk])
                for lo in range(0, test.size, chunk)
            )
        dt = time.perf_counter() - t0
        if not timed:
            return
        self.eval_ms.append(1e3 * dt)
        if any(e != errors["d1m1"] for e in errors.values()):
            self.failed_evals += 1
            self.failures["eval.errors_differ_across_plans"] += 1

    def run_for(self, seconds: float, batches, tracer=None) -> None:
        """Timed rounds (at least one) for `seconds`. Every EVAL_EVERY rounds an
        evaluation round and a throwaway set-up run, so both are sampled
        across the whole run; with a tracer, every other round is traced."""
        start = time.perf_counter()
        first = self.rounds
        while True:
            n = self.rounds - first
            if n % EVAL_EVERY == 0:
                self.eval_round(timed=True)
                self.set_up()
            self.train_round(next(batches), timed=True, tracer=tracer if n % 2 else None)
            if time.perf_counter() - start >= seconds and (tracer is None or n % 2):
                break

    def check_final_params(self) -> None:
        """gather_dense_params of every plan within 1e-9 of d1m1's, tensor by tensor."""
        gather = schemes.gather_dense_params
        ref = gather(self.fabrics["d1m1"], self.plans["d1m1"], self.cs["d1m1"])
        for p in PLANS[1:]:
            got = gather(self.fabrics[p], self.plans[p], self.cs[p])
            worst = 0.0
            for idx in ref:
                for k in ("w", "b"):
                    a, b = got[idx][k], ref[idx][k]
                    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
                    worst = max(worst, float(np.max(np.abs(a - b))) / scale)
            if not worst <= TOLERANCE:
                self.fail(f"{p}.final_params_vs_d1m1", (p, self.last_update.get(p, -1)))

    @property
    def attempted(self) -> int:
        updates = list(self.update_ms.values()) + list(self.traced_ms.values())
        return sum(len(v) for v in updates) + len(self.eval_ms)

    @property
    def failed(self) -> int:
        return len(self.failed_updates) + self.failed_evals

    def run_overhead_us(self, plan: str) -> float:
        fab = self.fabrics[plan]
        samples = []
        for _ in range(OVERHEAD_RUNS):
            t0 = time.perf_counter()
            fab.run(_empty_program)
            samples.append(time.perf_counter() - t0)
        return 1e6 * statistics.median(samples)


def _empty_program(ctx):
    return None


# ---------------------------------------------------------------------------
# Traced per-layer metrics
# ---------------------------------------------------------------------------


def traced_layers(bench: Bench, tracer) -> dict[str, float]:
    """Per-plan medians of the per-update breakdown, plus footprint and overhead figures.

    Each traced update is paired with the same plan's untraced update one
    round earlier: `trace.overhead_ms` is the median of traced minus
    untraced over these pairs, and `accounted_share` the median share of the
    untraced update that kernel busy time plus engine self time covers.
    Pairing adjacent rounds keeps the machine's drifting speed out of both.
    """
    grouped = tr.group_by_update(tracer)
    out: dict[str, float] = {}
    for p in PLANS:
        plan, cs = bench.plans[p], bench.cs[p]
        shard = bench.wl.batch // plan.data_shards
        expected = {ph.label: (ph.total_bytes, ph.total_messages)
                    for ph in schemes.comm_phases(plan, cs, bench.wl.batch)}
        conv_flops, fc_flops = tr.kernel_flops(cs, plan, bench.wl.batch)
        rows, overhead, share = [], [], []
        for key, (spans, sends) in grouped.items():
            if key[0] != p or key in bench.failed_updates:
                continue
            if tr.phase_traffic(sends) != expected:
                bench.fail(f"{p}.phase_bytes_vs_comm_phases", key)
                continue
            row = tr.update_breakdown(spans, sends, conv_flops, fc_flops)
            rows.append(row)
            untraced = bench.update_at.get((p, key[1] - 1))
            if untraced is not None:
                overhead.append(bench.update_at[key] - untraced)
                busy = sum(row[f"kernels.{g}_ms"] for g in tr.KERNEL_GROUPS)
                share.append((busy + row["schemes.engine_self_ms"]) / untraced)
        if not overhead:
            raise RuntimeError(f"no traced update of {p} passed its checks")
        med = tr.median_breakdown(rows)
        med["fabric.run_overhead_us"] = bench.run_overhead_us(p)
        peak = max(bench.fabrics[p].meter.peak)
        med["fabric.peak_accounted_mb"] = peak / MB
        med["fabric.footprint_ratio"] = peak / worker_footprint_bytes(cs, shard, holds_velocity=True)
        med["trace.overhead_ms"] = statistics.median(overhead)
        med["trace.accounted_share"] = statistics.median(share)
        out.update({f"{p}.{k}": v for k, v in med.items()})
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time; 0 runs a single timed round")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    prov = provenance(args.workload, args.seed, args.trace)
    bench = Bench(WORKLOADS[args.workload], args.seed)
    batches = bench.batches()
    for _ in range(WARMUP_ROUNDS):
        bench.train_round(next(batches), timed=False)
    bench.eval_round(timed=False)

    tracer = tr.Tracer() if args.trace else None
    bench.run_for(args.seconds, batches, tracer)
    bench.check_final_params()

    medians = {p: statistics.median(v) for p, v in bench.update_ms.items()}
    report = {"provenance": prov, "rounds": bench.rounds, "updates_per_plan": {
        p: len(v) for p, v in bench.update_ms.items()}}
    if args.trace:
        layers = traced_layers(bench, tracer)
        for name in SETUP_LAYERS:
            layers[name] = statistics.median(parts[name] for _, parts in bench.setup_samples)
        report["untraced_update_ms"] = medians
        report["traced_update_ms"] = {p: statistics.median(v) for p, v in bench.traced_ms.items()}
        report["per_layer_all"] = layers
        metrics = {n: layers[n] for n in per_layer_names()}
        _print_layers(layers)
        _write_spans(tracer, args)
    else:
        values = {}
        tails = {}
        for p in PLANS:
            value, pct = tail(bench.update_ms[p])
            values[f"{p}.update_ms"] = medians[p]
            values[f"{p}.update_ms_tail"] = value
            tails[p] = {"percentile": pct, "samples": len(bench.update_ms[p])}
        values["eval_ms"] = statistics.median(bench.eval_ms)
        values["setup_s"] = statistics.median(s for s, _ in bench.setup_samples)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["pass_ratio"] = 1.0 - bench.failed / bench.attempted
        metrics = {n: values[n] for n in end_to_end_names()}
        report["tails"] = tails
        report["eval_rounds"] = len(bench.eval_ms)
        report["setups"] = len(bench.setup_samples)
        _print_end_to_end(metrics, tails)

    prov["loadavg_end"] = _loadavg()
    report["failures"] = dict(bench.failures)
    report["failed_ratio"] = bench.failed / bench.attempted
    report["metrics"] = metrics
    print(f"failed_ratio {bench.failed}/{bench.attempted} = {report['failed_ratio']:.6g}"
          + "".join(f"\n  FAILED {name} x{n}" for name, n in sorted(bench.failures.items())))
    print("provenance " + json.dumps(prov, sort_keys=True))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _print_end_to_end(metrics: dict[str, float], tails: dict[str, dict]) -> None:
    base = metrics["d1m1.update_ms"]
    for p in PLANS:
        t = tails[p]
        print(f"{p}.update_ms {metrics[p + '.update_ms']:.3f} ms   "
              f"{p}.update_ms_tail {metrics[p + '.update_ms_tail']:.3f} ms "
              f"(p{t['percentile']:.1f} of {t['samples']})   "
              f"speedup vs d1m1 {base / metrics[p + '.update_ms']:.2f}x "
              f"(paper {PAPER_DAYS['d1m1'] / PAPER_DAYS[p]:.2f}x)")
    for n in ("eval_ms", "setup_s", "peak_rss_mb", "pass_ratio"):
        print(f"{n} {metrics[n]:.6g} {unit_of(n)}")


def _print_layers(layers: dict[str, float]) -> None:
    for name in sorted(layers):
        print(f"{name} {layers[name]:.6g} {unit_of(name)}")
    for p in PLANS:
        print(f"{p}: kernel busy + engine self = {layers[p + '.trace.accounted_share']:.1%} of the "
              f"untraced update; tracing overhead {layers[p + '.trace.overhead_ms']:.3f} ms")


def _write_spans(tracer, args) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with path.open("w") as f:
        for s in tracer.spans:
            f.write(json.dumps(s._asdict()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
