"""Command line interface: gen-data, verify, train, estimate, calibrate.

Exit codes: 0 on success, 1 on validation/usage errors, 2 on runtime
failures. All outputs are plain text or deterministic files; rerunning a
subcommand with identical inputs reproduces its outputs byte for byte
(wall-clock timing in metrics is opt-in via --wall-clock for that reason).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import costmodel, metrics, trainer
from .data import gen_synthetic, load_dataset, save_dataset
from .errors import InfeasiblePlanError, ParconvError, ValidationError
from .kernels import SgdState
from .netdef import load_network
from .schemes import ParallelPlan, load_plan, parse_layer_list

EQUIVALENCE_TOLERANCE = 1e-9


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="parconv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic classification dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True, help="training samples per class")
    p.add_argument("--shape", required=True, help="sample shape CxHxW, e.g. 3x16x16")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory (train.psds, test.psds)")
    p.add_argument("--test-per-class", type=int, default=None,
                   help="test samples per class (default: per-class // 4, at least 1)")

    p = sub.add_parser("verify", help="check that all plans follow the reference trajectory")
    p.add_argument("--net", required=True)
    p.add_argument("--plans", required=True, help="comma-separated plan files")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--sched", choices=("lockstep", "threads"), default="lockstep")

    p = sub.add_parser("train", help="train a network under a parallel plan")
    p.add_argument("--net", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--data", required=True, help="dataset directory or train .psds file")
    p.add_argument("--cost", default=None, help="cost params file for the simulated-time axis")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=0.0005)
    p.add_argument("--sched", choices=("lockstep", "threads"), default="lockstep")
    p.add_argument("--memory", type=int, default=None, help="device capacity override, bytes")
    p.add_argument("--wall-clock", action="store_true",
                   help="record real wall time in metrics (makes the CSV non-reproducible)")

    p = sub.add_parser("estimate", help="predict step/epoch/total time for plans")
    p.add_argument("--net", required=True)
    p.add_argument("--plan", required=True, help="plan file, or comma-separated list for a table")
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--dataset-size", type=int, required=True)

    p = sub.add_parser("calibrate", help="fit cost parameters to observed training times")
    p.add_argument("--net", required=True)
    p.add_argument("--observations", required=True, help="CSV with plan_d,plan_m,days rows")
    p.add_argument("--out", required=True)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--dataset-size", type=int, default=costmodel.IMAGENET_TRAIN_SIZE)
    p.add_argument("--cross-layers", default="",
                   help="conv cross layers used when columnizing for m > 1, e.g. '6'")
    return parser


def _parse_shape(text: str) -> tuple[int, int, int]:
    parts = text.lower().replace("x", " ").split()
    if len(parts) != 3:
        raise ValidationError(f"--shape must be CxHxW, got {text!r}")
    try:
        c, h, w = (int(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--shape must be CxHxW integers, got {text!r}") from None
    if min(c, h, w) < 1:
        raise ValidationError(f"--shape extents must be >= 1, got {text!r}")
    return c, h, w


def _cmd_gen_data(args) -> int:
    # both splits first: a rejected --shape or split leaves no --out behind
    train, test = gen_synthetic(
        args.classes, args.per_class, _parse_shape(args.shape), args.seed,
        test_per_class=args.test_per_class,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(train, out / "train.psds")
    save_dataset(test, out / "test.psds")
    print(f"wrote {out / 'train.psds'} ({train.size} samples)")
    print(f"wrote {out / 'test.psds'} ({test.size} samples)")
    return 0


def _load_plans(text: str, flag: str) -> list[ParallelPlan]:
    """The plans named by a comma-separated list of plan files."""
    plans = [load_plan(p.strip()) for p in text.split(",") if p.strip()]
    if not plans:
        raise ValidationError(f"{flag} names no plan files")
    return plans


def _cmd_verify(args) -> int:
    net = load_network(args.net)
    plans = _load_plans(args.plans, "--plans")
    results = trainer.run_equivalence(
        net, plans, steps=args.steps, seed=args.seed, batch=args.batch, scheduling=args.sched
    )
    print(f"equivalence vs single-worker reference over {args.steps} updates "
          f"(batch {args.batch}, seed {args.seed})")
    print(f"{'plan':>8}  {'loss rel div':>14}  {'param rel div':>14}  status")
    failed = False
    for div in results:
        ok = div.worst <= EQUIVALENCE_TOLERANCE
        failed = failed or not ok
        print(f"{div.plan.describe():>8}  {div.loss_rel:14.3e}  {div.param_rel:14.3e}  "
              f"{'ok' if ok else 'DIVERGED'}")
    print(f"tolerance {EQUIVALENCE_TOLERANCE:.0e}: {'all plans coincide' if not failed else 'divergence detected'}")
    return 1 if failed else 0


def _load_splits(path_text: str):
    path = Path(path_text)
    if path.is_dir():
        train = load_dataset(path / "train.psds")
        test_path = path / "test.psds"
        test = load_dataset(test_path) if test_path.exists() else None
        return train, test
    return load_dataset(path), None


def _cmd_train(args) -> int:
    net = load_network(args.net)
    plan = load_plan(args.plan)
    train_data, test_data = _load_splits(args.data)
    cost = costmodel.load_cost_params(args.cost) if args.cost else None
    cfg = trainer.TrainConfig(
        net=net,
        plan=plan,
        epochs=args.epochs,
        batch=args.batch,
        seed=args.seed,
        train_data=train_data,
        test_data=test_data,
        sgd=SgdState(args.lr, args.momentum, args.weight_decay),
        cost=cost,
        memory_capacity=args.memory,
        scheduling=args.sched,
        record_wall_time=args.wall_clock,
    )
    result = trainer.train(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics.emit_csv(result.records, out / "metrics.csv")
    label = plan.describe()
    metrics.emit_svg({label: result.records}, "updates", out / "loss_vs_updates.svg",
                     y_field="train_loss")
    written = ["metrics.csv", "loss_vs_updates.svg"]
    if test_data is not None:
        metrics.emit_svg({label: result.records}, "updates", out / "test_error_vs_updates.svg",
                         y_field="test_error")
        written.append("test_error_vs_updates.svg")
        if cost is not None:
            metrics.emit_svg({label: result.records}, "sim_time",
                             out / "test_error_vs_sim_time.svg", y_field="test_error")
            written.append("test_error_vs_sim_time.svg")
    last = result.records[-1]
    print(f"trained {label} for {args.epochs} epochs ({last.update} updates)")
    print(f"final train loss {last.train_loss:.6f}"
          + (f", test error {last.test_error:.4f}" if last.test_error is not None else ""))
    print(f"ledger total {last.ledger_bytes} bytes")
    print("wrote " + ", ".join(str(out / name) for name in written))
    return 0


def _cmd_estimate(args) -> int:
    net = load_network(args.net)
    cp = costmodel.load_cost_params(args.cost)
    # every plan is predicted before the table starts, so a bad input exits 1
    # with no row printed; only a plan that does not fit in memory gets a row
    rows = []
    for plan in _load_plans(args.plan, "--plan"):
        try:
            pred = costmodel.predict_total(
                plan, net, args.batch, args.epochs, args.dataset_size, cp
            )
        except InfeasiblePlanError as err:
            pred = err
        rows.append((plan, pred))
    header = (f"{'plan':>8} {'workers':>7} {'compute_s':>12} {'comm_s':>12} "
              f"{'step_s':>12} {'epoch_s':>14} {'days':>10}")
    print(f"net {net.name}: batch {args.batch}, {args.epochs} epochs, "
          f"dataset {args.dataset_size} samples")
    print(header)
    for plan, pred in rows:
        if isinstance(pred, InfeasiblePlanError):
            print(f"{plan.describe():>8} {plan.workers:>7} {'infeasible':>12}  ({pred})")
            continue
        st = pred.step
        print(
            f"{plan.describe():>8} {plan.workers:>7} {st.compute_seconds:12.6f} "
            f"{st.comm_seconds:12.6f} {st.step_seconds:12.6f} {pred.epoch_seconds:14.3f} "
            f"{pred.days:10.3f}"
        )
    return 0


def _cmd_calibrate(args) -> int:
    net = load_network(args.net)
    observations = costmodel.load_observations(
        args.observations, parse_layer_list(args.cross_layers)
    )
    cp = costmodel.calibrate(
        observations, net, batch=args.batch, epochs=args.epochs,
        dataset_size=args.dataset_size,
    )
    costmodel.save_cost_params(cp, args.out)
    print(f"fitted cost parameters ({len(observations)} observations):")
    print(f"  throughput {cp.throughput:.6e} FLOP/s")
    print(f"  bandwidth  {cp.bandwidth:.6e} B/s")
    print(f"  latency    {cp.latency:.6e} s/message")
    print(f"  b_half     {cp.b_half:.6f}")
    print(f"{'plan':>8} {'observed_days':>14} {'predicted_days':>15} {'error':>8}")
    single_days = None
    by_plan = {}
    for plan, days in observations:
        pred = costmodel.predict_total(plan, net, args.batch, args.epochs, args.dataset_size, cp)
        by_plan[(plan.data_shards, plan.model_columns)] = pred.days
        if plan.workers == 1:
            single_days = pred.days
        rel = (pred.days - days) / days
        print(f"{plan.describe():>8} {days:14.3f} {pred.days:15.3f} {rel:+8.2%}")
    if single_days is not None:
        for (d, m), label in (((2, 1), "2-worker data"), ((1, 2), "2-worker model"),
                              ((2, 2), "4-worker hybrid")):
            if (d, m) in by_plan:
                print(f"predicted speedup, {label}: {single_days / by_plan[(d, m)]:.3f}x")
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "verify": _cmd_verify,
    "train": _cmd_train,
    "estimate": _cmd_estimate,
    "calibrate": _cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        return int(exit_err.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ParconvError, OSError) as err:
        print(f"parconv {args.command}: {err}", file=sys.stderr)
        return 1 if isinstance(err, ValidationError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
