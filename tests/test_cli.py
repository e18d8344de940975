import subprocess
import sys

import pytest

from parconv import trainer
from parconv.cli import main
from parconv.costmodel import CostParams, save_cost_params
from parconv.metrics import read_csv

from oracles import CONFIGS


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "blobs"
    code = main([
        "gen-data", "--classes", "10", "--per-class", "8", "--shape", "3x16x16",
        "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture()
def cost_file(tmp_path):
    path = tmp_path / "desk.cost"
    save_cost_params(CostParams(throughput=1e9, bandwidth=1e9, latency=1e-4, b_half=4.0), path)
    return path


def test_gen_data_deterministic(tmp_path, capsys):
    args = ["gen-data", "--classes", "2", "--per-class", "4", "--shape", "1x4x4",
            "--seed", "3", "--out"]
    assert main(args + [str(tmp_path / "a")]) == 0
    assert main(args + [str(tmp_path / "b")]) == 0
    for name in ("train.psds", "test.psds"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert "wrote" in capsys.readouterr().out


def test_gen_data_bad_shape_exit_1(tmp_path, capsys):
    for classes, shape, message in [
        ("2", "3x16", "--shape must be CxHxW, got '3x16'"),
        ("2", "3xax4", "--shape must be CxHxW integers, got '3xax4'"),
        ("1", "3x4x4", "gen_synthetic needs at least 2 classes"),
    ]:
        code = main(["gen-data", "--classes", classes, "--per-class", "4", "--shape", shape,
                     "--seed", "0", "--out", str(tmp_path / "x")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("shape", ["0x4x4", "1x-2x4"])
def test_gen_data_empty_extent_exit_1(tmp_path, capsys, shape):
    code = main(["gen-data", "--classes", "2", "--per-class", "4", "--shape", shape,
                 "--seed", "0", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "extents must be >= 1" in err and "Traceback" not in err


def test_unknown_flag_exit_1(capsys):
    assert main(["estimate", "--bogus", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_exit_1():
    assert main([]) == 1


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_verify_steps_below_one_exit_1(capsys, steps):
    code = main([
        "verify", "--net", str(CONFIGS / "tinynet.net"),
        "--plans", str(CONFIGS / "plan_d1m1.plan"), "--steps", steps,
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert f"steps must be >= 1, got {steps}" in captured.err and "Traceback" not in captured.err
    assert "coincide" not in captured.out


def test_verify_no_plan_files_exit_1(capsys):
    code = main(["verify", "--net", str(CONFIGS / "tinynet.net"), "--plans", ","])
    captured = capsys.readouterr()
    assert code == 1
    assert "--plans names no plan files" in captured.err and captured.out == ""


def test_verify_four_plans_exit_0(capsys):
    plans = ",".join(
        str(CONFIGS / name)
        for name in ("plan_d1m1.plan", "plan_d2m1.plan", "tinynet_d1m2.plan", "tinynet_d2m2.plan")
    )
    code = main([
        "verify", "--net", str(CONFIGS / "tinynet.net"), "--plans", plans,
        "--steps", "8", "--seed", "1", "--batch", "8",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count(" ok") == 4
    assert "coincide" in out


def test_verify_grouped_plan_rejected_before_training(tmp_path, capsys, monkeypatch):
    """A plan whose split conv reads its column's slice has no dense layout to
    compare; it is named before any plan trains."""
    grouped = tmp_path / "grouped.plan"
    grouped.write_text("data_shards 1\nmodel_columns 2\n")
    trained = []
    monkeypatch.setattr(trainer, "reference_step", lambda *a, **k: trained.append(a))
    code = main([
        "verify", "--net", str(CONFIGS / "tinynet.net"),
        "--plans", f"{CONFIGS / 'plan_d1m1.plan'},{grouped}", "--steps", "2",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "plan d1xm2: layer 3 consumes a column slice (grouped)" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert trained == []


def test_train_writes_outputs_and_is_deterministic(tmp_path, dataset_dir, cost_file, capsys):
    def run(out_name):
        out = tmp_path / out_name
        code = main([
            "train", "--net", str(CONFIGS / "tinynet.net"),
            "--plan", str(CONFIGS / "tinynet_d2m2.plan"),
            "--epochs", "1", "--batch", "8", "--seed", "11",
            "--data", str(dataset_dir), "--cost", str(cost_file),
            "--out-dir", str(out),
        ])
        assert code == 0
        return out

    out_a = run("run_a")
    assert (out_a / "metrics.csv").exists()
    assert (out_a / "loss_vs_updates.svg").exists()
    assert (out_a / "test_error_vs_updates.svg").exists()
    assert (out_a / "test_error_vs_sim_time.svg").exists()
    records = read_csv(out_a / "metrics.csv")
    assert records[-1].test_error is not None
    assert records[-1].sim_seconds > 0

    out_b = run("run_b")
    for name in ("metrics.csv", "loss_vs_updates.svg", "test_error_vs_updates.svg",
                 "test_error_vs_sim_time.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_train_scheduling_modes_identical_files(tmp_path, dataset_dir):
    outs = []
    for sched in ("lockstep", "threads"):
        out = tmp_path / sched
        code = main([
            "train", "--net", str(CONFIGS / "tinynet.net"),
            "--plan", str(CONFIGS / "tinynet_d1m2.plan"),
            "--epochs", "1", "--batch", "8", "--seed", "2",
            "--data", str(dataset_dir), "--out-dir", str(out), "--sched", sched,
        ])
        assert code == 0
        outs.append(out)
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()


def test_train_on_train_file_has_no_test_split(tmp_path, dataset_dir, capsys):
    """--data naming the train file itself trains without a test split: no
    test-error column values and no test-error plot."""
    out = tmp_path / "run"
    code = main([
        "train", "--net", str(CONFIGS / "tinynet.net"),
        "--plan", str(CONFIGS / "plan_d1m1.plan"),
        "--epochs", "1", "--batch", "8", "--seed", "1",
        "--data", str(dataset_dir / "train.psds"), "--out-dir", str(out),
    ])
    assert code == 0
    assert "test error" not in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["loss_vs_updates.svg", "metrics.csv"]
    records = read_csv(out / "metrics.csv")
    assert len(records) == 10 and all(r.test_error is None for r in records)


def test_train_epochs_zero_exit_1(dataset_dir, tmp_path, capsys):
    code = main([
        "train", "--net", str(CONFIGS / "tinynet.net"),
        "--plan", str(CONFIGS / "plan_d1m1.plan"),
        "--epochs", "0", "--batch", "8", "--seed", "1",
        "--data", str(dataset_dir), "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "epochs" in capsys.readouterr().err


def test_train_memory_infeasible_exit_2(dataset_dir, tmp_path, capsys):
    code = main([
        "train", "--net", str(CONFIGS / "tinynet.net"),
        "--plan", str(CONFIGS / "plan_d1m1.plan"),
        "--epochs", "1", "--batch", "8", "--seed", "1",
        "--data", str(dataset_dir), "--out-dir", str(tmp_path / "x"),
        "--memory", "1000",
    ])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("memory", ["0", "-5"])
def test_train_memory_below_one_exit_1(dataset_dir, tmp_path, capsys, memory):
    code = main([
        "train", "--net", str(CONFIGS / "tinynet.net"),
        "--plan", str(CONFIGS / "plan_d1m1.plan"),
        "--epochs", "1", "--batch", "8", "--seed", "1",
        "--data", str(dataset_dir), "--out-dir", str(tmp_path / "x"),
        "--memory", memory,
    ])
    assert code == 1
    assert f"memory capacity must be >= 1 byte, got {memory}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_estimate_table(cost_file, capsys):
    code = main([
        "estimate", "--net", str(CONFIGS / "tinynet.net"),
        "--plan", ",".join([
            str(CONFIGS / "plan_d1m1.plan"),
            str(CONFIGS / "plan_d2m1.plan"),
            str(CONFIGS / "tinynet_d1m2.plan"),
        ]),
        "--batch", "8", "--cost", str(cost_file), "--epochs", "2", "--dataset-size", "64",
    ])
    out = capsys.readouterr().out
    assert code == 0
    for label in ("d1xm1", "d2xm1", "d1xm2", "compute_s", "days"):
        assert label in out


def test_estimate_bad_stride_exit_1(tmp_path, cost_file, capsys):
    net = tmp_path / "bad.net"
    net.write_text("input 1 8 8\nconv 4 3 0 1\nrelu\nfc 10\nsoftmax 10\n")
    code = main([
        "estimate", "--net", str(net), "--plan", str(CONFIGS / "plan_d1m1.plan"),
        "--batch", "8", "--cost", str(cost_file), "--epochs", "1", "--dataset-size", "64",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "layer 0" in err and "stride" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "bad, named",
    [
        ("throughput abc", "line 1: throughput"),
        ("memory inf", "line 5: memory"),
        ("memory nan", "line 5: memory"),
        ("throughput nan", "throughput must be finite"),
        ("latency inf", "latency must be finite"),
    ],
)
def test_estimate_malformed_cost_number_exit_1(tmp_path, cost_file, capsys, bad, named):
    key = bad.split()[0]
    lines = [bad if line.split()[0] == key else line
             for line in cost_file.read_text().splitlines()]
    cost_file.write_text("\n".join(lines) + "\n")
    code = main([
        "estimate", "--net", str(CONFIGS / "tinynet.net"),
        "--plan", str(CONFIGS / "plan_d1m1.plan"),
        "--batch", "8", "--cost", str(cost_file), "--epochs", "1", "--dataset-size", "64",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize(
    "plan, run, message",
    [
        ("plan_d1m1.plan", ["--batch", "8", "--epochs", "-1", "--dataset-size", "0"],
         "epochs must be >= 0"),
        ("plan_d2m1.plan", ["--batch", "7", "--epochs", "1", "--dataset-size", "64"],
         "batch size 7 not divisible by 2 data shards"),
    ],
)
def test_estimate_bad_inputs_exit_1_without_rows(cost_file, capsys, plan, run, message):
    code = main([
        "estimate", "--net", str(CONFIGS / "tinynet.net"), "--plan", str(CONFIGS / plan),
        "--cost", str(cost_file), *run,
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "which, extra, message",
    [
        ("plan", "data_shards 4\n", "line 3: duplicate plan key 'data_shards'"),
        ("cost", "throughput 2e12\n", "duplicate key 'throughput'"),
    ],
)
def test_estimate_duplicate_key_exit_1(tmp_path, cost_file, capsys, which, extra, message):
    plan = tmp_path / "twice.plan"
    plan.write_text((CONFIGS / "plan_d2m1.plan").read_text())
    twice = plan if which == "plan" else cost_file
    twice.write_text(twice.read_text() + extra)
    code = main([
        "estimate", "--net", str(CONFIGS / "tinynet.net"), "--plan", str(plan),
        "--batch", "8", "--cost", str(cost_file), "--epochs", "1", "--dataset-size", "64",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_estimate_memory_infeasible_row_exit_0(tmp_path, capsys):
    small = tmp_path / "small.cost"
    save_cost_params(
        CostParams(throughput=1e9, bandwidth=1e9, latency=1e-4, b_half=4.0, memory=1000), small
    )
    code = main([
        "estimate", "--net", str(CONFIGS / "tinynet.net"),
        "--plan", f"{CONFIGS / 'plan_d1m1.plan'},{CONFIGS / 'plan_d2m1.plan'}",
        "--batch", "8", "--cost", str(small), "--epochs", "1", "--dataset-size", "64",
    ])
    assert code == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if "infeasible" in line]
    assert len(rows) == 2 and "capacity is 1000 B" in rows[0]


def test_estimate_missing_cost_file_exit_2(capsys):
    code = main([
        "estimate", "--net", str(CONFIGS / "tinynet.net"),
        "--plan", str(CONFIGS / "plan_d1m1.plan"),
        "--batch", "8", "--cost", "/nonexistent.cost", "--epochs", "1",
        "--dataset-size", "64",
    ])
    assert code == 2


def test_calibrate_cli_reproduces_table1(tmp_path, capsys):
    out = tmp_path / "fitted.cost"
    code = main([
        "calibrate", "--net", str(CONFIGS / "alexnet.net"),
        "--observations", str(CONFIGS / "table1.csv"),
        "--cross-layers", "3,6,8,10", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert out.exists()
    assert "speedup" in text
    # rerun is byte-identical, also with blank lines and '#' comments in the table
    first = out.read_bytes()
    commented = tmp_path / "table1_commented.csv"
    rows = (CONFIGS / "table1.csv").read_text().splitlines()
    commented.write_text("# Table 1\n\n" + "  # row\n".join(rows) + "\n")
    assert main([
        "calibrate", "--net", str(CONFIGS / "alexnet.net"),
        "--observations", str(commented),
        "--cross-layers", "3,6,8,10", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == first
    assert capsys.readouterr().out == text


@pytest.mark.parametrize(
    "cross, table, named",
    [
        ("3,x", "1,1,10.5\n1,2,6.6\n2,1,7.0\n4,1,7.2\n", "'3,x'"),
        ("3", "# obs\n1,1,10.5\n\n1,2,six # bad\n", ":4: bad numbers in '1,2,six'"),
        ("3", "1,1,10.5\n1,2\n", ":2: expected 'd,m,days', got '1,2'"),
    ],
)
def test_calibrate_bad_inputs_exit_1(tmp_path, capsys, cross, table, named):
    obs = tmp_path / "obs.csv"
    obs.write_text(table)
    code = main([
        "calibrate", "--net", str(CONFIGS / "alexnet.net"), "--observations", str(obs),
        "--cross-layers", cross, "--out", str(tmp_path / "fitted.cost"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("epochs", ["0", "-2"])
def test_calibrate_epochs_below_one_exit_1(tmp_path, capsys, epochs):
    code = main([
        "calibrate", "--net", str(CONFIGS / "alexnet.net"),
        "--observations", str(CONFIGS / "table1.csv"), "--cross-layers", "3,6,8,10",
        "--epochs", epochs, "--out", str(tmp_path / "fitted.cost"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"epochs must be >= 1, got {epochs}" in err and "Traceback" not in err
    assert not (tmp_path / "fitted.cost").exists()


def test_estimate_reproduces_table1_within_10_percent(tmp_path, capsys):
    fitted = tmp_path / "fitted.cost"
    assert main([
        "calibrate", "--net", str(CONFIGS / "alexnet.net"),
        "--observations", str(CONFIGS / "table1.csv"),
        "--cross-layers", "3,6,8,10", "--out", str(fitted),
    ]) == 0
    capsys.readouterr()
    plans = ",".join([
        str(CONFIGS / "plan_d1m1.plan"),
        str(CONFIGS / "alexnet_d1m2.plan"),
        str(CONFIGS / "plan_d2m1.plan"),
        str(CONFIGS / "plan_d4m1.plan"),
        str(CONFIGS / "alexnet_d2m2.plan"),
    ])
    assert main([
        "estimate", "--net", str(CONFIGS / "alexnet.net"), "--plan", plans,
        "--batch", "256", "--cost", str(fitted),
        "--epochs", "100", "--dataset-size", "1281167",
    ]) == 0
    out = capsys.readouterr().out
    table1 = {"d1xm1": 10.5, "d1xm2": 6.6, "d2xm1": 7.0, "d4xm1": 7.2, "d2xm2": 4.8}
    for line in out.splitlines():
        cells = line.split()
        if cells and cells[0] in table1:
            days = float(cells[-1])
            assert abs(days - table1[cells[0]]) / table1[cells[0]] < 0.10


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "parconv.cli", "--help"],
        cwd=CONFIGS.parent / "src", capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    for sub in ("gen-data", "verify", "train", "estimate", "calibrate"):
        assert sub in result.stdout
