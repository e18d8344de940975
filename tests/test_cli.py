import subprocess
import sys
from pathlib import Path

import pytest

from parconv.cli import main
from parconv.costmodel import CostParams, save_cost_params
from parconv.metrics import read_csv

CONFIGS = Path("configs")


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


def test_gen_data_bad_shape_exit_1(capsys):
    code = main(["gen-data", "--classes", "2", "--per-class", "4", "--shape", "3x16",
                 "--seed", "0", "--out", "/tmp/ignored"])
    assert code == 1
    assert "CxHxW" in capsys.readouterr().err


def test_unknown_flag_exit_1(capsys):
    assert main(["estimate", "--bogus", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_exit_1():
    assert main([]) == 1


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
    # rerun is byte-identical
    first = out.read_bytes()
    assert main([
        "calibrate", "--net", str(CONFIGS / "alexnet.net"),
        "--observations", str(CONFIGS / "table1.csv"),
        "--cross-layers", "3,6,8,10", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == first


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
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    for sub in ("gen-data", "verify", "train", "estimate", "calibrate"):
        assert sub in result.stdout
