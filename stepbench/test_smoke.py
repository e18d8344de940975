"""Smoke test of the step-time benchmark: one timed round of every workload
run.py knows (the ones BENCHMARK.json gates and tiny-lockstep), untraced and
traced, emits exactly the metrics BENCHMARK.json names and passes every
correctness check.

Run from the repository root:

    python3 -m pytest stepbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "stepbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_round_emits_every_metric_and_passes_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
