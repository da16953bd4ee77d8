"""Tests of the benchmark itself: every workload in smoke mode, both runs.

    python3 -m pytest perfbench

Smoke mode runs the same code and checks as a timed run, with short chains
and few replicates; no timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_same_seed_repeats_exact_counts():
    """A second run with the same seed is compared against the counts the
    first one recorded; both must be correct."""
    for _ in range(2):
        proc = bench("--workload", "fit-joint-30x45", "--seed", "5", "--seconds", "0",
                     "--trace", "0", "--smoke")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_without_the_package_exits_nonzero(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for path in HERE.glob("*.py"):
        (bare / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
