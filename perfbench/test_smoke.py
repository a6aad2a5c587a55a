"""Smoke tests for the benchmark: every workload's code path at reduced size.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


# Layers each workload must reach, so a wrapper that misses a binding shows.
REACHED = {
    "joint-desk": ["dist.grid_entries", "dist.tv_distance_joint.self_s", "theorems.check_corollary1.calls"],
    "count-1e7": ["primesets.PrimeSet.primes", "factorstats.moduli_sieved", "factorstats.smooth_parts"],
    "sweep-grid": ["cli.sweep_rows_ok", "cli.sweep_rows_error", "cli.sweep_rows_refused", "theorems.check_thm3.calls"],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    if trace:
        assert all(result["metrics"][name]["value"] > 0 for name in REACHED[workload])
    else:
        assert all(result["metrics"][name]["value"] > 0 for name in names)
    leftovers = [p for p in (ROOT / ".perfbench_runs").iterdir() if p.is_dir()]
    assert not leftovers


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_seed_permutes_order_but_not_expectations(tmp_path):
    orders = set()
    for seed in range(6):
        ops = workloads.build("count-1e7", "smoke", seed, tmp_path)
        orders.add(tuple(op.name for op in ops))
    assert len(orders) > 1 and len({frozenset(o) for o in orders}) == 1
    rows = [workloads.build("sweep-grid", "smoke", seed, tmp_path)[0].units for seed in (1, 2)]
    assert rows[0] != rows[1] and sorted(rows[0]) == sorted(rows[1])


def test_wrong_output_is_counted_as_failed(tmp_path):
    workloads.warm_caches()
    (op,) = workloads.build("sweep-grid", "smoke", 0, tmp_path)
    result = op.run()
    expected = workloads.load_expected("smoke", "sweep-grid")["sweep"]
    assert workloads.check(op, result, {}, expected) == {}
    key = next(k for k, v in expected.items() if v["status"] == "ok" and v["lhs"] is not None)
    tampered = dict(expected, **{key: dict(expected[key], lhs=expected[key]["lhs"] * (1 + 1e-6))})
    assert list(workloads.check(op, result, {}, tampered)) == [key]
    refused = next(k for k, v in expected.items() if v["status"] == "refused")
    tampered = dict(expected, **{refused: {"status": "ok"}})
    assert list(workloads.check(op, result, {}, tampered)) == [refused]
