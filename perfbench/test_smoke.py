"""Smoke test of the benchmark at its smallest size.

    python3 -m pytest perfbench/test_smoke.py

Each run is as short as the benchmark allows (one request, or one pair
when traced).  Checks that every metric named in BENCHMARK.json appears
with its unit, that the exact counts repeat between two traced runs,
and that a perturbed reference makes the run fail.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=0, reference=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    code, report, result = bench(workload, trace)
    assert code == 0, report["errors"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
    for key in ("nproc", "numpy", "scipy", "blas", "blas_threads", "seed"):
        assert key in report["environment"]


def test_exact_counts_repeat():
    _, first, _ = bench("verify-deep", 1, seed=3)
    _, second, _ = bench("verify-deep", 1, seed=3)
    assert first["exact_counts"] == second["exact_counts"]
    assert {c["kind"] for c in first["exact_counts"].values()} == {
        "exact", "computed"}


def _perturbed(tmp_path, workload, edit):
    reference = json.loads((HERE / "reference.json").read_text())
    for entry in reference["workloads"][workload]["entries"].values():
        edit(entry)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    return path


def test_drifted_value_fails(tmp_path):
    def edit(entry):
        for row in entry["out"]["gamma_star"]:
            row[1] += 1e-6

    code, report, result = bench("oracle-lp", 0,
                                 reference=_perturbed(tmp_path, "oracle-lp", edit))
    assert code != 0 and result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert any("drifted" in e for e in report["errors"])


def test_changed_iteration_count_fails(tmp_path):
    def edit(entry):
        entry["solves"][0][1] += 1

    code, report, result = bench("verify-deep", 1,
                                 reference=_perturbed(tmp_path, "verify-deep", edit))
    assert code != 0 and result["correct"] is False
    assert any("iterations" in e for e in report["errors"])
