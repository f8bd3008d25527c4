"""The benchmark's own tests.

    python3 -m pytest -q perfbench

Each workload runs twice, traced, with one seed and a one-second window (so
one pass each; about a minute and a half in all).  The exact counts must repeat
exactly between the two runs, the per-instance outcome lines must be
byte-identical, and run-record must reproduce the pinned step anchors.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

EXACT = (
    "simulator.rk4_steps",
    "dynamics.evaluate_calls",
    "simulator.record_samples",
    "dynamics.plan_bytes",
    "spectral.verdict_fail",
    "dynamics.residuals_calls",
    "linalg.rank_calls",
    "partition.calls",
    "cli.artifact_bytes",
    "dynamics.plan_bytes.d4000",
)


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def traced_run(workload: str, seed: int) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    detail = json.loads((BENCH / "out" / f"{workload}-trace1.json").read_text())
    return detail


@pytest.mark.parametrize("workload", ["run-record", "certify"])
def test_exact_counts_repeat_for_one_seed(workload):
    first = traced_run(workload, 7)
    second = traced_run(workload, 7)
    assert first["correct"] and second["correct"], first["problems"] + second["problems"]
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["outcomes"] == second["outcomes"]
    if workload == "run-record":
        lines = first["outcomes"]
        assert "three_cluster_5x5-row steps=5288 stop=stationary valid=True" in lines
        assert "three_cluster_5x5-column steps=5466 stop=stationary valid=True" in lines


def test_end_to_end_output_matches_benchmark_json():
    proc = bench("--workload", "run-record", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: entry["unit"] for name, entry in last["metrics"].items()
    }
    assert all(entry["value"] > 0 for entry in last["metrics"].values())


def test_fails_without_the_program():
    stripped = BENCH / "out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        shutil.copytree(BENCH, stripped / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        proc = bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=stripped)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile():
    values = list(range(1, 41))
    assert run.tail(values) == (30, 75.0)
    assert run.tail(values[:19]) == (19, 100.0)
