"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Traced runs of every workload must repeat their count metrics exactly for
one seed, and a second seed must run clean.  Without the program next to
it the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNTS = {"parsing.chars", "dynamics.steps", "dynamics.invariant_evals", "dynamics.rows"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def traced_all(seed: int) -> dict:
    res = run_bench(ROOT, "--workload", "all", "--seed", str(seed), "--seconds", "1",
                    "--trace", "1")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout.splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    return doc["metrics"]


def is_count(key: str) -> bool:
    metric = key.split("/", 1)[1]
    return metric.endswith(("_calls", "_pairs")) or metric in COUNTS


@pytest.fixture(scope="module")
def seed_one_twice():
    return traced_all(1), traced_all(1)


def test_counts_repeat_exactly_for_one_seed(seed_one_twice):
    first, second = seed_one_twice
    counts = sorted(k for k in first if is_count(k))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    assert len(counts) == len(workloads) * sum(is_count("w/" + m["name"])
                                                for m in spec["per_layer"])
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    # every workload exercises its own layers
    assert first["paper_suite/catalog.build_calls"]["value"] > 0
    assert first["ladder/parsing.chars"]["value"] > 0
    assert first["orbit/dynamics.steps"]["value"] > 0


def test_second_seed_runs_clean():
    metrics = traced_all(2)
    assert metrics["orbit/dynamics.rows"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = run_bench(tmp_path, "--workload", "paper_suite", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
