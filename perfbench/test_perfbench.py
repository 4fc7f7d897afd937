"""Tests of the benchmark itself.

Run from the root of a drazinkit checkout::

    python3 -m pytest -q perfbench

Traced counts are the gate that does not depend on machine speed, so the
main test makes two traced passes of the same workload and seed and
requires every count to repeat exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402

ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

# Per-layer metrics that count work rather than time it.
COUNTS = [m["name"] for m in BENCH["per_layer"] if m["unit"] != "s"]


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload,seed", [("catalog-f5", 0), ("drazin-q", 3)])
def test_traced_counts_repeat_exactly(workload, seed):
    first = run.run_pass(workload, seed, trace=True)
    second = run.run_pass(workload, seed, trace=True)
    assert first["failures"] == [] and second["failures"] == []
    assert set(first["layers"]) | {"trace.wall_s", "trace.overhead_s"} == {
        m["name"] for m in BENCH["per_layer"]
    }
    for name in COUNTS:
        assert first["layers"][name] == second["layers"][name], name


def test_output_differing_from_golden_is_a_failure():
    golden = worker.hashlib.sha256(b"{}\n").hexdigest()
    assert worker.failure("compute", 0, "{}\n", golden) is None
    assert "differs" in worker.failure("compute", 0, "{} \n", golden)
    assert "exit 1" in worker.failure("compute", 1, "{}\n", golden)
    assert "no golden" in worker.failure("compute", 0, "{}\n", None)


def test_selftest_reporting_failure_is_a_failure():
    out = '{"all_pass":false}\n'
    golden = worker.hashlib.sha256(out.encode()).hexdigest()
    assert "all_pass" in worker.failure("selftest", 0, out, golden)


def test_every_seed_draws_requests_with_goldens():
    with open(worker.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    for seed in range(50):
        for key, _, _ in run.workloads.search_pass(seed):
            assert key in goldens
        for n, conj, k in run.workloads.pick_requests(seed):
            assert run.workloads.pool_key(n, conj, k) in goldens


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
