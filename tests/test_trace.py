"""The benchmark's per-layer trace still finds every layer it wraps.

``perfbench/tracer.py`` wraps library functions and methods by name and
reads ``Matrix._data``, so a change to the library's storage or names can
silently leave a layer unwrapped or break ``--trace 1``.  One traced
drazin-q pass must report every per-layer metric of ``BENCHMARK.json``
with the work counts below, and one traced search pass the space it
covers and the hits it finds, with no matrix product.  The files under
``perfbench/`` are only read.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_pass(workload):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "0", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    return result


def test_drazin_q_trace_reports_every_layer():
    result = _traced_pass("drazin-q")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(names) == 34
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(names) <= set(metrics)
    # An invertible request (64 of the 240) takes its inverse from one
    # elimination of a itself: it forms no a**2, a**3 or a*G*a.
    assert metrics["matrices.max_entry_bits"] == 37
    assert metrics["matrices.mul.calls"] == metrics["fields.dot.calls"] == 1973
    assert metrics["matrices.rref.calls"] == metrics["drazin.drazin_inverse.calls"] == 240


def test_search_trace_counts_space_and_hits():
    metrics = {name: m["value"] for name, m in _traced_pass("search")["metrics"].items()}
    assert metrics["pairs.search.space"] == 1_958_307
    assert metrics["pairs.search.hits"] == 6_064
    assert metrics["matrices.mul.calls"] == 0
