"""Every command the benchmark can send, replayed against its golden output.

The commands come from ``perfbench/capture_goldens.py``: both selftests,
the searches at every lambda and entry bound a seed can choose, and the
whole drazin-q ``compute`` request pool.  Each goes through ``cli.main``,
and each exit code and SHA-256 of standard output must match ``perfbench/
goldens.json``.  The benchmark counts any difference as a failed request,
so this is the local gate on byte-identical output.  The drazin-q passes
are also replayed as the benchmark's worker sends them: a seed's requests
in its order, in a fresh interpreter, under a fixed hash seed, so that
state carried from one request to the next or an order that depends on
the hash seed shows as a difference.  The files under ``perfbench/`` are
only read.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from drazinkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import capture_goldens
        import worker
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return capture_goldens, worker, workloads


@pytest.fixture(scope="module")
def goldens():
    return json.loads((PERFBENCH / "goldens.json").read_text(encoding="utf-8"))


def test_drazin_q_pool_matches_goldens(perfbench, goldens, monkeypatch, capsys):
    _, _, workloads = perfbench
    pool = [
        workloads.compute_command(n, conj, k)
        for n in workloads.SIZES
        for conj in (False, True)
        for k in range(workloads.POOL_PER_CLASS)
    ]
    assert len(pool) == 512
    differ = []
    for key, argv, stdin in pool:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        out = capsys.readouterr().out
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != goldens[key]:
            differ.append(f"{key}: exit {code}")
    assert differ == []


def test_selftests_and_searches_match_goldens(perfbench, goldens):
    capture_goldens, worker, _ = perfbench
    commands = [
        (key, argv) for key, argv, _ in capture_goldens.all_commands()
        if argv[0] != "compute"
    ]
    assert len(commands) == len(goldens) - 512 == 13
    failures = [
        why
        for key, argv in commands
        if (why := worker.failure(key, *worker.run_command(main, argv, None), goldens.get(key)))
    ]
    assert failures == []


# One drazin-q pass, as the worker sends it: the seed's requests in order.
_PASS = """
import json, os, sys
sys.path.insert(0, "perfbench")
import worker, workloads
main = worker.import_drazinkit(os.getcwd()).main
with open(worker.GOLDENS, encoding="utf-8") as fh:
    goldens = json.load(fh)
requests = workloads.compute_requests(int(sys.argv[1]))
failures = [
    why for key, argv, stdin in requests
    if (why := worker.failure(key, *worker.run_command(main, argv, stdin), goldens.get(key)))
]
print(json.dumps({"sent": len(requests), "failures": failures}))
"""


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_drazin_q_pass_in_fresh_interpreter_matches_goldens(perfbench, seed):
    _, _, workloads = perfbench
    env = dict(os.environ, PYTHONHASHSEED=str(seed + 1))
    proc = subprocess.run(
        [sys.executable, "-c", _PASS, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"sent": workloads.REQUESTS, "failures": []}
