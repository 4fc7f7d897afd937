"""The benchmark's drazin-q request pool, replayed against its golden outputs.

Every ``compute`` request the drazin-q workload can send (``perfbench/
workloads.py``) goes through ``cli.main`` in this one process, and each
exit code and SHA-256 of standard output must match ``perfbench/
goldens.json``.  The benchmark counts any difference as a failed request,
so this is the local gate on byte-identical output of the single-matrix
path over Q.  The files under ``perfbench/`` are only read.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from drazinkit.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def test_drazin_q_pool_matches_goldens(workloads, monkeypatch, capsys):
    goldens = json.loads((PERFBENCH / "goldens.json").read_text(encoding="utf-8"))
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
