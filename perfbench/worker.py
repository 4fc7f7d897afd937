"""One pass of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<json spec>'`` from the root of a
drazinkit checkout, where the spec holds ``workload``, ``seed``, ``trace``
and, to stop once set-up is done, ``setup_only``.  The worker imports
drazinkit from the checkout's ``src``, builds the pass's commands, and
sends each to ``drazinkit.cli.main`` with standard input and output
redirected to memory.  An untraced pass samples the host's speed while the
commands run (``hostspeed.py``).  The worker then checks every output
against ``goldens.json`` and prints one JSON line: the monotonic clock
reading when set-up ended, the reference chunk's time just after, the
pass's wall time, failures, peak RSS, the pass's time and each command's
latency scaled to the reference host speed and, when traced, the
per-layer report.

``capture_goldens.py`` reuses :func:`run_command` to record the goldens.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from typing import List, Optional, Tuple

import hostspeed
import workloads

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def import_drazinkit(root: str):
    """Import drazinkit from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import drazinkit
    from drazinkit import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(drazinkit.__file__))) != src:
        raise SystemExit(f"drazinkit was imported from {drazinkit.__file__}, not {src}")
    return cli


def run_command(main, argv: List[str], stdin: Optional[str]) -> Tuple[object, str]:
    """Exit status and standard output of ``main(argv)``."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(stdin or "")
    sys.stdout = io.StringIO()
    sys.stderr = io.StringIO()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not a lost run
        traceback.print_exc(file=saved[2])
        code = f"{type(exc).__name__}: {exc}"
    finally:
        out = sys.stdout.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out


def failure(key: str, code, out: str, golden: Optional[str]) -> Optional[str]:
    """Why a command failed, or None when it succeeded."""
    if code != 0:
        return f"{key}: exit {code}"
    if golden is None:
        return f"{key}: no golden output recorded"
    if hashlib.sha256(out.encode()).hexdigest() != golden:
        return f"{key}: output differs from the golden"
    if key.startswith("selftest") and not json.loads(out)["all_pass"]:
        return f"{key}: all_pass is false"
    return None


def main() -> int:
    spec = json.loads(sys.argv[1])
    cli = import_drazinkit(os.getcwd())
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    cmds = workloads.pass_commands(spec["workload"], spec["seed"])
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    # The host's speed just after set-up, to scale the set-up time.
    after = hostspeed.reference_s(3)
    if spec.get("setup_only"):
        sys.stdout.write(json.dumps({"ready": ready, "reference_s": after}) + "\n")
        return 0
    tracer = sampler = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler = hostspeed.Sampler()
        sampler.start()

    runs = []
    t0 = time.perf_counter()
    for key, argv, stdin in cmds:
        t = time.perf_counter()
        code, out = run_command(cli.main, argv, stdin)
        runs.append((key, code, out, t, time.perf_counter()))
    t1 = time.perf_counter()
    if sampler is not None:
        sampler.stop()

    failures = [
        why
        for key, code, out, *_ in runs
        if (why := failure(key, code, out, goldens.get(key))) is not None
    ]
    # Reference chunks ran inside the commands; their time is left out.
    chunks = sampler.sampled_s(t0, t1) if sampler is not None else 0.0
    result = {
        "ready": ready,
        "reference_s": after,
        "wall_s": t1 - t0 - chunks,
        "attempted": len(runs),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if sampler is not None:
        result["reference_samples"] = len(sampler.samples)
        result["scaled_wall_s"] = sampler.scaled(t0, t1)
        result["scaled_ms"] = [[key, sampler.scaled(a, b) * 1000.0] for key, _, _, a, b in runs]
    if tracer is not None:
        result["layers"] = tracer.report()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
