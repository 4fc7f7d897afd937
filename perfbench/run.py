"""The drazinkit benchmark.

Usage, from the root of a drazinkit checkout::

    python3 perfbench/run.py --workload catalog-q --seed 0 --seconds 20 --trace 0

The load is a closed loop from one client.  A run repeats passes of the
workload until the next pass would end after ``--seconds`` (at least
MIN_PASSES).  Every end-to-end time is scaled to the host's reference
speed, sampled while the work runs (``hostspeed.py``), and is a median
over the run's passes.  Each pass is a fresh interpreter (``worker.py``) that
imports drazinkit from ``src`` and sends the pass's commands one after
another through ``drazinkit.cli.main``.  A fresh interpreter per pass
keeps ``pairs.cached_hits`` cold, as it is for every CLI invocation.
Every pass of a run sends the same commands.

With ``--trace 0`` the last line of standard output is the result with
every end-to-end metric in BENCHMARK.json; with ``--trace 1`` the run
makes one untraced and one traced pass and reports every per-layer
metric, including the tracing overhead.  The line before the result
carries the environment, the failures, the metric under its
workload-specific name and the layer map.  The exit code is 0 when the
run completed, whether or not outputs were correct, and 2 when the
checkout holds no drazinkit sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from typing import Dict, List

import hostspeed
import workloads

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
MIN_PASSES = 1
MIN_SETUPS = 7
PASS_TIMEOUT_S = 150

# The name items_per_s has on each workload, and the items in one pass.
ITEMS = {
    "catalog-q": ("pairs_per_s", workloads.CATALOG_PAIRS),
    "catalog-f5": ("pairs_per_s", workloads.CATALOG_PAIRS),
    "search": ("space_per_s", workloads.SEARCH_SPACE),
    "drazin-q": ("requests_per_s", workloads.REQUESTS),
}

# Which end-to-end metric each layer's metrics should move, and where.
LAYER_MAP = {
    "matrices.mul": "pairs_per_s on catalog-q (large share) and catalog-f5",
    "matrices.rref, matrices.max_entry_bits": "request_p95_ms on drazin-q",
    "fields.dot": "pairs_per_s on catalog-q",
    "drazin": "pairs_per_s on catalog-q and catalog-f5; search unchanged",
    "relations": "pairs_per_s on catalog-q and catalog-f5",
    "theorems": "pairs_per_s on catalog-q and catalog-f5",
    "pairs.corpus": "wall_s on catalog-q and catalog-f5",
    "pairs.search": "space_per_s on search",
    "cli.parse, cli.emit": "request_p50_ms on drazin-q",
}


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_pass(workload: str, seed: int, trace: bool = False, setup_only: bool = False) -> Dict:
    """Spawn one worker and return its report.

    ``setup_s`` runs from just before the interpreter starts to the moment
    the worker has imported drazinkit and built its inputs;
    ``scaled_setup_s`` scales it by the reference chunk's mean time just
    before the worker starts and just after its set-up.
    """
    spec = {"workload": workload, "seed": seed, "trace": trace, "setup_only": setup_only}
    before = hostspeed.reference_s(3)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, WORKER, json.dumps(spec)], stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"worker timed out after {PASS_TIMEOUT_S} s"}
    total = time.clock_gettime(time.CLOCK_MONOTONIC) - start
    if proc.returncode != 0 or not out.strip():
        return {"error": f"worker exited with {proc.returncode}"}
    report = json.loads(out.decode().splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    speed = (before + report["reference_s"]) / 2
    report["scaled_setup_s"] = report["setup_s"] * hostspeed.REFERENCE_S / speed
    report["total_s"] = total
    return report


def tally(workload: str, passes: List[Dict]):
    """Attempted and failed operations over the run, and failure reasons."""
    attempted = failed = 0
    reasons: List[str] = []
    for p in passes:
        if "error" in p:
            # A worker that died takes every command of its pass with it.
            n = workloads.pass_size(workload)
            attempted += n
            failed += n
            reasons.append(p["error"])
        else:
            attempted += p["attempted"]
            failed += len(p["failures"])
            reasons.extend(p["failures"])
    return attempted, failed, reasons


def measure(workload: str, seed: int, seconds: float):
    """Timed passes until ``seconds`` is spent; the end-to-end metrics.

    The host's speed drifts by tens of percent within seconds, so every
    time is scaled to its reference speed (``hostspeed.py``).  ``wall_s``
    is the median of the passes' scaled times, a command's latency the
    median of its scaled latencies, and ``setup_s`` the median of at least
    MIN_SETUPS scaled set-up times.  The raw medians go to ``info``.
    """
    passes: List[Dict] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed))
        if "error" in passes[-1]:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["total_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    ok = [p for p in passes if "error" not in p]
    setups = [(p["scaled_setup_s"], p["setup_s"]) for p in ok]
    while ok and len(setups) < MIN_SETUPS:
        extra = run_pass(workload, seed, setup_only=True)
        if "error" in extra:
            passes.append(extra)
            break
        setups.append((extra["scaled_setup_s"], extra["setup_s"]))
    info: Dict = {"passes": len(ok), "setup_samples": len(setups)}
    metrics: Dict[str, float] = {}
    if ok:
        per_command: Dict[str, List[float]] = {}
        for p in ok:
            for key, ms in p["scaled_ms"]:
                per_command.setdefault(key, []).append(ms)
        latencies = [statistics.median(v) for v in per_command.values()]
        wall = statistics.median(p["scaled_wall_s"] for p in ok)
        items = ITEMS[workload][1] / wall
        metrics = {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": wall,
            "items_per_s": items,
            "request_p50_ms": percentile(latencies, 50),
            "request_p95_ms": percentile(latencies, 95),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in ok),
        }
        info["raw_wall_s"] = statistics.median(p["wall_s"] for p in ok)
        info["raw_setup_s"] = statistics.median(raw for _, raw in setups)
        info["reference_samples"] = sum(p["reference_samples"] for p in ok)
        info["latency_samples"] = len(latencies)
        info["samples_beyond_p95"] = sum(ms > metrics["request_p95_ms"] for ms in latencies)
        info[ITEMS[workload][0]] = items
    return passes, metrics, info


def measure_traced(workload: str, seed: int):
    """One untraced and one traced pass; the per-layer metrics."""
    plain = run_pass(workload, seed)
    traced = run_pass(workload, seed, trace=True)
    metrics: Dict[str, float] = {}
    if "error" not in plain and "error" not in traced:
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    info = {"untraced_wall_s": plain.get("wall_s"), "layer_map": LAYER_MAP}
    return [plain, traced], metrics, info


def environment() -> Dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "gmpy2": find_spec("gmpy2") is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ITEMS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "drazinkit", "__init__.py")):
        sys.stderr.write(f"no drazinkit sources under {root}/src; run from a checkout\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    if args.trace:
        passes, values, info = measure_traced(args.workload, args.seed)
        wanted = bench["per_layer"]
    else:
        passes, values, info = measure(args.workload, args.seed, args.seconds)
        wanted = bench["end_to_end"]
    attempted, failed, reasons = tally(args.workload, passes)
    why = {w["name"]: w["why"] for w in bench["workloads"]}[args.workload]
    info.update(
        {
            "workload": args.workload,
            "why": why,
            "seed": args.seed,
            "environment": environment(),
            "fail_ratio": failed / attempted,
            "failures": reasons[:10],
        }
    )
    print(json.dumps({"info": info}))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    result = {
        "correct": failed == 0 and len(metrics) == len(wanted),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
