"""Record the golden output of every command any workload can issue.

Usage, from the root of a drazinkit checkout::

    python3 perfbench/capture_goldens.py

Writes ``perfbench/goldens.json``: the SHA-256 of each command's standard
output, keyed as the worker keys its commands.  It covers both selftests,
the searches at every lambda and entry bound a seed can choose, and the
whole drazin-q request pool, so every seed is checked.  Re-run it only on
a commit whose outputs are known to be right, since the benchmark counts
every later difference as a failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import workloads
from worker import GOLDENS, import_drazinkit, run_command


def all_commands():
    for argv in workloads.CATALOG_ARGV.values():
        yield " ".join(argv), argv, None
    seen = set()
    for lam in workloads.SEARCH_LAMBDAS:
        for bound in workloads.SEARCH_ENTRY_BOUNDS:
            for cmd in workloads.search_commands(lam, bound):
                if cmd[0] not in seen:
                    seen.add(cmd[0])
                    yield cmd
    for n in workloads.SIZES:
        for conj in (False, True):
            for k in range(workloads.POOL_PER_CLASS):
                yield workloads.compute_command(n, conj, k)


def main() -> int:
    cli = import_drazinkit(os.getcwd())
    goldens = {}
    for key, argv, stdin in all_commands():
        code, out = run_command(cli.main, argv, stdin)
        if code != 0 or (argv[0] == "selftest" and not json.loads(out)["all_pass"]):
            sys.stderr.write(f"{key}: exit {code}; not recording goldens\n")
            return 1
        goldens[key] = hashlib.sha256(out.encode()).hexdigest()
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(goldens)} goldens written to {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
