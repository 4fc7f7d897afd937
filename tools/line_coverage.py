"""List the lines of ``src/drazinkit`` that the tier-1 tests never run.

Usage::

    python tools/line_coverage.py [pytest arguments]

The script runs pytest in this process under ``sys.settrace`` (no coverage
package is needed) and prints, for each module of the package, the
executable lines that no test ran, then their total.  With no arguments it
runs the whole tier-1 suite (``testpaths = tests``); any arguments are
passed to pytest instead.  It exits with pytest's exit code.

The tracer does not follow subprocesses: a line that only a child
interpreter runs (the tests that start ``python -m drazinkit.cli``, for one)
is listed as never run.  A traced tier-1 run takes one to two minutes on
2 CPUs.  pytest does not collect this file, since it lies outside
``tests``.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "drazinkit"


def executable_lines(path: Path) -> set:
    """The line numbers that some instruction of the module at ``path`` is on."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv) -> int:
    modules = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in modules}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # Only frames of the package's modules are traced line by line; a
        # function's first line counts as run when the function is called.
        if frame.f_code.co_filename in ran:
            ran[frame.f_code.co_filename].add(frame.f_code.co_firstlineno)
            return local
        return None

    # The package is imported only under the tracer, so its module-level
    # lines are seen too.
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for name, path in modules.items():
        missed = sorted(executable_lines(path) - ran[name])
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {', '.join(map(str, missed))}")
    print(f"{total} executable lines of src/drazinkit never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
