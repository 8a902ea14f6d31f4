"""Line coverage of ``src/homotopes`` under the Tier-1 tests, standard
library only (no ``coverage`` package is needed): a ``sys.settrace`` line
collector around one in-process pytest run.  Not part of Tier-1; the tracer
makes the suite about three times slower.

    python3 tools/coverage.py                      # Tier-1 without criterion 1
    python3 tools/coverage.py tests/test_cli.py    # these pytest arguments instead

Prints the executed and the executable lines of each module and their
totals, then the lines no test ran.  The executable lines of a file are the
line numbers of its compiled code objects, less its docstrings.  The exit
code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "homotopes")
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "--deselect",
                "tests/test_acceptance.py::test_criterion_1_lts_axiom_suite"]


def executable_lines(path: str) -> set:
    """The line numbers of the compiled code of ``path``, less the lines of
    its module, class and function docstrings."""
    with open(path) as fh:
        source = fh.read()
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines, codes = set(), [compile(source, path, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines - docs


def collect(args) -> tuple:
    """(pytest exit code, {file: executed line numbers}) of one pytest run
    with the package's frames traced line by line."""
    import pytest

    hits = defaultdict(set)
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(list(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def _ranges(lines) -> str:
    """Line numbers as "3, 7-9, 12"."""
    spans = []
    for n in sorted(lines):
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    code, hits = collect(args or DEFAULT_ARGS)
    rows, unrun, run_total, all_total = [], [], 0, 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        done = lines & hits.get(path, set())
        run_total, all_total = run_total + len(done), all_total + len(lines)
        rows.append(f"{name:<16} {len(done):>5} / {len(lines):<5}")
        if lines - done:
            unrun.append(f"{name}: {_ranges(lines - done)}")
    print("\nmodule           executed / executable")
    print("\n".join(rows))
    print(f"{'total':<16} {run_total:>5} / {all_total:<5}")
    print("\nlines no test ran:")
    print("\n".join(unrun) or "none")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
