"""Mutation probe: does the Tier-1 suite notice a broken verdict?

Copies the repository (``src``, ``tests`` and ``pyproject.toml``) into a
temporary directory, applies one mutant at a time (an exact text substitution
that must match once), runs the Tier-1 tests with ``-x`` and the long
criterion-1 sweep deselected, restores the file, and prints a kill table.
A mutant is killed when the suite fails.  Standard library only; not part of
Tier-1.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py fit conj   # the mutants whose name contains a word
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESELECT = "tests/test_acceptance.py::test_criterion_1_lts_axiom_suite"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


def _forced_true(name: str, path: str, signature: str, value: str = "True") -> Mutant:
    """The function with this ``def`` line returns ``value`` at once."""
    indent = " " * (len(signature) - len(signature.lstrip()) + 4)
    return Mutant(name, path, signature, f"{signature}\n{indent}return {value}")


MUTANTS = [
    _forced_true("groups.membership -> True", "src/homotopes/groups.py",
                 "def membership(x: Matrix, a: Matrix, kind: str, star=None) -> bool:"),
    _forced_true("groups.hom_check -> True", "src/homotopes/groups.py",
                 "def hom_check(x: Matrix, y: Matrix, a: Matrix) -> bool:"),
    _forced_true("groups.tangent_check -> True", "src/homotopes/groups.py",
                 "def tangent_check(x: Matrix, y: Matrix, a: Matrix):", "True, None"),
    _forced_true("JointDecomposition.check_direct_sum -> True", "src/homotopes/involutions.py",
                 "    def check_direct_sum(self) -> bool:"),
    Mutant("direct sum without the span rank", "src/homotopes/involutions.py",
           "        return Subspace(self.ambient, rows).dim == total", "        return True"),
    _forced_true("MatrixInvolution.commutes_with -> True", "src/homotopes/involutions.py",
                 '    def commutes_with(self, other: "MatrixInvolution") -> bool:'),
    _forced_true("validate_models returns []", "src/homotopes/families.py",
                 "    def validate_models(self):", "[]"),
    Mutant("proj middle splitting forced ok", "src/homotopes/families.py",
           "    ok = (bracket_closure(", "    ok = True or (bracket_closure("),
    Mutant("CONJ_SIGNS (QI, conj) second sign flipped", "src/homotopes/kernel.py",
           '(QI, "conj"): (1, -1),', '(QI, "conj"): (1, 1),'),
    Mutant("Matrix canonicalisation dropped", "src/homotopes/matrices.py",
           "g = gcd(den, *vals)", "g = 1"),
    Mutant("fit ignores its bound", "src/homotopes/kernel.py",
           "    if bound >= FLOAT_EXACT_CAP:\n        return a if a.dtype == object",
           "    if False:\n        return a if a.dtype == object"),
    Mutant("fit ignores the float32 limit", "src/homotopes/kernel.py",
           "FLOAT32_EXACT_CAP = 2**24", "FLOAT32_EXACT_CAP = 2**53"),
    Mutant("LT3 bound without the factor 4", "src/homotopes/homotope.py",
           "    return 4 * top * rows", "    return top * rows"),
    Mutant("kernel._spans certificate skipped", "src/homotopes/kernel.py",
           "    k, (n, width) = len(picked), r.shape\n",
           "    return True\n"),
    Mutant("Subspace.contains_subspace -> True", "src/homotopes/matrices.py",
           "        _, member = kernel.coordinates(other._int, self._int, self.pivots)\n"
           "        return bool(member.all())",
           "        return True"),
    Mutant("primed rows not negated", "src/homotopes/families.py",
           "product.negated() if self.label.endswith(\"'\") else product", "product"),
    _forced_true("normalforms._is_01_diagonal -> True", "src/homotopes/normalforms.py",
                 "def _is_01_diagonal(nf: Matrix, rank: int) -> bool:"),
    _forced_true("normalforms._is_reduced_diagonal -> True", "src/homotopes/normalforms.py",
                 "def _is_reduced_diagonal(nf: Matrix, signs: tuple) -> bool:"),
    _forced_true("normalforms._is_standard_skew -> True", "src/homotopes/normalforms.py",
                 "def _is_standard_skew(nf: Matrix, blocks: int) -> bool:"),
]


def _copy_tree(dest: str):
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _run_tests(cwd: str) -> tuple:
    """(exit code, seconds, the failing test or else the summary line) of
    Tier-1 with -x."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "--deselect", DESELECT],
                          cwd=cwd, env=env, capture_output=True, text=True, check=False)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, time.perf_counter() - start, failed[0] if failed else lines[-1] if lines else ""


def main(argv=None) -> int:
    words = sys.argv[1:] if argv is None else argv
    mutants = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        _copy_tree(tmp)
        for m in mutants:
            path = os.path.join(tmp, m.path)
            with open(path) as fh:
                original = fh.read()
            if original.count(m.old) != 1:
                raise SystemExit(f"mutant {m.name!r}: its text must occur exactly once in {m.path}")
            with open(path, "w") as fh:
                fh.write(original.replace(m.old, m.new))
            try:
                code, seconds, last = _run_tests(tmp)
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
            status = "killed" if code != 0 else "SURVIVED"
            rows.append((m.name, status, f"{seconds:.0f} s", last))
            print(f"{m.name}: {status} ({seconds:.0f} s) {last}", file=sys.stderr, flush=True)
    print("| mutant | result | time | killed by |")
    print("|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
