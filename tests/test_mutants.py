"""The mutation probe's mutants stay in step with the source.

``tools/mutants.py`` applies each mutant as an exact text substitution that
must match once; a mutant whose text no longer occurs (the code it breaks was
rewritten) stops the probe, and so does a ``first`` node id that pytest
cannot resolve (exit 4).  The tool is loaded read-only.
"""

import ast
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "tools", "mutants.py"))
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    return mutants.MUTANTS


def test_every_mutant_text_occurs_once_in_its_file():
    for m in _mutants():
        with open(os.path.join(ROOT, m.path)) as fh:
            assert fh.read().count(m.old) == 1, m.name


def test_every_first_test_exists():
    """Each node id in ``first`` is a test file that exists, and each
    ``::name`` after it (a parametrized id without its ``[...]``) is a class
    or function defined in the file, resp. in the class before it."""
    for m in _mutants():
        for node in m.first.split():
            path, *names = node.split("::")
            assert os.path.isfile(os.path.join(ROOT, path)), (m.name, node)
            with open(os.path.join(ROOT, path)) as fh:
                body = ast.parse(fh.read()).body
            for name in names:
                defs = {d.name: d for d in body if isinstance(d, (ast.ClassDef, ast.FunctionDef))}
                assert name.split("[")[0] in defs, (m.name, node)
                body = defs[name.split("[")[0]].body
