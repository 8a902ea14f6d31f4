"""The mutation probe's mutants stay in step with the source.

``tools/mutants.py`` applies each mutant as an exact text substitution that
must match once; a mutant whose text no longer occurs (the code it breaks was
rewritten) stops the probe.  The tool is loaded read-only.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_mutant_text_occurs_once_in_its_file():
    spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "tools", "mutants.py"))
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    for m in mutants.MUTANTS:
        with open(os.path.join(ROOT, m.path)) as fh:
            assert fh.read().count(m.old) == 1, m.name
