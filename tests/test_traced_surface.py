"""The surface the benchmark's tracer wraps still exists and still runs.

``perfbench/tracer.py`` wraps the package's functions and methods by name
(``perfbench/layers.py``), and some of its counters read the arguments of the
calls they wrap.  A renamed function, or an argument without the attribute a
counter reads, breaks only the traced benchmark run, which no other test
makes.  Both files are loaded read-only from the benchmark directory.
"""

import importlib.util
import json
import math
import os
import random
import sys

from homotopes import cli, families, homotope
from homotopes.families import family, rand_matrix, rand_scalar
from homotopes.kernel import Arr
from homotopes.matrices import Matrix
from homotopes.scalars import Q

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

# the layers a proj(1, 1) table runs through
TABLE_LAYERS = ("cli.main", "families.instantiate", "involutions.construct", "involutions.joint_eigenspaces",
                "homotope.check_lts", "homotope.structure", "kernel.coordinates", "kernel.bilinear_tensor",
                "kernel.t_tensor", "matrices.coordinates")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_of_the_wrapped_surface(monkeypatch, tmp_path):
    """Under ``Tracer(*package_layers())``: a proj(1, 1) table through the
    CLI, one ``symmetric_pair``, two polarized ``check_lts`` (d = 4, and
    d = 12, past ``LT3_ALL_PAIRS_MAX_DIM``, so the LT3 row pick runs), a
    ``Matrix @ Arr`` product and a ``rand_scalar`` product.  Every layer
    resolves to a wrapped name, the table's layers record calls, and
    uninstalling puts the originals back."""
    tracer = _load("tracer")
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # layers.py imports it by name
    layers, modules = _load("layers").package_layers()
    originals = [getattr(layer.owner, layer.attr) for layer in layers]
    rng = random.Random(4)
    with tracer.Tracer(layers, modules) as traced:
        for layer, original in zip(layers, originals):
            assert getattr(layer.owner, layer.attr).__wrapped__ is original, layer.name
        out = tmp_path / "table.json"
        assert cli.main(["table", "--construction", "proj", "--p", "1", "--q", "1",
                         "--samples", "2", "--seed", "3", "--out", str(out)]) == 0
        # through the module attributes, which the tracer replaced
        dec = families.instantiate("proj", (1, 1)).decomposition
        assert homotope.symmetric_pair(dec, (1, 1), (1, 1), Matrix.zeros(2, 2, Q)).verified
        desc = family("pol1-1.a")
        system = desc.system((1, 1), desc.sample_params((1, 1), rng, "generic"))
        assert homotope.check_lts(system).ok
        desc = family("pol2-3.1")
        system = desc.system((2, 2), desc.sample_params((2, 2), rng, "generic"))
        assert system.dim == 12 and homotope.check_lts(system).ok
        m = rand_matrix(2, 2, Q, rng)
        assert (Matrix.identity(2, Q) @ Arr.from_matrices([m, m])).a.shape == (2, 2, 2, 1)
        assert rand_scalar(Q, rng) * rand_scalar(Q, rng) is not None
        stats = traced.snapshot()
    for name in TABLE_LAYERS + ("homotope.symmetric_pair", "matrices.matmul", "scalars.mul"):
        assert stats[f"{name}.calls"] > 0, name
    assert stats["matrices.matmul.scalar_mults"] > 0
    assert stats["kernel.echelon.calls"] > 0 and stats["kernel.echelon.rows"] > 0
    for layer, original in zip(layers, originals):
        assert getattr(layer.owner, layer.attr) is original, layer.name


def test_probes_run_and_report_every_declared_probe(monkeypatch):
    """``probes.run_probes`` runs only in the traced benchmark run.  Its
    probes call ``Arr.from_matrices``, ``AlphaTriple.middle_images``,
    ``matrices.rref``, ``kernel.t_tensor`` and the LT3 row pick: one run
    reports exactly the ``probe.*`` metrics that ``BENCHMARK.json`` declares,
    each finite and positive."""
    tracer = _load("tracer")
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # layers.py and probes.py import both by name
    monkeypatch.setitem(sys.modules, "layers", _load("layers"))
    out = _load("probes").run_probes(42)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"] if m["name"].startswith("probe.")}
    assert len(declared) == 9 and set(out) == declared
    for name, value in out.items():
        assert math.isfinite(value) and value > 0, name
