"""Layer microbenchmarks (ungated per-layer metrics of the traced run).

Each probe times one layer of ROADMAP's stack on seeded inputs and reports
the median of several repeats, so one slow repeat does not move it.
"""

from __future__ import annotations

import random
import statistics
import time


def _median_time(fn, repeats: int, inner: int = 1) -> float:
    """Median over ``repeats`` of the seconds one call of ``fn`` takes,
    each repeat averaging ``inner`` back-to-back calls."""
    clock = time.perf_counter
    times = []
    for _ in range(repeats):
        start = clock()
        for _ in range(inner):
            fn()
        times.append((clock() - start) / inner)
    return statistics.median(times)


def capture_lt3_rows(seed: int):
    """The LT3 row sets ``kernel.independent_row_indices`` receives while
    ``family_axiom_suite("1.3.a", (3, 2), 5, seed)`` runs."""
    from homotopes import families, kernel
    from layers import package_layers
    from tracer import Layer, Tracer

    rows = []
    _, modules = package_layers()
    layer = Layer("capture", kernel, "independent_row_indices",
                  count=lambda counters, args, result: rows.append(args[0].copy()))
    with Tracer([layer], modules):
        families.family_axiom_suite("1.3.a", (3, 2), 5, seed)
    return rows


def run_probes(seed: int) -> dict:
    from homotopes import families, homotope, kernel, matrices
    from homotopes.involutions import MatrixInvolution, joint_eigenspaces
    from homotopes.matrices import block_Ipq
    from homotopes.scalars import HQ, Q, QI

    rng = random.Random(f"probes:{seed}")
    out = {}
    for ring in (Q, QI, HQ):
        x, y = (families.rand_scalar(ring, rng) for _ in range(2))
        out[f"probe.scalar_mul.{ring}_us"] = 1e6 * _median_time(lambda: x * y, 7, 2000)
    a, b = (families.rand_matrix(3, 3, Q, rng) for _ in range(2))
    out["probe.matmul3_us"] = 1e6 * _median_time(lambda: a @ b, 7, 200)

    # d = 24: 1.3.a(3, 2) with a generic parameter
    desc = families.family("1.3.a")
    params = desc.sample_params((3, 2), rng, "generic")
    system = desc.system((3, 2), params)
    basis = system.basis()
    barr = kernel.Arr.from_matrices(basis)
    warr = kernel.Arr.from_matrices(system.product.middle_images(basis))
    out["probe.t_tensor_d24_ms"] = 1e3 * _median_time(lambda: kernel.t_tensor(barr, warr), 5)
    out["probe.structure_ms"] = 1e3 * _median_time(
        lambda: homotope.TripleSystem(system.space, system.product).structure(), 5)

    row_sets = [r for r in capture_lt3_rows(seed) if r.any()]
    out["probe.echelon_13a32_ms"] = 1e3 * statistics.median(
        _median_time(lambda r=r: kernel.independent_row_indices(r), 1) for r in row_sets)

    space = families.sym_space(4, QI)
    vectors = [families.sample_in_subspace(space, rng).flatten() for _ in range(space.dim + 4)]
    out["probe.rref_ms"] = 1e3 * _median_time(lambda: matrices.rref(vectors), 5)

    taus = [MatrixInvolution.transpose_inv(4, Q),
            MatrixInvolution("anti", "id", 4, Q, twist=block_Ipq(2, 2))]
    out["probe.joint_eigenspaces_ms"] = 1e3 * _median_time(lambda: joint_eigenspaces(taus), 5)
    return out
