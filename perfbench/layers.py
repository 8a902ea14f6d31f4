"""The homotopes layers the traced run measures, and their counters.

Names follow ROADMAP's layer stack: scalar ring op, ``Matrix`` product,
kernel tensors, structure constants, LT3 row selection, suite.  Each entry
is wrapped at the package's own boundary (a module function or a class
method); see ``tracer.py``.
"""

from __future__ import annotations

from math import prod


def _echelon(counters, args, result):
    counters["kernel.echelon.rows"] += len(args[0])
    counters["kernel.echelon.rank"] += len(result)


def _einsum_cost(sub, *shapes):
    """Naive multiply-adds of one einsum and the bytes of its operands and
    result, computed from shapes (float64)."""
    terms, out = sub.split("->")
    size = {}
    for term, shape in zip(terms.split(","), shapes):
        size.update(zip(term, shape))
    out_shape = tuple(size[c] for c in out)
    elems = sum(prod(s) for s in shapes) + prod(out_shape)
    return prod(size.values()), 8 * elems, out_shape


def t_tensor_cost(basis_shape, middle_shape):
    """(ops, bytes) of ``kernel.t_tensor`` for stacks of these shapes: the
    four ring contractions it performs, each counted as 2 ops per
    multiply-add, plus the final sum."""
    k = basis_shape[-1]
    t = (k, k, k)
    ops = nbytes = 0
    m1 = _einsum_cost("ipqa,jqrb,abc->ijprc", basis_shape, middle_shape, t)
    t1 = _einsum_cost("ijpqa,kqrb,abc->ijkprc", m1[2], basis_shape, t)
    m2 = _einsum_cost("jpqa,iqrb,abc->jiprc", middle_shape, basis_shape, t)
    t2 = _einsum_cost("kpqa,jiqrb,abc->ijkprc", basis_shape, m2[2], t)
    for mults, b, _ in (m1, t1, m2, t2):
        ops += 2 * mults
        nbytes += b
    return ops + prod(t1[2]), nbytes


def _t_tensor(counters, args, result):
    ops, nbytes = t_tensor_cost(args[0].a.shape, args[1].a.shape)
    counters["kernel.t_tensor.ops"] += ops
    counters["kernel.t_tensor.bytes"] += nbytes


def _matmul(counters, args, result):
    x, y = args
    counters["matrices.matmul.scalar_mults"] += x.rows * x.cols * y.cols


def _rref(counters, args, result):
    counters["matrices.rref.rows"] += len(args[0])


def _bytes_out(counters, args, result):
    counters["cli.bytes_out"] += len(args[0].encode())


COUNTERS = ("kernel.echelon.rows", "kernel.echelon.rank", "kernel.t_tensor.ops",
            "kernel.t_tensor.bytes", "matrices.matmul.scalar_mults", "matrices.rref.rows",
            "cli.bytes_out")


def package_layers():
    """(layers, modules) for ``Tracer`` over the imported homotopes package."""
    import homotopes
    from homotopes import (cli, families, groups, homotope, involutions,
                           kernel, matrices, normalforms, scalars)
    from tracer import Layer

    Scalar, Matrix, Subspace = scalars.Scalar, matrices.Matrix, matrices.Subspace
    layers = [
        Layer("kernel.echelon", kernel, "independent_row_indices", count=_echelon),
        Layer("kernel.t_tensor", kernel, "t_tensor", count=_t_tensor),
        Layer("kernel.coordinates", kernel, "coordinates"),
        Layer("kernel.bilinear_tensor", kernel, "bilinear_tensor"),
        Layer("kernel.matrix_mul", kernel, "matrix_mul"),
        # one PrecisionError per exact fallback
        Layer("kernel.precision_error", kernel.PrecisionError, "__init__", record=False),
        Layer("homotope.structure", homotope.TripleSystem, "structure"),
        Layer("homotope.check_lts", homotope, "check_lts"),
        Layer("homotope.check_closure", homotope, "check_closure"),
        Layer("homotope.gamma_intertwines", homotope, "gamma_intertwines"),
        Layer("homotope.symmetric_pair", homotope, "symmetric_pair"),
        Layer("matrices.matmul", Matrix, "__matmul__", count=_matmul),
        Layer("matrices.inverse", Matrix, "inverse"),
        # Subspace.coordinates, contains and contains_subspace all end here
        Layer("matrices.coordinates", Subspace, "coordinates_vector"),
        Layer("matrices.rref", matrices, "rref", count=_rref),
        Layer("scalars.mul", Scalar, "__mul__", record=False),
        Layer("scalars.add", Scalar, "__add__", record=False),
        Layer("involutions.construct", involutions.MatrixInvolution, "__init__"),
        Layer("involutions.joint_eigenspaces", involutions, "joint_eigenspaces"),
        Layer("involutions.apply", involutions.MatrixInvolution, "__call__", record=False),
        Layer("families.instantiate", families, "instantiate"),
        *(Layer("families.spaces", families, name) for name in
          ("matrix_space", "sym_space", "asym_space", "herm_space", "aherm_space")),
        Layer("families.family_axiom_suite", families, "family_axiom_suite"),
        *(Layer("groups.suites", groups, name) for name in
          ("group_axiom_suite", "unitary_suite", "tangent_suite")),
        Layer("normalforms.normal_form", normalforms, "normal_form"),
        Layer("normalforms.intertwiner_check", normalforms, "intertwiner_check"),
        Layer("cli.main", cli, "main"),
        Layer("cli.emit", cli, "_emit", record=False, count=_bytes_out),
    ]
    modules = [homotopes, cli, families, groups, homotope, involutions, kernel, matrices,
               normalforms, scalars]
    return layers, modules
