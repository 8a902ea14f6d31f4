"""Fraction reference for structure constants and the LTS axiom verdicts.

One product evaluation and one ``Subspace.coordinates`` per basis triple, and
the axioms written out over those coordinates, with no tensors and no dtype
choices: the independent oracle the batched kernel is compared against.
"""

from fractions import Fraction
from itertools import product as tuples

from homotopes.homotope import ProductSpace, bracket_param
from homotopes.matrices import Matrix
from homotopes.scalars import Q


def matrix_of(arr):
    """The ``Matrix`` an exact tensor of shape (rows, cols, comps) holds."""
    rows, cols, _ = arr.a.shape
    return Matrix.unflatten((rows, cols, arr.ring), [Fraction(int(v), arr.den) for v in arr.a.ravel()])


def reference_structure(space, product):
    """(flat, coords, closed, witness) of a product (x, y, z) -> Matrix (or a
    pair of matrices on a ``ProductSpace``) on the basis of ``space``:
    flat[i, j, k] is the flattened value of the product on basis triple
    (i, j, k), coords[i, j, k] its coordinates (None outside the span),
    witness the first triple outside the span."""
    pair = isinstance(space, ProductSpace)
    flatten = space.flatten_pair if pair else Matrix.flatten
    coordinates = space.coordinates_pair if pair else space.coordinates
    basis = space.basis_matrices()
    flat, coords, witness = {}, {}, None
    for i, j, k in tuples(range(len(basis)), repeat=3):
        value = product(basis[i], basis[j], basis[k])
        flat[i, j, k] = flatten(value)
        coords[i, j, k] = coordinates(value)
        if coords[i, j, k] is None and witness is None:
            witness = (i, j, k)
    return flat, coords, witness is None, witness


def reference_bilinear(left, right, a):
    """{(i, j): flattened [x_i, y_j]_A = x_i A y_j - y_j A x_i} over the bases
    of the subspaces ``left`` and ``right``, one ``Matrix`` product at a time."""
    return {(i, j): bracket_param(x, y, a).flatten()
            for i, x in enumerate(left.basis_matrices()) for j, y in enumerate(right.basis_matrices())}


def reference_bracket_closure(left, right, target, a):
    """[left, right]_A lies in ``target``, checked bracket by bracket."""
    return all(target.coordinates_vector(v) is not None
               for v in reference_bilinear(left, right, a).values())


def _first_nonzero(d, vector):
    return next((t for t in tuples(range(d), repeat=3) if any(vector(*t))), None)


def derivation_residual(c, d, e, i, j, k):
    """D[i, j, k] - ([D i, j, k] + [i, D j, k] + [i, j, D k]) in coordinates,
    for the operator D b_w = sum_m e[w][m] b_m; ``c[x, y, z]`` are the
    structure constants."""
    out = []
    for m in range(d):
        lhs = sum(c[i, j, k][w] * e[w][m] for w in range(d))
        rhs = sum(e[i][t] * c[t, j, k][m] + e[j][t] * c[i, t, k][m]
                  + e[k][t] * c[i, j, t][m] for t in range(d))
        out.append(lhs - rhs)
    return out


def _lt3_residual(c, d, u, v, i, j, k):
    """[u, v, [i, j, k]] - ([[u, v, i], j, k] + [i, [u, v, j], k] + [i, j, [u, v, k]])."""
    return derivation_residual(c, d, [c[u, v, w] for w in range(d)], i, j, k)


def reference_lts(space, product):
    """[(axiom, pass, witness)] as ``check_lts`` reports them: witnesses are
    the first failing basis triple in (i, j, k) order, and for LT3 the first
    failing (u < v, i, j, k)."""
    flat, c, closed, witness = reference_structure(space, product)
    d = space.dim
    entries = [("closure", closed, witness)]
    lt1 = _first_nonzero(d, lambda i, j, k: [x + y for x, y in zip(flat[i, j, k], flat[j, i, k])])
    entries.append(("LT1", lt1 is None, lt1))
    lt2 = _first_nonzero(d, lambda i, j, k: [x + y + z for x, y, z in
                                             zip(flat[i, j, k], flat[j, k, i], flat[k, i, j])])
    entries.append(("LT2", lt2 is None, lt2))
    if not closed:
        entries.append(("LT3", False, None))
        return entries
    failing = [(u, v) for u, v in tuples(range(d), repeat=2)
               if _first_nonzero(d, lambda i, j, k: _lt3_residual(c, d, u, v, i, j, k))]
    lt3_witness = next(((u, v) + _first_nonzero(d, lambda i, j, k: _lt3_residual(c, d, u, v, i, j, k))
                        for u, v in failing if u < v), None)
    entries.append(("LT3", not failing, lt3_witness))
    return entries


def broken_derivation(width, scale, first=0, second=1):
    """[x, y, z] = scale (x_f y_s - x_s y_f) z_f e_f on 1 x width row vectors
    (f = first, s = second): antisymmetric in x, y, with zero cyclic sum, but
    R(e_f, e_s) (e_f -> scale e_f, every other e_w -> 0) is no derivation,
    since R [e_f, e_s, e_f] = scale^2 e_f and 2 [e_f, e_s, e_f] = 2 scale^2 e_f.
    Its residual is nonzero only at the triples (f, s, f) and (s, f, f), and
    the only one with i < j, i <= k is (f, s, f) if f < s, else (s, f, f)."""
    def product(x, y, z):
        xs, ys, zs = x.flatten(), y.flatten(), z.flatten()
        value = scale * (xs[first] * ys[second] - xs[second] * ys[first]) * zs[first]
        return Matrix.unflatten((1, width, Q), [value if w == first else 0 for w in range(width)])
    return product
