"""Fraction reference for structure constants and the LTS axiom verdicts.

One product evaluation and one ``Subspace.coordinates`` per basis triple, and
the axioms written out over those coordinates, with no tensors and no dtype
choices: the independent oracle the batched kernel is compared against.
"""

from itertools import product as tuples


def reference_structure(space, product):
    """(flat, coords, closed, witness) of a product (x, y, z) -> Matrix on the
    basis of ``space``: flat[i, j, k] is the flattened value of the product on
    basis triple (i, j, k), coords[i, j, k] its coordinates (None outside the
    span), witness the first triple outside the span."""
    basis = space.basis_matrices()
    flat, coords, witness = {}, {}, None
    for i, j, k in tuples(range(len(basis)), repeat=3):
        value = product(basis[i], basis[j], basis[k])
        flat[i, j, k] = value.flatten()
        coords[i, j, k] = space.coordinates(value)
        if coords[i, j, k] is None and witness is None:
            witness = (i, j, k)
    return flat, coords, witness is None, witness


def _first_nonzero(d, vector):
    return next((t for t in tuples(range(d), repeat=3) if any(vector(*t))), None)


def _lt3_residual(c, d, u, v, i, j, k):
    """[u, v, [i, j, k]] - ([[u, v, i], j, k] + [i, [u, v, j], k] + [i, j, [u, v, k]])
    in coordinates; ``c[x, y, z]`` are the structure constants."""
    out = []
    for m in range(d):
        lhs = sum(c[i, j, k][w] * c[u, v, w][m] for w in range(d))
        rhs = sum(c[u, v, i][t] * c[t, j, k][m] + c[u, v, j][t] * c[i, t, k][m]
                  + c[u, v, k][t] * c[i, j, t][m] for t in range(d))
        out.append(lhs - rhs)
    return out


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
