"""Fraction references: row reduction, coordinates, matrix arithmetic and
inverses, structure constants and the LTS axiom verdicts.

``reference_rref``, ``reference_coordinates``, ``reference_inverse`` and the
``reference_matrix_*`` operations do ``Fraction`` (and ``Scalar``) arithmetic
one entry at a time, with no integer arrays and no ``kernel`` call; their
results enter ``Matrix`` only through its ``Scalar`` constructor.  The structure reference makes one product
evaluation and one ``reference_coordinates`` per basis triple, and writes the
axioms out over those coordinates, with no tensors and no dtype choices: the
independent oracle the batched kernel is compared against.
"""

from fractions import Fraction
from itertools import product as tuples

from homotopes.homotope import ProductSpace, bracket_param, triple_param
from homotopes.matrices import Matrix
from homotopes.scalars import Q, Scalar


def reference_rref(vectors):
    """Reduced row echelon form over Q, one Fraction at a time: (rows,
    pivots), the nonzero reduced rows and their pivot columns."""
    rows = [list(map(Fraction, v)) for v in vectors]
    if not rows:
        return [], []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


def reference_coordinates(basis, pivots, vec):
    """Coordinates of vec in an RREF basis (read off the pivot columns), or
    None if vec is outside the span."""
    coords = [Fraction(vec[p]) for p in pivots]
    for c in range(len(vec)):
        if sum((x * row[c] for x, row in zip(coords, basis)), Fraction(0)) != vec[c]:
            return None
    return tuple(coords)


def reference_basis(space):
    """(basis, pivots): the RREF, by ``reference_rref``, of the basis of a
    ``Subspace``, or of the block basis of a ``ProductSpace``."""
    if isinstance(space, ProductSpace):
        n1, n2 = space.plus.ambient_dim, space.minus.ambient_dim
        vectors = ([tuple(v) + (0,) * n2 for v in space.plus.basis]
                   + [(0,) * n1 + tuple(v) for v in space.minus.basis])
    else:
        vectors = space.basis
    return reference_rref(vectors)


def reference_inverse(m):
    """The inverse of a square ``Matrix`` by a ``Scalar`` Gauss-Jordan
    elimination (over skew fields too); ZeroDivisionError if singular."""
    n = m.rows
    ident = Matrix.identity(n, m.ring)
    a = [list(m.entries[i * n:(i + 1) * n] + ident.entries[i * n:(i + 1) * n]) for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise ZeroDivisionError("matrix is not invertible")
        a[col], a[piv] = a[piv], a[col]
        pinv = a[col][col].inverse()
        a[col] = [pinv * x for x in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return Matrix(n, n, m.ring, [a[i][n + j] for i in range(n) for j in range(n)])


def reference_matrix_sum(x, y):
    """x + y, one ``Scalar`` sum per entry."""
    return Matrix(x.rows, x.cols, x.ring, [a + b for a, b in zip(x.entries, y.entries)])


def reference_matrix_difference(x, y):
    """x - y, one ``Scalar`` difference per entry."""
    return Matrix(x.rows, x.cols, x.ring, [a - b for a, b in zip(x.entries, y.entries)])


def reference_matrix_product(x, y):
    """The textbook triple loop over ``Scalar`` ring operations (series
    rings through ``Scalar``'s dict arithmetic)."""
    out = []
    for i in range(x.rows):
        for j in range(y.cols):
            acc = Scalar.zero(x.ring)
            for k in range(x.cols):
                acc = acc + x[i, k] * y[k, j]
            out.append(acc)
    return Matrix(x.rows, y.cols, x.ring, out)


def reference_matrix_transpose(x):
    """The transpose, entry by entry."""
    e = x.entries
    return Matrix(x.cols, x.rows, x.ring, [e[i * x.cols + j] for j in range(x.cols) for i in range(x.rows)])


def reference_matrix_dagger(x, delta):
    """delta(x)^t: ``Scalar.conjugate`` on each entry, then the transpose."""
    return reference_matrix_transpose(Matrix(x.rows, x.cols, x.ring, [e.conjugate(delta) for e in x.entries]))


def reference_matrix_scale(x, r):
    """r x for a rational r, one ``Scalar.scale`` per entry."""
    return Matrix(x.rows, x.cols, x.ring, [e.scale(r) for e in x.entries])


def reference_matrix_scalar_mul(x, s):
    """s x, one ``Scalar`` product per entry."""
    return Matrix(x.rows, x.cols, x.ring, [s * e for e in x.entries])


reference_matrix_inverse = reference_inverse


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
    flatten = space.flatten_pair if isinstance(space, ProductSpace) else Matrix.flatten
    rref_basis, pivots = reference_basis(space)
    basis = space.basis_matrices()
    flat, coords, witness = {}, {}, None
    for i, j, k in tuples(range(len(basis)), repeat=3):
        value = product(basis[i], basis[j], basis[k])
        flat[i, j, k] = flatten(value)
        coords[i, j, k] = reference_coordinates(rref_basis, pivots, flat[i, j, k])
        if coords[i, j, k] is None and witness is None:
            witness = (i, j, k)
    return flat, coords, witness is None, witness


def reference_bilinear(left, right, a):
    """{(i, j): flattened [x_i, y_j]_A = x_i A y_j - y_j A x_i} over the bases
    of the subspaces ``left`` and ``right``, one ``Matrix`` product at a time."""
    return {(i, j): bracket_param(x, y, a).flatten()
            for i, x in enumerate(left.basis_matrices()) for j, y in enumerate(right.basis_matrices())}


def reference_intertwines(psi, basis, a_new, a):
    """psi([X, Y, Z]_{A'}) = [psi X, psi Y, psi Z]_A on every basis triple,
    one ``Matrix`` triple product at a time: the d^3 check with no middle
    identity and no stacked tensor."""
    return all(psi(triple_param(x, y, z, a_new)) == triple_param(psi(x), psi(y), psi(z), a)
               for x in basis for y in basis for z in basis)


def reference_bracket_closure(left, right, target, a):
    """[left, right]_A lies in ``target``, checked bracket by bracket."""
    basis, pivots = reference_basis(target)
    return all(reference_coordinates(basis, pivots, v) is not None
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
    failing (u, v, i, j, k), with u < v when LT1 holds."""
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
    hits = {(u, v): _first_nonzero(d, lambda i, j, k: _lt3_residual(c, d, u, v, i, j, k))
            for u, v in tuples(range(d), repeat=2)
            # a zero operator is a derivation
            if any(x for w in range(d) for x in c[u, v, w])}
    # the first failing pair among u < v with LT1, among every ordered pair
    # without, and its first failing triple
    lt3_witness = next(((u, v) + hit for (u, v), hit in hits.items() if hit and (u < v or lt1)), None)
    entries.append(("LT3", not any(hits.values()), lt3_witness))
    return entries


def operator_rank(system):
    """The Fraction rank of the inner operators R(b_u, b_v) of a closed
    system, all pairs."""
    st, d = system.structure(), system.dim
    return len(reference_rref([[Fraction(int(x), st.coords.den) for x in st.coords.a[u, v].ravel()]
                               for u in range(d) for v in range(d)])[0])


def constants_product(constants, d):
    """The product on 1 x d row vectors with the structure constants
    ``constants``: [e_i, e_j, e_k] = sum over m of constants[i, j, k, m] e_m,
    the entries not given being 0."""
    def product(x, y, z):
        xs, ys, zs = x.flatten(), y.flatten(), z.flatten()
        out = [Fraction(0)] * d
        for (i, j, k, m), value in constants.items():
            out[m] += value * xs[i] * ys[j] * zs[k]
        return Matrix.unflatten((1, d, Q), out)
    return product


def lattice_of_index(p: int, base: int, n: int) -> list:
    """n integer rows of determinant p < base^n: base e_t - e_{t+1} for
    t < n - 1, whose n - 1 x n - 1 minor on the last columns is triangular
    with -1 on its diagonal, so they are independent modulo every prime, and
    last the base-``base`` digits of p, least first.  The map x -> sum over t
    of x_t base^t takes the first rows to 0 and the digits to p, so the rows
    span a lattice of index p: the last row is a combination of the others
    modulo p, and independent of them over Q."""
    digits = [p // base**t % base for t in range(n)]
    assert sum(x * base**t for t, x in enumerate(digits)) == p
    return [[base if w == t else -1 if w == t + 1 else 0 for w in range(n)] for t in range(n - 1)] + [digits]


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
