"""Fraction references: row reduction, coordinates, matrix arithmetic and
inverses, structure constants and the LTS axiom verdicts; and the group
suites one sample at a time.

``reference_scalar_product`` and ``reference_scalar_conjugate`` write the
rings out by hand: the Q(i) and Hamilton products, the involutions, and the
truncated series product as a convolution of monomials, with no
``scalars.mult_tensor`` or ``CONJ_SIGNS``.  ``reference_rref``,
``reference_coordinates``, ``reference_inverse`` and the
``reference_matrix_*`` operations do ``Fraction`` arithmetic one entry at a
time, their products and conjugations by those two, with no integer arrays
and no ``kernel`` call; their results enter ``Matrix`` only through its
``Scalar`` constructor.  The structure reference makes one product
evaluation and one ``reference_coordinates`` per basis triple, and writes the
axioms out over those coordinates, with no tensors and no dtype choices: the
independent oracle the batched kernel is compared against.

``reference_group_axiom_suite``, ``reference_tangent_suite`` and
``reference_unitary_suite`` are the suites of ``groups`` as they were before
they stacked their samples: one sample at a time, with ``Matrix`` equality.
They call ``groups``' operations through the module, so that a test which
monkeypatches one of them changes both paths.
"""

import random
from fractions import Fraction
from itertools import product as tuples

from homotopes import groups
from homotopes.families import rand_matrix
from homotopes.homotope import ProductSpace, bracket_param, triple_param
from homotopes.matrices import Matrix
from homotopes.scalars import HQ, Q, QI, SERIES_DEGREE, Scalar, is_series, ring_components


def _base_product(ring, x, y):
    """The product of two component tuples over Q, Q(i) or the quaternions
    (ij = k, jk = i, ki = j)."""
    if ring == Q:
        return (x[0] * y[0],)
    if ring == QI:
        (a, b), (c, d) = x, y
        return (a * c - b * d, a * d + b * c)
    (a1, b1, c1, d1), (a2, b2, c2, d2) = x, y
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def _coefficients(x):
    """{(a, b): components of the coefficient of t^a s^b} of a series scalar,
    whose index (2 a + b) k + c holds component c of that coefficient."""
    k = ring_components(x.ring.base)
    return {divmod(p, SERIES_DEGREE): x.parts[p * k:(p + 1) * k] for p in range(SERIES_DEGREE**2)}


def _from_coefficients(ring, coeffs):
    return Scalar(ring, [c for p in range(SERIES_DEGREE**2) for c in coeffs[divmod(p, SERIES_DEGREE)]])


def reference_scalar_product(x, y):
    """x y by the textbook formulas; over a series ring the convolution of the
    coefficients, dropping every monomial of degree SERIES_DEGREE or more in
    t or in s."""
    ring = x.ring
    if not is_series(ring):
        return Scalar(ring, _base_product(ring, x.parts, y.parts))
    cx, cy = _coefficients(x), _coefficients(y)
    out = {e: (0,) * ring_components(ring.base) for e in cx}
    for (a1, b1), u in cx.items():
        for (a2, b2), v in cy.items():
            e = (a1 + a2, b1 + b2)
            if max(e) < SERIES_DEGREE:
                out[e] = tuple(p + q for p, q in zip(out[e], _base_product(ring.base, u, v)))
    return _from_coefficients(ring, out)


def reference_scalar_conjugate(x, kind):
    """The base involution or phi ``kind`` on x: conj negates i over Q(i)
    (and fixes Q), qconj negates i, j and k, qsplit negates j, phi negates i
    and k; over a series ring, on every coefficient."""
    ring = x.ring
    if is_series(ring):
        return _from_coefficients(ring, {e: reference_scalar_conjugate(Scalar(ring.base, c), kind).parts
                                         for e, c in _coefficients(x).items()})
    if kind == "id" or (kind, ring) == ("conj", Q):
        return x
    if (kind, ring) == ("conj", QI):
        a, b = x.parts
        return Scalar(ring, (a, -b))
    if ring != HQ or kind not in ("qconj", "qsplit", "phi"):
        raise ValueError(f"{kind} is not an involution over {ring}")
    a, b, c, d = x.parts
    return Scalar(ring, {"qconj": (a, -b, -c, -d), "qsplit": (a, b, -c, d), "phi": (a, -b, c, -d)}[kind])


def reference_scalar_inverse(x):
    """The conjugate of x over its norm x conj(x), over Q, Q(i) or the
    quaternions; ZeroDivisionError if x is zero."""
    conj = reference_scalar_conjugate(x, {Q: "id", QI: "conj", HQ: "qconj"}[x.ring])
    return conj.scale(1 / reference_scalar_product(x, conj).parts[0])


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
    """The inverse of a square ``Matrix`` by a Gauss-Jordan elimination over
    the reference scalar operations (over skew fields too);
    ZeroDivisionError if singular."""
    n = m.rows
    ident = Matrix.identity(n, m.ring)
    a = [list(m.entries[i * n:(i + 1) * n] + ident.entries[i * n:(i + 1) * n]) for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise ZeroDivisionError("matrix is not invertible")
        a[col], a[piv] = a[piv], a[col]
        pinv = reference_scalar_inverse(a[col][col])
        a[col] = [reference_scalar_product(pinv, x) for x in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - reference_scalar_product(f, y) for x, y in zip(a[r], a[col])]
    return Matrix(n, n, m.ring, [a[i][n + j] for i in range(n) for j in range(n)])


def reference_matrix_sum(x, y):
    """x + y, one ``Scalar`` sum per entry."""
    return Matrix(x.rows, x.cols, x.ring, [a + b for a, b in zip(x.entries, y.entries)])


def reference_matrix_difference(x, y):
    """x - y, one ``Scalar`` difference per entry."""
    return Matrix(x.rows, x.cols, x.ring, [a - b for a, b in zip(x.entries, y.entries)])


def reference_matrix_product(x, y):
    """The textbook triple loop over ``reference_scalar_product``."""
    out = []
    for i in range(x.rows):
        for j in range(y.cols):
            acc = Scalar.zero(x.ring)
            for k in range(x.cols):
                acc = acc + reference_scalar_product(x[i, k], y[k, j])
            out.append(acc)
    return Matrix(x.rows, y.cols, x.ring, out)


def reference_matrix_transpose(x):
    """The transpose, entry by entry."""
    e = x.entries
    return Matrix(x.cols, x.rows, x.ring, [e[i * x.cols + j] for j in range(x.cols) for i in range(x.rows)])


def reference_matrix_dagger(x, delta):
    """delta(x)^t: ``reference_scalar_conjugate`` on each entry, then the
    transpose."""
    return reference_matrix_transpose(Matrix(x.rows, x.cols, x.ring,
                                             [reference_scalar_conjugate(e, delta) for e in x.entries]))


def reference_matrix_scale(x, r):
    """r x for a rational r, one ``Scalar.scale`` per entry."""
    return Matrix(x.rows, x.cols, x.ring, [e.scale(r) for e in x.entries])


def reference_matrix_scalar_mul(x, s):
    """s x, one ``reference_scalar_product`` per entry."""
    return Matrix(x.rows, x.cols, x.ring, [reference_scalar_product(s, e) for e in x.entries])


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
    def flatten(value):
        return value[0].flatten() + value[1].flatten() if isinstance(space, ProductSpace) else value.flatten()

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


def reference_pair_failures(dec, s, t, a):
    """The failures of the symmetric pair h = V^(-t), m = V^s for the
    parameter a, in ``homotope.symmetric_pair``'s names and order: the direct
    sum by a Fraction rank (except for the group type s = -t, where h = m;
    it holds on every decomposition ``symmetric_pair`` accepts, which must be
    a direct sum), then the three closures checked bracket by bracket."""
    minus_t = tuple(-x for x in t)
    h, m = dec.piece(minus_t), dec.piece(s)
    failures = []
    if tuple(s) != minus_t and len(reference_rref(h.basis + m.basis)[1]) != h.dim + m.dim:
        failures.append("g is not a direct sum of h and m")
    closures = {"[h,h] in h": (h, h, h), "[h,m] in m": (h, m, m), "[m,m] in h": (m, m, h)}
    return failures + [name for name, (left, right, target) in closures.items()
                       if not reference_bracket_closure(left, right, target, a)]


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
    the entries not given being 0.  It is built from ``Arr`` products and
    sums, so it takes stacks (``GenericTriple``) as well as single matrices:
    with x_i = x e_i (a 1 x 1 matrix) and C_ij the d x d matrix of the
    constants[i, j, k, m] over (k, m), [x, y, z] = sum over (i, j) of
    x_i y_j z C_ij."""
    rows = {}
    for (i, j, k, m), value in constants.items():
        rows.setdefault((i, j), [[0] * d for _ in range(d)])[k][m] = value
    blocks = {ij: Matrix.from_rows(Q, block) for ij, block in rows.items()}
    units = [Matrix.elementary(d, 1, i, 0, Q) for i in range(d)]

    def product(x, y, z):
        out = z.scale(0)
        for (i, j), c in blocks.items():
            out = out + (x @ units[i]) @ (y @ units[j]) @ z @ c
        return out
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
    the only one with i < j, i <= k is (f, s, f) if f < s, else (s, f, f).
    Built from ``Arr`` products like ``constants_product``: x_f = x e_f."""
    f, s = (Matrix.elementary(width, 1, w, 0, Q) for w in (first, second))
    out = Matrix.elementary(1, width, 0, first, Q).scale(scale)

    def product(x, y, z):
        return ((x @ f) @ (y @ s) - (x @ s) @ (y @ f)) @ (z @ f) @ out
    return product


def _group_element(x, a):
    """X as an element of G_A, or None when it is not A-quasi-invertible."""
    try:
        return groups.GroupElement(x, a)
    except ZeroDivisionError:
        return None


def reference_group_axiom_suite(p, q, ring, samples, seed):
    """``groups.group_axiom_suite``, one sample at a time."""
    rng = random.Random(seed)
    results = []
    ok = True
    for idx in range(samples):
        if idx == 0:
            a = Matrix.zeros(q, p, ring)
        elif idx == 1:
            u = rand_matrix(q, 1, ring, rng)
            v = rand_matrix(1, p, ring, rng)
            a = u @ v
        else:
            a = rand_matrix(q, p, ring, rng)
        elements = []
        while len(elements) < 3:
            g = _group_element(rand_matrix(p, q, ring, rng), a)
            if g is not None:
                elements.append(g)
        x, y, z = (g.x for g in elements)
        x_inv = elements[0].inverse()
        e = groups.g_identity(p, q, ring)
        g_mul = groups.g_mul
        checks = {
            "identity": g_mul(x, e, a) == x and g_mul(e, x, a) == x,
            "inverse": g_mul(x, x_inv, a) == e and g_mul(x_inv, x, a) == e,
            "associativity": g_mul(g_mul(x, y, a), z, a) == g_mul(x, g_mul(y, z, a), a),
            "hom_1_minus_AX": bool(groups.hom_check(x, y, a)),
        }
        ok = ok and all(checks.values())
        results.append({"sample": idx, "checks": checks, "pass": all(checks.values())})
    return {"suite": "group-axioms", "sizes": [p, q], "ring": str(ring),
            "samples": samples, "seed": seed, "pass": ok, "results": results}


def reference_unitary_suite(n, ring, delta, samples, seed):
    """``groups.unitary_suite``, one sample at a time, A inverted for every
    Cayley point (``groups.cayley_element``)."""
    rng = random.Random(seed)
    star = groups.star_from_delta(delta)
    results = []
    ok = True
    cases = [("U", False)]
    if not groups.skew_is_singular(n, ring, delta):
        cases.append(("S", True))
    for kind, symmetric in cases:
        if kind == "U":
            a = groups.rand_symmetric_invertible(n, ring, delta, rng)
        else:
            a = groups.rand_skew_invertible(n, ring, delta, rng)
        elems = [groups.cayley_element(a, star, rng, symmetric) for _ in range(samples)]
        group = [_group_element(x, a) for x in elems]
        member = all(g is not None and groups.relation_holds(g.x, a, kind, star) for g in group)
        if kind == "U":
            equiv = all(groups.u_defect(x, a, star).is_zero() == groups.u_defect_variant(x, a, star).is_zero()
                        for x in elems + [rand_matrix(n, n, ring, rng) for _ in range(samples)])
        else:
            equiv = True
        closed = all(groups.membership(groups.g_mul(x, y, a), a, kind, star)
                     for x, y in zip(elems, elems[1:] + elems[:1]))
        inverses = all(g is not None and groups.membership(g.inverse(), a, kind, star) for g in group)
        entry = {"kind": kind, "membership": member, "equivalent_forms": equiv,
                 "closure": closed, "inverses": inverses}
        entry["pass"] = all(v for k, v in entry.items() if k != "kind")
        ok = ok and entry["pass"]
        results.append(entry)
    return {"suite": "unitary", "n": n, "ring": str(ring), "delta": delta,
            "samples": samples, "seed": seed, "pass": ok, "results": results}


def reference_tangent_suite(p, q, ring, samples, seed):
    """``groups.tangent_suite``, one sample at a time."""
    rng = random.Random(seed)
    results = []
    ok = True
    for idx in range(samples):
        a = rand_matrix(q, p, ring, rng)
        x = rand_matrix(p, q, ring, rng)
        y = rand_matrix(p, q, ring, rng)
        good = bool(groups.tangent_check(x, y, a)[0])
        ok = ok and good
        results.append({"sample": idx, "pass": good})
    return {"suite": "tangent", "sizes": [p, q], "ring": str(ring),
            "samples": samples, "seed": seed, "pass": ok, "results": results}
