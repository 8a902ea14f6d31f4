"""Deformed brackets and triple brackets, LTS axiom verification, symmetric
pairs, c-duality, the parameter-space action, and the standard imbedding.

The triple bracket always has the shape

    [X, Y, Z] = T(X, alpha(Y), Z) - T(Y, alpha(X), Z),
    T(X, W, Z) = X W Z + Z W X,

with alpha(V) = A V A recovering the parameter form
(XAYAZ + ZAYAX) - (YAXAZ + ZAXAY).  Polarized systems use pairs (X, X') with
T acting componentwise against the opposite component of the middle argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import kernel
from .kernel import Arr, BasisInt
from .matrices import Matrix, Subspace, linear_map_ints, rref, rref_coordinates
from .scalars import ring_components


# -- basic products --------------------------------------------------------


def bracket_param(x: Matrix, y: Matrix, a: Matrix) -> Matrix:
    """[X, Y]_A = XAY - YAX."""
    return x @ a @ y - y @ a @ x


def ternary_t(x: Matrix, w: Matrix, z: Matrix) -> Matrix:
    """T(X, W, Z) = XWZ + ZWX."""
    return x @ w @ z + z @ w @ x


def triple_param(x: Matrix, y: Matrix, z: Matrix, a: Matrix) -> Matrix:
    """[X, Y, Z]_A = (XAYAZ + ZAYAX) - (YAXAZ + ZAXAY)."""
    return ternary_t(x, a @ y @ a, z) - ternary_t(y, a @ x @ a, z)


def triple_alpha(x: Matrix, y: Matrix, z: Matrix, alpha) -> Matrix:
    """[X, Y, Z]_alpha = T(X, alpha(Y), Z) - T(Y, alpha(X), Z)."""
    return ternary_t(x, alpha(y), z) - ternary_t(y, alpha(x), z)


class AlphaMap:
    """A Q-linear map from the V+ ambient into the V- ambient."""

    __slots__ = ("fn", "name")

    def __init__(self, fn, name: str = "alpha"):
        self.fn = fn
        self.name = name

    def __call__(self, x: Matrix) -> Matrix:
        return self.fn(x)

    @staticmethod
    def param(a: Matrix) -> "AlphaMap":
        """alpha(X) = A X A (the plain homotope with parameter A)."""
        return AlphaMap(lambda x: a @ x @ a, "AXA")

    @staticmethod
    def zero(rows: int, cols: int, ring) -> "AlphaMap":
        return AlphaMap(lambda x: Matrix.zeros(rows, cols, ring), "0")

    def negated(self) -> "AlphaMap":
        return AlphaMap(lambda x: -self.fn(x), f"-({self.name})")


# -- product objects --------------------------------------------------------


class AlphaTriple:
    """Triple bracket on a matrix space given by an alpha map."""

    pair = False

    def __init__(self, alpha: AlphaMap):
        self.alpha = alpha

    def eval(self, x, y, z):
        return triple_alpha(x, y, z, self.alpha)

    def middle_images(self, basis):
        return [self.alpha(b) for b in basis]

    def negated(self) -> "AlphaTriple":
        return AlphaTriple(self.alpha.negated())


class PairTriple:
    """Polarized triple bracket on pairs (X, X'):

    T((X,X'),(Y,Y'),(Z,Z')) = (X Y' Z + Z Y' X,  X' Y Z' + Z' Y X'),
    [u, v, w] = T(u, alpha(v), w) - T(v, alpha(u), w),

    where alpha defaults to the identity on pairs.
    """

    pair = True

    def __init__(self, alpha=None, name: str = "id"):
        self.alpha = alpha
        self.name = name

    def _alpha(self, u):
        return u if self.alpha is None else self.alpha(u)

    @staticmethod
    def t(u, v, w):
        x, xp = u
        y, yp = v
        z, zp = w
        return (ternary_t(x, yp, z), ternary_t(xp, y, zp))

    def eval(self, u, v, w):
        av, au = self._alpha(v), self._alpha(u)
        p1 = PairTriple.t(u, av, w)
        p2 = PairTriple.t(v, au, w)
        return (p1[0] - p2[0], p1[1] - p2[1])

    def middle_images(self, basis_pairs):
        return [self._alpha(u) for u in basis_pairs]

    def negated(self) -> "PairTriple":
        def neg(u, inner=self.alpha):
            v = u if inner is None else inner(u)
            return (-v[0], -v[1])

        return PairTriple(neg, f"-({self.name})")


class GenericTriple:
    """An arbitrary ternary product given by a callable, evaluated on each
    basis triple."""

    pair = False

    def __init__(self, fn):
        self.fn = fn

    def eval(self, x, y, z):
        return self.fn(x, y, z)

    def middle_images(self, basis):
        return None

    def negated(self) -> "GenericTriple":
        return GenericTriple(lambda x, y, z: -self.fn(x, y, z))


# -- polarized carrier spaces ----------------------------------------------


class ProductSpace:
    """V+ x V- with elements stored as (plus, minus) matrix pairs.

    Flattened coordinates are the concatenation of the two flattenings; the
    block-concatenated RREF bases stay in RREF, so coordinate extraction works
    exactly as for Subspace.
    """

    __slots__ = ("plus", "minus", "basis", "pivots")

    def __init__(self, plus: Subspace, minus: Subspace):
        self.plus = plus
        self.minus = minus
        n1 = plus.ambient_dim()
        zero1 = (Fraction(0),) * n1
        zero2 = (Fraction(0),) * minus.ambient_dim()
        self.basis = tuple(
            [tuple(v) + zero2 for v in plus.basis] + [zero1 + tuple(v) for v in minus.basis]
        )
        self.pivots = tuple(list(plus.pivots) + [n1 + p for p in minus.pivots])

    @property
    def dim(self) -> int:
        return self.plus.dim + self.minus.dim

    def ambient_dim(self) -> int:
        return self.plus.ambient_dim() + self.minus.ambient_dim()

    def basis_matrices(self):
        zp = Matrix.zeros(*self.plus.ambient[:2], self.plus.ambient[2])
        zm = Matrix.zeros(*self.minus.ambient[:2], self.minus.ambient[2])
        return [(b, zm) for b in self.plus.basis_matrices()] + [(zp, b) for b in self.minus.basis_matrices()]

    def basis_int(self) -> BasisInt:
        return BasisInt(self.basis, self.pivots)

    def flatten_pair(self, u):
        return tuple(u[0].flatten()) + tuple(u[1].flatten())

    def coordinates_pair(self, u):
        return rref_coordinates(self.basis, self.pivots, self.flatten_pair(u))

    def contains(self, u) -> bool:
        return self.coordinates_pair(u) is not None


# -- structure constants ----------------------------------------------------


@dataclass
class Structure:
    """Cached structure data of a triple system.

    ``flat``: ambient flattened products [b_i, b_j, b_k], exact integers with
    a denominator.  ``coords``: coordinates in the space's basis (present only
    when the product is closed).
    """

    flat: Arr
    coords: Arr | None
    closed: bool
    witness: tuple | None

    def c(self, i, j, k, m) -> Fraction:
        return Fraction(int(self.coords.a[i, j, k, m])) / self.coords.den


class TripleSystem:
    """A subspace (or pair space) with a triple bracket and cached structure
    constants over the canonical basis."""

    def __init__(self, space, product):
        self.space = space
        self.product = product
        self._structure: Structure | None = None

    @staticmethod
    def from_parameter(space: Subspace, a: Matrix) -> "TripleSystem":
        return TripleSystem(space, AlphaTriple(AlphaMap.param(a)))

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis(self):
        return self.space.basis_matrices()

    def structure(self) -> Structure:
        if self._structure is None:
            self._structure = self._compute_structure()
        return self._structure

    def _compute_structure(self) -> Structure:
        basis = self.basis()
        d = len(basis)
        if d == 0:
            empty = Arr(np.zeros((0, 0, 0, 0)), 1, 1, None)
            return Structure(empty, empty, True, None)
        middles = self.product.middle_images(basis)
        if middles is None:
            values = [self.product.eval(x, y, z).flatten() for x in basis for y in basis for z in basis]
            flat = Arr.from_rows(values, (d, d, d, -1), basis[0].ring)
        elif self.product.pair:
            bp, bm, wp, wm = (Arr.from_matrices([u[side] for u in seq])
                              for seq in (basis, middles) for side in (0, 1))
            flat = kernel.concat_last(_flat_triples(bp, wm), _flat_triples(bm, wp))
        else:
            flat = _flat_triples(self.space.basis_arr(), Arr.from_matrices(middles))
        coords, member = kernel.coordinates(flat, self.space.basis_int())
        if member.all():
            return Structure(flat, coords, True, None)
        return Structure(flat, None, False, tuple(int(v) for v in np.argwhere(~member)[0]))

    # derived systems --------------------------------------------------------

    def cdual(self) -> "TripleSystem":
        return TripleSystem(self.space, self.product.negated())

    def eval(self, x, y, z):
        return self.product.eval(x, y, z)


def _flat_triples(basis: Arr, middles: Arr) -> Arr:
    """Flattened T(b_i, w_j, b_k) - T(b_j, w_i, b_k) over basis and middle
    stacks (w_j the middle image of b_j)."""
    tt = kernel.flatten_last(kernel.t_tensor(basis, middles))
    return (tt - tt.swap_first()).actual_bound()


def cdual(t: TripleSystem) -> TripleSystem:
    """The c-dual system: same space, negated triple bracket."""
    return t.cdual()


# -- LTS axiom verification -------------------------------------------------


@dataclass
class LtsReport:
    entries: list = field(default_factory=list)

    def add(self, axiom: str, ok: bool, witness=None):
        self.entries.append({"axiom": axiom, "pass": bool(ok), "witness": witness})

    @property
    def ok(self) -> bool:
        return all(e["pass"] for e in self.entries)

    def failing(self):
        return [e for e in self.entries if not e["pass"]]

    def to_json(self, system: TripleSystem | None = None) -> list:
        out = []
        for e in self.entries:
            w = None
            if e["witness"] is not None:
                idx = list(e["witness"])
                w = {"indices": idx}
                if system is not None:
                    mats = []
                    for i in idx:
                        b = system.basis()[i]
                        mats.append({"plus": b[0].to_json(), "minus": b[1].to_json()}
                                    if isinstance(b, tuple) else b.to_json())
                    w["matrices"] = mats
            out.append({"axiom": e["axiom"], "pass": e["pass"], "witness": w})
        return out


def _lt3_residuals(c: np.ndarray, bound: int):
    """The LT3 residual over the coordinates c as a function of a derivation
    candidate D, given by e[w, m] = (D b_w)_m:

        res[i, j, k, m] = (D[b_i, b_j, b_k] - [D b_i, b_j, b_k]
                           - [b_i, D b_j, b_k] - [b_i, b_j, D b_k])_m,

    four (batched) GEMMs that read c in place, into one buffer that the next
    call reuses.  ``bound`` covers 4 d max|c| max|e|: each term sums d products.
    """
    cc = kernel.fit(c, bound)
    d = c.shape[0]
    res, term = np.empty_like(cc), np.empty_like(cc)

    def residual(e: np.ndarray) -> np.ndarray:
        e = kernel.fit(e, bound)
        np.matmul(cc.reshape(d**3, d), e, out=res.reshape(d**3, d))
        # e against the first, second and third axis of c
        for shape in ((d, d**3), (d, d, d * d), (d * d, d, d)):
            np.matmul(e, cc.reshape(shape), out=term.reshape(shape))
            np.subtract(res, term, out=res)
        return res

    return residual


def check_lts(system: TripleSystem) -> LtsReport:
    """Verify closure and LT1-LT3 exactly; failures carry a witness tuple of
    basis indices."""
    report = LtsReport()
    st = system.structure()
    report.add("closure", st.closed, st.witness)
    flat = kernel.fit(st.flat.a, 3 * st.flat.bound)
    anti = flat + np.swapaxes(flat, 0, 1)
    if np.any(anti):
        report.add("LT1", False, tuple(int(v) for v in np.argwhere(anti)[0][:3]))
    else:
        report.add("LT1", True)
    cyc = flat + np.einsum("jkiw->ijkw", flat) + np.einsum("kijw->ijkw", flat)
    if np.any(cyc):
        report.add("LT2", False, tuple(int(v) for v in np.argwhere(cyc)[0][:3]))
    else:
        report.add("LT2", True)
    if not st.closed:
        report.add("LT3", False, None)
        return report
    report.add("LT3", *_check_lt3(st, lt1_ok=not np.any(anti)))
    return report


def _check_lt3(st: Structure, lt1_ok: bool = False):
    """LT3 via the span of the inner operators R(u, v).

    LT3 says every R(u, v) is a derivation of the triple bracket.  Being a
    derivation is linear in the operator, so it suffices to check a basis of
    span{R(u, v)}; on failure a concrete (u, v, i, j, k) witness is recovered
    by rescanning individual pairs.
    """
    c = st.coords.a
    d = c.shape[0]
    if lt1_ok and d > 1:
        # antisymmetry R(v, u) = -R(u, v) (verified as LT1) halves the scan
        iu, ju = np.triu_indices(d, k=1)
        ops = c[iu, ju]
    else:
        ops = c.reshape(d * d, d, d)
    # ops[t][w, m] = (R(u, v) b_w)_m, unscaled: the coordinate denominator
    # cancels from both sides of the identity; max|ops| <= max|c|
    picked = kernel.independent_row_indices(ops.reshape(len(ops), d * d))
    residual = _lt3_residuals(c, 4 * d * st.coords.bound**2)
    if not any(np.any(residual(ops[t])) for t in picked):
        return True, None
    for u, v in combinations(range(d), 2):
        res = residual(c[u, v])
        if np.any(res):
            i, j, k = (int(x) for x in np.argwhere(np.any(res, axis=-1))[0])
            return False, (u, v, i, j, k)
    return False, None


def check_closure(space, product) -> bool:
    """Exact closure of the triple product on the space over all basis
    triples; ``product`` is a product object or a callable (x, y, z)."""
    if not isinstance(product, (AlphaTriple, PairTriple, GenericTriple)):
        product = GenericTriple(product)
    return TripleSystem(space, product).structure().closed


# -- symmetric pairs --------------------------------------------------------


@dataclass
class SymmetricPairRec:
    g: Subspace
    h: Subspace
    m: Subspace
    a: Matrix
    sigma_signs: tuple
    group_type: bool
    verified: bool
    failures: list = field(default_factory=list)


def bracket_closure(left: Subspace, right: Subspace, target: Subspace, a: Matrix) -> bool:
    """[left, right]_A subset of target, exact, batched."""
    if left.dim == 0 or right.dim == 0:
        return True
    bb = kernel.flatten_last(kernel.bilinear_tensor(left.basis_arr(), right.basis_arr(), Arr.from_matrix(a)))
    _, member = kernel.coordinates(bb, target.basis_int())
    return bool(member.all())


def symmetric_pair(dec, s, t, a: Matrix) -> SymmetricPairRec:
    """Assemble and verify the symmetric pair attached to space piece s and
    parameter piece t of a joint decomposition: h is the piece with signs -t,
    m the piece with signs s, and g = h + m.

    When s = -t the two coincide and the record is flagged group type.
    """
    s, t = tuple(s), tuple(t)
    minus_t = tuple(-x for x in t)
    if not dec.piece(t).contains(a):
        raise ValueError("parameter is not in its declared joint eigenspace")
    h = dec.piece(minus_t)
    m = dec.piece(s)
    g = dec.piece_sum(minus_t, s)
    group_type = s == minus_t
    failures = []
    if not group_type and g.dim != h.dim + m.dim:
        failures.append("g is not a direct sum of h and m")
    sigma_signs = tuple(1 if si == ti else -1 for si, ti in zip(s, t))
    for name, (lft, rgt, tgt) in {
        "[h,h] in h": (h, h, h),
        "[h,m] in m": (h, m, m),
        "[m,m] in h": (m, m, h),
    }.items():
        if not bracket_closure(lft, rgt, tgt, a):
            failures.append(name)
    return SymmetricPairRec(g, h, m, a, sigma_signs, group_type, not failures, failures)


# -- homomorphisms and the parameter-space action ---------------------------


def hom_sxt(s: Matrix, t: Matrix, x: Matrix) -> Matrix:
    """The map X -> SXT (a Lie algebra homomorphism from the TAS-deformation
    to the A-deformation)."""
    return s @ x @ t


def hom_sxt_check(s: Matrix, t: Matrix, a: Matrix, x: Matrix, y: Matrix) -> bool:
    """[SXT, SYT]_A = S [X, Y]_{TAS} T, exact."""
    lhs = bracket_param(hom_sxt(s, t, x), hom_sxt(s, t, y), a)
    rhs = s @ bracket_param(x, y, t @ a @ s) @ t
    return lhs == rhs


def gamma_act(g: Matrix, a: Matrix, tau, phi=None):
    """The parameter-space action (g, A) -> g A tau(g) for invertible
    phi-fixed g, together with the intertwiner psi(X) = tau(g) X g.

    psi satisfies psi([X,Y,Z]_{A'}) = [psi X, psi Y, psi Z]_A.
    """
    g.inverse()  # raises if g is not invertible
    if phi is not None and phi(g) != g:
        raise ValueError("g is not fixed by the declared automorphism")
    a_new = g @ a @ tau(g)

    def psi(x: Matrix) -> Matrix:
        return tau(g) @ x @ g

    return a_new, psi


def gamma_intertwines(g: Matrix, a: Matrix, tau, space: Subspace, phi=None) -> bool:
    """Exact check that the action intertwines the two triple systems on all
    basis triples of the given space."""
    a_new, psi = gamma_act(g, a, tau, phi)
    return intertwines(psi, space.basis_matrices(), a_new, a)


def intertwines(psi, basis, a_new: Matrix, a: Matrix) -> bool:
    """psi([X, Y, Z]_{A'}) = [psi X, psi Y, psi Z]_A for all basis triples,
    exactly; psi is a Q-linear map of the basis' ambient matrix space."""
    if not basis:
        return True
    x = basis[0]
    n = x.rows * x.cols * ring_components(x.ring)
    num, den = linear_map_ints(psi, (x.rows, x.cols, x.ring))
    ints = Arr.from_rows([num], (-1, n), x.ring)
    pmat = Arr(ints.a, den, ints.bound, x.ring)

    def triples(mats, p):
        return _flat_triples(Arr.from_matrices(mats), Arr.from_matrices([p @ m @ p for m in mats]))

    lhs = kernel.map_last(triples(basis, a_new), pmat)
    rhs = triples([psi(b) for b in basis], a)
    return not np.any((lhs - rhs).a)


# -- standard imbedding -----------------------------------------------------


@dataclass
class StandardImbedding:
    system: TripleSystem
    h_basis: list          # operator matrices (tuples of Fraction rows), acting on m-coordinates
    h_dim: int
    m_dim: int
    jacobi_ok: bool

    @property
    def ok(self) -> bool:
        return self.jacobi_ok


def standard_imbedding(system: TripleSystem) -> StandardImbedding:
    """The Lie algebra q + [q, q] built from the inner operators R(x, y).

    h is the span of the operators R(b_i, b_j); the bracket is
    [D, D'] = DD' - D'D, [D, x] = D(x), [x, y] = R(x, y).  Jacobi reduces to
    (i) LT2 for three m-elements, (ii) LT3 for (D, x, y), (iii) operator
    identities that hold automatically for (D, D', x) and (D, D', D'');
    closure [h, h] in h is verified explicitly.
    """
    st = system.structure()
    if not st.closed:
        raise ValueError("triple system is not closed; no standard imbedding")
    d = system.dim
    den = st.coords.den
    c = st.coords.a

    def op(u, v):
        return tuple(tuple(Fraction(int(c[u, v, w, m])) / den for w in range(d)) for m in range(d))

    pair_ops = [op(u, v) for u, v in combinations(range(d), 2)] + [op(u, u) for u in range(d)]
    flat_ops = [tuple(x for row in o for x in row) for o in pair_ops]
    h_rows, _ = rref(flat_ops)
    h_basis = [tuple(tuple(row[m * d + w] for w in range(d)) for m in range(d)) for row in h_rows]

    def mat_mul(p, q):
        return tuple(tuple(sum((p[i][k] * q[k][j] for k in range(d)), Fraction(0)) for j in range(d)) for i in range(d))

    def mat_sub(p, q):
        return tuple(tuple(a - b for a, b in zip(pr, qr)) for pr, qr in zip(p, q))

    jacobi_ok = True
    # closure [h, h] in h
    hset = h_rows
    for p in h_basis:
        for q in h_basis:
            comm = mat_sub(mat_mul(p, q), mat_mul(q, p))
            flat = tuple(x for row in comm for x in row)
            red, _ = rref(list(hset) + [flat])
            if len(red) != len(hset):
                jacobi_ok = False
    # LT2 on the coordinates (the (x, y, z) Jacobi component)
    cyc = c + np.einsum("jkiw->ijkw", c) + np.einsum("kijw->ijkw", c)
    if np.any(cyc):
        jacobi_ok = False
    # D R(x,y) - R(x,y) D = R(Dx, y) + R(x, Dy) for the generating pairs
    for dmat in h_basis:
        for u in range(d):
            for v in range(u + 1, d):
                r = op(u, v)
                lhs = mat_sub(mat_mul(dmat, r), mat_mul(r, dmat))
                # operators act on coordinates: (D x)_w = sum_t dmat[w][t] x_t,
                # so for x = b_u the image has coordinates dmat[:, u]
                rhs = [[Fraction(0)] * d for _ in range(d)]
                for m in range(d):
                    for w in range(d):
                        acc = Fraction(0)
                        for t in range(d):
                            acc += dmat[t][u] * (Fraction(int(c[t, v, w, m])) / den)
                            acc += dmat[t][v] * (Fraction(int(c[u, t, w, m])) / den)
                        rhs[m][w] = acc
                if lhs != tuple(tuple(row) for row in rhs):
                    jacobi_ok = False
    return StandardImbedding(system, h_basis, len(h_basis), d, jacobi_ok)
