"""Exact-integer helpers for matrix products and the heavy tensor computations.

``Matrix`` products run on Python-int numerators over one common denominator
(``fraction_matrix_to_ints``, ``ring_matmul``): no rounding, no fallback.
The float64 kernel serves only the batched tensors (``Arr``): integer
numerators stored in float64 with a single denominator.  Every ``Arr``
operation tracks a conservative bound on the largest integer that can appear;
if a bound would exceed 2^53 (the float64 exact-integer range) a
``PrecisionError`` is raised and callers fall back to ``Matrix`` arithmetic.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

import numpy as np

from .scalars import HQ, Q, QI, ring_components

FLOAT_EXACT_CAP = 2**53


class PrecisionError(ArithmeticError):
    """Integer magnitudes would exceed the exact float64 range."""


def _mult_tensor(ring) -> np.ndarray:
    k = ring_components(ring)
    t = np.zeros((k, k, k))
    if ring == Q:
        t[0, 0, 0] = 1
    elif ring == QI:
        t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = 1
        t[1, 1, 0] = -1
    else:
        # quaternions: basis (1, i, j, k), ij = k, jk = i, ki = j
        table = {
            (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
            (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
            (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
            (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
        }
        for (a, b), (c, s) in table.items():
            t[a, b, c] = s
    return t


MULT_TENSOR = {r: _mult_tensor(r) for r in (Q, QI, HQ)}


def _left_mult(t: np.ndarray) -> tuple:
    """Rows of the left-multiplication matrix: (x y)_c = sum_b s * x_a * y_b
    over the (a, s) listed for (c, b); each product of basis units is a
    signed unit, so exactly one a has t[a, b, c] = s != 0."""
    k = t.shape[0]
    return tuple(tuple((int(np.flatnonzero(t[:, b, c])[0]), int(t[:, b, c].sum())) for b in range(k))
                 for c in range(k))


LEFT_MULT = {r: _left_mult(t) for r, t in MULT_TENSOR.items()}


def fraction_matrix_to_ints(rows):
    """Integer numerators of rows of Fractions (or ints) over their least
    common denominator: returns (numerator rows, den)."""
    den = lcm(*(f.denominator for row in rows for f in row))
    return [[f.numerator * (den // f.denominator) for f in row] for row in rows], den


def ring_matmul(x, y, rows: int, shared: int, cols: int, ring) -> list:
    """Exact product of two flattened integer matrices over a base ring.

    ``x`` (rows x shared) and ``y`` (shared x cols) list their entries row
    by row, each as its components; so does the returned product.
    """
    left = LEFT_MULT[ring]
    k = len(left)
    # row (i, c) of X as a real matrix, against column j of Y, both indexed by (q, b)
    xl = [[[s * x[(i * shared + q) * k + a] for q in range(shared) for a, s in lc] for lc in left]
          for i in range(rows)]
    yc = [[v for q in range(shared) for v in y[(q * cols + j) * k:(q * cols + j + 1) * k]]
          for j in range(cols)]
    return [sum(map(mul, xr, yj)) for xi in xl for yj in yc for xr in xi]


# component sign patterns of the base involutions per ring
CONJ_SIGNS = {
    (Q, "id"): (1,),
    (Q, "conj"): (1,),
    (QI, "id"): (1, 1),
    (QI, "conj"): (1, -1),
    (HQ, "id"): (1, 1, 1, 1),
    (HQ, "qconj"): (1, -1, -1, -1),
    (HQ, "qsplit"): (1, 1, -1, 1),
}


class Arr:
    """Exact integer tensor with denominator and magnitude bound.

    ``a`` holds integers in float64; ``a / den`` is the represented rational
    tensor; ``bound`` is a proven upper bound for max |entry|.
    """

    __slots__ = ("a", "den", "bound", "ring")

    def __init__(self, a: np.ndarray, den: int, bound: float, ring):
        if bound >= FLOAT_EXACT_CAP:
            raise PrecisionError(f"bound {bound:.3g} exceeds exact float range")
        self.a = a
        self.den = den
        self.bound = bound
        self.ring = ring

    @staticmethod
    def from_matrices(mats) -> "Arr":
        """Stack matrices (same shape/ring) to shape (n, rows, cols, comps)."""
        ring = mats[0].ring
        k = ring_components(ring)
        num, den = fraction_matrix_to_ints([m.flatten() for m in mats])
        data = np.array(num, dtype=np.float64).reshape(len(mats), mats[0].rows, mats[0].cols, k)
        bound = float(np.max(np.abs(data))) if data.size else 0.0
        return Arr(data, den, max(bound, 1.0), ring)

    @staticmethod
    def from_matrix(mat) -> "Arr":
        stacked = Arr.from_matrices([mat])
        return Arr(stacked.a[0], stacked.den, stacked.bound, stacked.ring)

    def actual_bound(self) -> "Arr":
        """Tighten the tracked bound to the actual maximum entry."""
        b = float(np.max(np.abs(self.a))) if self.a.size else 0.0
        return Arr(self.a, self.den, max(b, 1.0), self.ring)

    def __neg__(self) -> "Arr":
        return Arr(-self.a, self.den, self.bound, self.ring)

    def __add__(self, other: "Arr") -> "Arr":
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        return Arr(self.a * fa + other.a * fb, d, self.bound * fa + other.bound * fb, self.ring)

    def __sub__(self, other: "Arr") -> "Arr":
        return self + (-other)

    def conj(self, kind: str) -> "Arr":
        signs = np.array(CONJ_SIGNS[(self.ring, kind)])
        return Arr(self.a * signs, self.den, self.bound, self.ring)

    def transpose_mat(self) -> "Arr":
        """Swap the matrix axes (the last three axes are rows, cols, comps)."""
        return Arr(np.swapaxes(self.a, -3, -2), self.den, self.bound, self.ring)


def ring_einsum(sub: str, x: Arr, y: Arr, shared: int) -> Arr:
    """Ring-aware product contraction.  ``sub`` must contract one matrix index
    pair and the component indices a, b against the multiplication tensor c;
    ``shared`` is the size of the contracted matrix index."""
    if x.ring != y.ring:
        raise ValueError("ring mismatch")
    t = MULT_TENSOR[x.ring]
    k = t.shape[0]
    bound = x.bound * y.bound * shared * k
    if bound >= FLOAT_EXACT_CAP:
        raise PrecisionError("product bound exceeds exact float range")
    out = np.einsum(sub, x.a, y.a, t, optimize=True)
    return Arr(out, x.den * y.den, bound, x.ring).actual_bound()


def matrix_mul(x: Arr, y: Arr) -> Arr:
    """Batched matrix product with broadcasting over leading axes."""
    shared = x.a.shape[-2]
    return ring_einsum("...pqa,...qrb,abc->...prc", x, y, shared)


def t_tensor(basis: Arr, middle: Arr) -> Arr:
    """TT[i, j, k] = b_i w_j b_k + b_k w_j b_i over the basis/middle stacks."""
    t = MULT_TENSOR[basis.ring]
    k = t.shape[0]
    d = basis.a.shape[0]
    q = basis.a.shape[-2]
    p = basis.a.shape[-3] if basis.a.ndim >= 3 else 1

    def contract(sub, xa, xb, ya, yb, shared):
        bound = xb * yb * shared * k
        if bound >= FLOAT_EXACT_CAP:
            raise PrecisionError("triple tensor bound exceeds exact float range")
        return np.einsum(sub, xa, ya, t, optimize=True), bound

    m1, b1 = contract("ipqa,jqrb,abc->ijprc", basis.a, basis.bound, middle.a, middle.bound, q)
    t1, bt1 = contract("ijpqa,kqrb,abc->ijkprc", m1, b1, basis.a, basis.bound, p)
    m2, b2 = contract("jpqa,iqrb,abc->jiprc", middle.a, middle.bound, basis.a, basis.bound, p)
    t2, bt2 = contract("kpqa,jiqrb,abc->ijkprc", basis.a, basis.bound, m2, b2, q)
    den = basis.den * basis.den * middle.den
    out = Arr(t1 + t2, den, bt1 + bt2, basis.ring)
    return out.actual_bound()


def bilinear_tensor(left: Arr, right: Arr, param: Arr) -> Arr:
    """BB[i, j] = x_i A y_j - y_j A x_i for basis stacks x, y and parameter A."""
    xa = matrix_mul(Arr(left.a[:, None], left.den, left.bound, left.ring),
                    Arr(param.a[None, None], param.den, param.bound, param.ring))
    xay = ring_einsum("ijpqa,jqrb,abc->ijprc", xa, right, right.a.shape[-2])
    ya = matrix_mul(Arr(right.a[:, None], right.den, right.bound, right.ring),
                    Arr(param.a[None, None], param.den, param.bound, param.ring))
    yax = ring_einsum("jipqa,iqrb,abc->jiprc", ya, left, left.a.shape[-2])
    yax = Arr(np.swapaxes(yax.a, 0, 1), yax.den, yax.bound, yax.ring)
    return (xay - yax).actual_bound()


def flatten_last(x: Arr) -> Arr:
    """Collapse the trailing (rows, cols, comps) axes into flat Q-coordinates
    matching Matrix.flatten ordering."""
    shape = x.a.shape
    n = shape[-3] * shape[-2] * shape[-1]
    return Arr(x.a.reshape(shape[:-3] + (n,)), x.den, x.bound, x.ring)


class BasisInt:
    """Integer form of an RREF subspace basis for fast coordinates/membership."""

    __slots__ = ("num", "den", "pivots", "bound")

    def __init__(self, basis_rows, pivots):
        num, self.den = fraction_matrix_to_ints(basis_rows)
        self.num = np.array(num, dtype=np.float64)
        self.pivots = tuple(pivots)
        self.bound = float(np.max(np.abs(self.num))) if self.num.size else 1.0


def coordinates(flat: Arr, basis: BasisInt):
    """Exact coordinates of the vectors in ``flat`` (shape (..., N)) with
    respect to the RREF basis.

    Returns (coords, ok) where coords has shape (..., d) with denominator
    flat.den and ok says whether every vector lies in the span.
    """
    if basis.num.size == 0:
        ok = not np.any(flat.a)
        coords = np.zeros(flat.a.shape[:-1] + (0,))
        return Arr(coords, flat.den, 1.0, flat.ring), bool(ok)
    coords = flat.a[..., list(basis.pivots)]
    # membership: basis.den * v == coords @ basis.num   (all integers)
    lhs_bound = flat.bound * basis.den
    rhs_bound = flat.bound * basis.bound * len(basis.pivots)
    if max(lhs_bound, rhs_bound) >= FLOAT_EXACT_CAP:
        raise PrecisionError("membership bound exceeds exact float range")
    ok = bool(np.array_equal(flat.a * basis.den, coords @ basis.num))
    return Arr(coords, flat.den, flat.bound, flat.ring), ok


def independent_row_indices(rows: np.ndarray):
    """Indices of a maximal Q-linearly-independent subset of the rows of an
    integer matrix.

    Input integers are given in float64 (exact range); the elimination runs
    in int64 with gcd normalization and falls back to Python integers when a
    row's magnitudes grow too large.
    """
    return sorted(b[4] for b in _echelon(rows))


def _echelon(rows: np.ndarray):
    basis = []  # (row ndarray int64|object, pivot, pivot value, bound, index)
    int64_cap = 2**61
    gcd_threshold = 2**32
    for ridx, raw in enumerate(rows):
        if raw.dtype == object:
            row = raw.copy()
            rbound = max((abs(int(v)) for v in row), default=0)
        else:
            row = np.rint(raw).astype(np.int64)
            rbound = int(np.abs(row).max(initial=0))
        for brow, piv, bp, bbound, _ in basis:
            x = row[piv]
            if x == 0:
                continue
            # conservative magnitude bound tracked instead of rescanning
            newbound = rbound * abs(bp) + bbound * abs(int(x))
            if newbound >= int64_cap:
                if row.dtype != object:
                    row = row.astype(object)
                if brow.dtype != object:
                    brow = brow.astype(object)
            row = row * bp - brow * int(x)
            rbound = newbound
            if rbound >= gcd_threshold:
                g, rbound = _gcd_and_max(row)
                if g > 1:
                    row = row // g
                    rbound //= g
                if row.dtype == object and rbound < int64_cap:
                    row = row.astype(np.int64)
        nz = np.nonzero(row)[0]
        if nz.size:
            piv = int(nz[0])
            if row[piv] < 0:
                row = -row
            g, rbound = _gcd_and_max(row)
            if g > 1:
                row = row // g
                rbound //= g
            if row.dtype == object and rbound < int64_cap:
                row = row.astype(np.int64)
            basis.append((row, piv, int(row[piv]), rbound, ridx))
    basis.sort(key=lambda b: b[1])
    return basis


def _gcd_and_max(row):
    """(gcd, max magnitude) of an integer row in one pass."""
    if row.dtype == object:
        g, mx = 0, 0
        for v in row:
            a = abs(int(v))
            if a > mx:
                mx = a
            if g != 1:
                g = gcd(g, a)
        return (g if g else 1), mx
    a = np.abs(row)
    return (int(np.gcd.reduce(a)) or 1), int(a.max(initial=0))

