"""Exact integer tensors (``Arr``) and the heavy computations on them.

An ``Arr`` holds integer numerators over a single denominator together with
a proven bound on the largest magnitude; its last three axes are the rows,
columns and ring components of matrices, and leading axes stack them.  Every
operation computes the bound of its result before it runs and picks the
dtype from it (``fit``): float32 while the bound is below 2^24 and float64
while it is below 2^53 (the exact-integer ranges of their 24- and 53-bit
significands), so BLAS runs, and numpy ``object`` arrays of Python ints
otherwise.  There is one code path; only the dtype changes.  A single
matrix, ``matrices.Matrix``, is the unstacked ``Arr`` in lowest terms, so
sums, products, conjugations and transposes are written once, here, and
broadcast over the leading axes.

Products and conjugations over every ring read its tables in ``scalars``
(``mult_tensor``, ``conj_signs``).  A ring product is one GEMM against the
right regular representation of its right operand (``right_rep``), a signed
gather of its components: there is no einsum.  Over Q (one component) that
representation is the right operand itself, so the product is the plain GEMM
of the two component planes, with nothing gathered.  A product entry sums at most
shared * k products of components, so each partial sum of the GEMM, in
whatever order BLAS adds, is bounded by the same shared * k * |x| * |y| that
bounds the result, and float32 and float64 stay exact below 2^24 and 2^53
(the argument of J.-G. Dumas, P. Giorgi, C. Pernet, ACM TOMS 35 (2008),
which runs exact integer products in floating-point BLAS).

A subspace basis enters as an ``Arr`` of its RREF rows (integer numerators
over one denominator) with their pivot columns.  ``coordinates`` is the one
coordinates and membership routine: the coordinates of v are its pivot
entries, and v is in the span exactly when den * v is their combination of
the integer rows.

``independent_row_indices`` (the LT3 operator span) picks rows from their
residues modulo a prime p and accepts the pick only behind a deterministic
certificate: every row is congruent to a combination of the picked rows
modulo each of a set of primes whose product passes a cover.  The default
cover is the Hadamard bound of that integer identity, past which it holds
over Q: the picked rows span.  A caller that only needs a Z-linear function
of the rows to vanish passes that function's bound (LT3 passes the bound of
its residuals, ``homotope._check_lt3``): zero on the picked rows, it is
then zero modulo primes whose product passes its bound on every row, so
zero, though the picked rows need not span over Q.  The pick itself proves
the congruences modulo p, so p counts toward the product; the other primes
are checked one at a time, in a working set the size of the rows, not of
the rows times the primes.

``one_blas_thread()`` runs the LTS check (``homotope.check_lts``) with
OpenBLAS on one thread, and then gives the caller's thread count back.  The
check's GEMMs are small or batched below OpenBLAS's threading threshold, so
a second thread mostly spin-waits between calls.  On a 2-vCPU machine
(OpenBLAS 0.3.31, numpy 2.4) one thread cut the CPU time of the lts-sweep
benchmark (d from 4 to 24) by 36-42 % in every pair, and changed its wall
time by under 1 % when the two alternated pass by pass in one process.  At
d = 42 (the pol2-2.2(3, 3) axiom suite) it cut the CPU time by 45 % but
cost about 10 % of the wall time; the rule is still one thread at every d,
since no benchmark workload lies above d = 24 to set a size limit by.
Results do not depend on it: every bound above holds in any summation
order.  Without an OpenBLAS whose thread-count functions can be found, it
does nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import isqrt, lcm, prod

import numpy as np

from .scalars import conj_signs, mult_tensor

FLOAT32_EXACT_CAP = 2**24
FLOAT_EXACT_CAP = 2**53


class PrecisionError(ArithmeticError):
    """A float ``Arr`` with a bound past the exact range of its dtype (a bug)."""


@lru_cache(maxsize=None)
def _gathers(ring) -> tuple:
    """(left, right): left[c, b] and right[a, c] index the concatenation
    (x, -x, 0) of the components of x at the entry (c, b) of the left and
    (a, c) of the right regular representation of x.  Each product of basis
    units is a signed unit or zero, so the one nonzero t[a, b, c] = s is
    gathered as a + k (s < 0) resp. b + k (s < 0), and a missing one as the
    zero slot 2k."""
    t = mult_tensor(ring)
    k = len(t)

    def gather(axis):
        idx = np.abs(t).argmax(axis=axis)
        s = np.take_along_axis(t, np.expand_dims(idx, axis), axis).squeeze(axis)
        return np.where(s == 0, 2 * k, idx + k * (s < 0))

    return gather(0).T, gather(1)


def fit(a: np.ndarray, bound: int) -> np.ndarray:
    """``a`` (integer entries of magnitude at most ``bound``) in the dtype that
    holds every integer up to ``bound`` exactly: float32 below 2^24, float64
    below 2^53, numpy ``object`` arrays of Python ints above.  ``bound`` must
    cover the entries of ``a`` as well as those of what is computed from it."""
    if bound >= FLOAT_EXACT_CAP:
        return a if a.dtype == object else a.astype(np.int64).astype(object)
    dtype = np.float32 if bound < FLOAT32_EXACT_CAP else np.float64
    return a if a.dtype == dtype else a.astype(dtype)


@lru_cache(maxsize=None)
def _blas_threads_api():
    """The (get, set) thread-count functions of the OpenBLAS loaded into this
    process, or None: looked up once, on first use, among the mapped
    libraries whose path names openblas (``/proc/self/maps``)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread (module docstring), then
    restore the caller's thread count, also when the block raises.  Nothing
    changes without an OpenBLAS (``_blas_threads_api``) or when it already
    runs on one thread.  The count is process-wide: scopes that overlap in
    several Python threads leave it as they found it, though a body may then
    run on the caller's count for a while, which changes no result."""
    api = _blas_threads_api()
    before = api[0]() if api is not None else 1
    if before == 1:
        yield
        return
    api[1](1)
    try:
        yield
    finally:
        api[1](before)


def _kind(x: "Arr", y: "Arr") -> type:
    """The class of a result of x and y: a ``Matrix`` when both are."""
    return type(x) if type(x) is type(y) else Arr


class Arr:
    """Exact integer tensor with denominator and magnitude bound.

    ``a`` holds integers; ``a / den`` is the represented rational tensor;
    ``bound`` is a proven upper bound for max |entry|, and ``a`` is float32
    exactly when ``bound`` is below 2^24, float64 exactly when it is in
    [2^24, 2^53) and ``object`` above (see ``fit``).  An operation whose
    operands are all ``Matrix`` returns a ``Matrix`` (``_make``).
    """

    __slots__ = ("a", "den", "bound", "ring")

    def __init__(self, a: np.ndarray, den: int, bound: int, ring):
        cap = FLOAT32_EXACT_CAP if a.dtype == np.float32 else FLOAT_EXACT_CAP
        if bound >= cap and a.dtype != object:
            raise PrecisionError(f"bound {bound:.3g} exceeds the exact range of {a.dtype}")
        self.a = a
        self.den = den
        self.bound = bound
        self.ring = ring

    @classmethod
    def _make(cls, a: np.ndarray, den: int, bound: int, ring) -> "Arr":
        """The result a / den of an operation, with its actual bound
        (``Matrix`` also reduces it to lowest terms)."""
        return cls(a, den, bound, ring).actual_bound()

    def _same(self, a: np.ndarray) -> "Arr":
        """The entries ``a`` (signs and places of those of self changed) over
        the same denominator and bound: no reduction is needed."""
        out = object.__new__(type(self))
        out.a, out.den, out.bound, out.ring = a, self.den, self.bound, self.ring
        return out

    @staticmethod
    def from_matrices(mats) -> "Arr":
        """Stack matrices (same shape/ring) to shape (n, rows, cols, comps),
        their numerators over the lcm of their denominators (``concat``)."""
        return concat([Arr(m.a[None], m.den, m.bound, m.ring) for m in mats], 0).actual_bound()

    def __getitem__(self, index) -> "Arr":
        """The entries at ``index`` (leading axes), same denominator and bound."""
        return Arr(self.a[index], self.den, self.bound, self.ring)

    @property
    def rows(self) -> int:
        return self.a.shape[-3]

    @property
    def cols(self) -> int:
        return self.a.shape[-2]

    def is_zero(self):
        """Whether each matrix of the stack is zero: a boolean array of the
        leading shape (a numpy bool for one matrix).  Compared with 0 first:
        under NumPy 1, ``any`` of an ``object`` array can return an entry
        rather than a bool."""
        return ~(self.a != 0).any(axis=(-3, -2, -1))

    def actual_bound(self) -> "Arr":
        """Tighten the tracked bound to the actual maximum entry."""
        b = max(int(np.abs(self.a).max(initial=0)), 1)
        return Arr(fit(self.a, b), self.den, b, self.ring)

    def over(self, den: int, bound: int) -> np.ndarray:
        """The entries rescaled to the multiple ``den`` of the denominator, in
        the dtype of ``bound`` (which must cover the rescaled entries)."""
        a = fit(self.a, bound)
        return a if den == self.den else a * (den // self.den)

    def __neg__(self) -> "Arr":
        return self._same(-self.a)

    def __add__(self, other: "Arr") -> "Arr":
        """The sums, broadcast over the leading axes (a matrix plus a stack
        adds it to every matrix of the stack)."""
        if self.ring != other.ring or self.a.shape[-3:] != other.a.shape[-3:]:
            raise ValueError("shape or ring mismatch")
        (a, b), d, _ = over_lcm((self, other))
        # the sum's own bound: fitting to the larger operand bound could overflow the dtype of the sum
        bound = self.bound * (d // self.den) + other.bound * (d // other.den)
        return _kind(self, other)._make(fit(a, bound) + fit(b, bound), d, bound, self.ring)

    def __sub__(self, other: "Arr") -> "Arr":
        return self + (-other)

    def __matmul__(self, other: "Arr") -> "Arr":
        return matrix_mul(self, other)

    def scale(self, r) -> "Arr":
        """Multiply every entry by a central rational."""
        r = Fraction(r)
        # covers the entries and their multiples, also when r = 0
        bound = self.bound * max(abs(r.numerator), 1)
        return self._make(fit(self.a, bound) * r.numerator, self.den * r.denominator, bound, self.ring)

    def conjugate(self, kind: str) -> "Arr":
        """Entrywise base involution, or phi (conjugation by the quaternion j):
        a component sign pattern (``conj_signs``)."""
        return self._same(self.a * conj_signs(self.ring, kind))

    def transpose(self) -> "Arr":
        """Swap the matrix axes (the last three axes are rows, cols, comps)."""
        return self._same(self.a.swapaxes(-3, -2))

    def dagger(self, delta: str = "id") -> "Arr":
        """delta entrywise, then transpose; an antiautomorphism of the algebra."""
        return self.conjugate(delta).transpose()


def over_lcm(xs) -> tuple:
    """(numerators, den, bound): the entries of the ``Arr`` xs rescaled to
    the lcm ``den`` of their denominators, in the dtype of ``bound``, the
    largest rescaled bound.  The one rule by which tensors meet."""
    den = lcm(*[x.den for x in xs])
    bound = max([x.bound * (den // x.den) for x in xs])
    return [x.over(den, bound) for x in xs], den, bound


def equal(x: Arr, y: Arr) -> np.ndarray:
    """Whether x and y hold the same matrix, per matrix of the stacks
    (broadcast over the leading axes): a boolean array of the leading shape
    (a numpy bool for two matrices), compared over one denominator
    (``over_lcm``)."""
    if x.ring != y.ring or x.a.shape[-3:] != y.a.shape[-3:]:
        raise ValueError("shape or ring mismatch")
    (a, b), _, _ = over_lcm((x, y))
    return np.all(a == b, axis=(-3, -2, -1))


def concat(xs, axis: int) -> Arr:
    """Concatenate the ``Arr`` xs along ``axis`` over one denominator
    (``over_lcm``)."""
    nums, den, bound = over_lcm(xs)
    return Arr(np.concatenate(nums, axis=axis), den, bound, xs[0].ring)


def _rep(x: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """The components (x, -x, 0) of x at ``gather``, matrix axes swapped."""
    zero = np.zeros(x.shape[:-1] + (1,), x.dtype)
    return np.swapaxes(np.concatenate([x, -x, zero], axis=-1)[..., gather], -3, -2)


def left_rep(x: np.ndarray, ring) -> np.ndarray:
    """The left regular representation of the integer matrices x (shape
    (..., p, q, k)), as shape (..., p, k, q, k): L[..., p, c, q, b] =
    s * x[..., p, q, a] for e_a e_b = s e_c (0 if there is no such a), so
    that for y of shape (..., q, r, k) with r = 1, x y is
    L.reshape(..., p k, q k) @ y.reshape(..., q k)."""
    return _rep(x, _gathers(ring)[0])


def right_rep(y: np.ndarray, ring) -> np.ndarray:
    """The right regular representation of the integer matrices y (shape
    (..., q, r, k)), as shape (..., q, k, r, k): R[..., q, a, r, c] =
    s * y[..., q, r, b] for e_a e_b = s e_c (0 if there is no such b), so
    that for x of shape (..., p, q, k), x y is
    x.reshape(..., p, q k) @ R.reshape(..., q k, r k)."""
    return _rep(y, _gathers(ring)[1])


def ring_product(x: np.ndarray, y: np.ndarray, ring) -> np.ndarray:
    """The products x y of the integer matrices x (..., p, q, k) and
    y (..., q, r, k), broadcast over the leading axes: one GEMM against the
    right regular representation of y, in the dtype of the operands.  For
    k = 1 (Q) that representation is y, and the GEMM is x y itself."""
    *_, q, k = x.shape
    if k == 1:
        return (x[..., 0] @ y[..., 0])[..., None]
    r = y.shape[-2]
    rep = right_rep(y, ring)
    out = x.reshape(x.shape[:-2] + (q * k,)) @ rep.reshape(rep.shape[:-4] + (q * k, r * k))
    return out.reshape(out.shape[:-1] + (r, k))


def _rep_columns(y: np.ndarray, ring) -> np.ndarray:
    """The right regular representations of the stack y (n, q, r, k) side by
    side, shape (q k, n r k): one GEMM multiplies on the right by every y[t]."""
    n, q, r, k = y.shape
    return np.moveaxis(right_rep(y, ring), 0, 2).reshape(q * k, n * r * k)


def matrix_mul(x: Arr, y: Arr) -> Arr:
    """Batched matrix product with broadcasting over leading axes: one GEMM
    against the right regular representation of ``y``."""
    if x.ring != y.ring:
        raise ValueError("ring mismatch in product")
    *_, q, k = x.a.shape
    if y.a.shape[-3] != q:
        raise ValueError("shape mismatch in product")
    bound = x.bound * y.bound * q * k
    out = ring_product(fit(x.a, bound), fit(y.a, bound), x.ring)
    return _kind(x, y)._make(out, x.den * y.den, bound, x.ring)


class AlphaMap:
    """The Q-linear sandwich X -> sign * L * twist(X)[^t] * R: ``twist`` is
    an entrywise base involution or phi (a component sign pattern of
    ``scalars.CONJ_SIGNS``), followed by the transpose when ``transpose`` is
    set; a factor L or R given as None is the identity.  It gives the alpha
    maps of the triple products, the involutions and the intertwiners.

    Being declared, not a closure, it applies in two batched products to a
    ``Matrix`` or to a whole stacked basis (an ``Arr``) alike.
    """

    __slots__ = ("left", "right", "twist", "transpose", "sign")

    def __init__(self, left: Arr | None, right: Arr | None, twist: str = "id", transpose: bool = False,
                 sign: int = 1):
        self.left = left
        self.right = right
        self.twist = twist
        self.transpose = transpose
        self.sign = sign

    def __call__(self, x: Arr) -> Arr:
        """The map on the matrix ``x``, or on every matrix of the stack ``x``."""
        out = x.conjugate(self.twist)
        if self.transpose:
            out = out.transpose()
        if self.left is not None:
            out = matrix_mul(self.left, out)
        if self.right is not None:
            out = matrix_mul(out, self.right)
        return out if self.sign > 0 else -out

    @staticmethod
    def param(a: Arr) -> "AlphaMap":
        """alpha(X) = A X A (the plain homotope with parameter A)."""
        return AlphaMap(a, a)

    def negated(self) -> "AlphaMap":
        return AlphaMap(self.left, self.right, self.twist, self.transpose, -self.sign)


def t_tensor(basis: Arr, middle: Arr) -> Arr:
    """TT[i, j, k] = b_i w_j b_k + b_k w_j b_i over the basis stack (d, p, q, k)
    and the middle stack (e, q, p, k), shape (d, e, d, p, q, k): four GEMMs,
    b_i w_j, (b_i w_j) b_k, w_j b_i and b_k (w_j b_i), each over every index
    at once.  The stacks may differ in length (e != d): a polarized system
    pairs the basis of one grade with the middle images of the other."""
    ring = basis.ring
    d, p, q, k = basis.a.shape
    e = middle.a.shape[0]
    # b_i w_j sums over q, w_j b_i over p; both triple terms sum over p * q
    bw, wb = basis.bound * middle.bound * q * k, basis.bound * middle.bound * p * k
    bound = 2 * bw * basis.bound * p * k
    # rows (j, q) x columns (i, q', c); then per (i, j), rows (k, p) x columns
    # (q', c): the result comes out in place, and the first term adds into it
    m2 = fit(middle.a, wb).reshape(e * q, p * k) @ _rep_columns(fit(basis.a, wb), ring)
    rep = right_rep(fit(m2.reshape(e, q, d, q, k).swapaxes(0, 2).swapaxes(1, 2), bound), ring)
    out = (fit(basis.a, bound).reshape(d * p, q * k) @ rep.reshape(d * e, q * k, q * k)).reshape(d, e, d, p, q, k)
    # rows (i, p) x columns (j, p', c), then rows (i, j, p) x columns (k, q, c)
    m1 = fit(basis.a, bw).reshape(d * p, q * k) @ _rep_columns(fit(middle.a, bw), ring)
    m1 = m1.reshape(d, p, e, p * k).swapaxes(1, 2).reshape(d * e * p, p * k)
    out += (fit(m1, bound) @ _rep_columns(fit(basis.a, bound), ring)).reshape(d, e, p, d, q, k).swapaxes(2, 3)
    return Arr(out, basis.den * basis.den * middle.den, bound, ring).actual_bound()


def bilinear_tensor(left: Arr, right: Arr, param: Arr) -> Arr:
    """BB[i, j] = x_i A y_j - y_j A x_i for basis stacks x, y and parameter A:
    the stacks broadcast against each other, as in ``bracket_param``."""
    x, y = left[:, None], right[None]
    return x @ param @ y - y @ param @ x


def flatten_last(x: Arr) -> Arr:
    """Collapse the trailing (rows, cols, comps) axes into flat Q-coordinates
    matching Matrix.flatten ordering."""
    shape = x.a.shape
    n = shape[-3] * shape[-2] * shape[-1]
    return Arr(x.a.reshape(shape[:-3] + (n,)), x.den, x.bound, x.ring)


def int_rows(a: np.ndarray) -> list:
    """An integer array (float in its exact range, or ``object``) as
    (nested) lists of Python ints."""
    return (a if a.dtype == object else a.astype(np.int64)).tolist()


def coordinates(flat: Arr, basis: Arr, pivots):
    """Exact coordinates of the vectors in ``flat`` (shape (..., N)) with
    respect to an RREF basis: the integer rows ``basis`` (shape (d, N)) over
    their denominator, with these pivot columns.

    Returns (coords, member): coords has shape (..., d) with denominator
    flat.den, and the boolean array member (shape (...)) says which vectors
    lie in the span.
    """
    # membership: basis.den * v == coords @ basis.a   (all integers)
    bound = max(flat.bound * basis.den, flat.bound * basis.bound * len(pivots))
    v = fit(flat.a, bound)
    # contiguous: LT3 contracts the coordinates along each of their axes
    coords = np.ascontiguousarray(v[..., list(pivots)])
    member = np.all(v * basis.den == coords @ fit(basis.a, bound), axis=-1)
    return Arr(fit(coords, flat.bound), flat.den, flat.bound, flat.ring), member


# -- maximal independent rows, modulo primes behind an exact certificate -----


def independent_row_indices(rows: np.ndarray, cover: int | None = None) -> list:
    """Sorted indices of a maximal Q-linearly-independent subset of the rows
    of an integer matrix (float32 or float64 in its exact range, or Python
    ints in an ``object`` array).

    Rows independent modulo a prime p are independent over Q, so the rows are
    picked modulo p, and the pick is accepted only behind an exact certificate
    that it spans every row (``_spans``).  Otherwise the next prime is tried:
    only finitely many primes divide a nonzero maximal minor.  A smaller
    ``cover`` certifies less, and the picked rows need not be maximal
    (``_spans``, module docstring).
    """
    nonzero = rows != 0
    live = np.flatnonzero(nonzero.any(axis=1))
    r = rows[np.ix_(live, np.flatnonzero(nonzero.any(axis=0)))]
    if r.size == 0:
        return []
    # a float dtype only below 2^52, so that r minus a residue sum, which
    # ``_spans`` computes in float64 (``_residues``), stays exact
    r = fit(r, 2 * int(np.abs(r).max()))
    for p in _primes_below(_modulus_limit(min(r.shape))):
        picked, pivots = _pick(r, p)
        if _spans(r, picked, pivots, p, cover):
            return live[picked].tolist()
    # not reached while the Hadamard bound H of r stays below the product of
    # the primes below the limit, about e^limit (Chebyshev), at least
    # e^(2^20) for fewer than 2^12 rows or columns: a pick modulo a prime
    # that divides no maximal minor has full rank, so it spans over Q and
    # ``_spans`` accepts it; each rejected prime divides one fixed nonzero
    # maximal minor, so the rejected primes multiply to at most H
    raise ArithmeticError("every prime below the limit divides a maximal minor")


def _modulus_limit(terms: int) -> int:
    """A bound on primes q with terms * q^2 < 2^52: sums of that many
    products of residues (``_smod``) stay inside float64's exact range."""
    return isqrt(2**52 >> terms.bit_length())


def _primes_below(limit: int):
    """The primes below ``limit``, largest first: a fixed list, sieved in
    windows of 2^12 numbers as far as it is read."""
    for hi in range(limit, 2, -2**12):
        yield from _prime_window(hi)


@lru_cache(maxsize=None)
def _prime_window(hi: int) -> tuple:
    """The primes in [hi - 2^12, hi), largest first."""
    lo = max(hi - 2**12, 2)
    prime = np.ones(hi - lo, dtype=bool)
    for p in _primes_below(isqrt(hi - 1) + 1):
        prime[max(p * p, -(-lo // p) * p) - lo::p] = False
    return tuple((lo + np.flatnonzero(prime)[::-1]).tolist())


def _smod(x: np.ndarray, q) -> np.ndarray:
    """Reduce the float64 integers x (|x| + q < 2^53) modulo q (broadcasting)
    in place, to magnitude at most q/2 + 2.  Exact: x/q, computed within 2/q,
    is rounded to an integer t, and t*q and x - t*q are integers below 2^53.
    One temporary, t, of the size of x."""
    t = np.multiply(x, 1.0 / q)
    np.rint(t, out=t)
    t *= q
    x -= t
    return x


def _residues(a: np.ndarray, q) -> np.ndarray:
    """The integers ``a`` modulo q (broadcasting), as a new float64 array.
    The cast is explicit: float32 input plus a 0-d float64 array stays
    float32 under NumPy 1's value-based promotion."""
    if a.dtype == object:
        return (a % np.asarray(q, dtype=np.int64).astype(object)).astype(np.float64)
    return _smod(np.add(a, np.zeros(np.shape(q)), dtype=np.float64), q)


# rows reduced together when the pick looks for its next independent row
PICK_BLOCK = 8


def _pick(r: np.ndarray, p: int):
    """The rows of ``r`` independent of the rows before them modulo p, and
    their pivot columns: r[picked, pivots] is invertible mod p, with nonzero
    leading principal minors (each picked row is reduced by the picked rows
    before it, and its pivot is its first nonzero entry).  Rows are reduced
    ``PICK_BLOCK`` at a time, so a run of dependent rows costs one reduction
    per block; until then a row takes one update per pivot, which
    ``_modulus_limit`` allows for."""
    a = _residues(r, p)
    picked, pivots = [], []
    i = 0
    while i < len(a):
        live = np.flatnonzero(_smod(a[i:i + PICK_BLOCK], p).any(axis=1))
        if not live.size:
            i += PICK_BLOCK
            continue
        i += int(live[0])
        row = a[i]
        j = int(np.flatnonzero(row)[0])
        row *= pow(int(row[j]) % p, -1, p)
        _smod(row, p)
        a[i + 1:] -= _smod(a[i + 1:, j].copy(), p)[:, None] * row
        picked.append(i)
        pivots.append(j)
        i += 1
    return picked, pivots


def _spans(r: np.ndarray, picked: list, pivots: list, p: int, cover: int | None = None) -> bool:
    """Exact certificate that every row of ``r`` lies in the Q-span of the
    rows ``picked``, which ``_pick`` chose modulo p, so that their minor
    M = r[picked, pivots] is invertible; with a ``cover`` below the Hadamard
    bound, only that every row is congruent to a combination of them modulo
    primes whose product exceeds ``cover``.

    They do exactly when det(M) r = r[:, pivots] adj(M) r[picked].  Both sides
    are below B H + k^2 B^2 H in magnitude (B = max |r|, H = prod ceil(||M_i||)
    bounds det(M) and every cofactor, by Hadamard), so the identity holds once
    it holds modulo primes whose product exceeds twice that.  Modulo p it
    holds already: there every row not picked reduced to zero against the
    picked rows before it.  Modulo each other prime q where M is invertible
    it reads r = (r[:, pivots] M^-1) r[picked], checked for one q at a time;
    primes where ``_inverse_mod`` finds a zero pivot are skipped.
    """
    k, (n, width) = len(picked), r.shape
    if k in (n, width) or (cover is not None and p > cover):
        return True
    m = r[np.ix_(picked, pivots)]
    b = int(np.abs(r).max())
    # Python ints: float squares past 2^53 would round
    h = prod(isqrt(s - 1) + 1 for s in np.square(fit(m, FLOAT_EXACT_CAP)).sum(axis=1))
    bound = 2 * (k * k * b * b * h + b * h)
    if cover is not None:
        bound = min(bound, cover)
    rest = np.ones(n, dtype=bool)
    rest[picked] = False
    lhs, coef, basis = r[rest], r[np.ix_(rest, pivots)], r[picked]
    limit = _modulus_limit(k)
    primes, covered = (q for q in _primes_below(limit) if q != p), p
    while covered <= bound:
        # the primes the bound still needs, their inverses at most 2^19 entries
        need = (bound // covered).bit_length() // (limit.bit_length() - 1) + 1
        qs = np.array(list(islice(primes, min(need, max(1, 2**18 // (k * k))))), dtype=np.float64)
        if not qs.size:
            # not reached while bound * H^k stays below the product of the
            # primes below the limit, about e^limit (Chebyshev), H the
            # Hadamard bound of m: a prime is skipped only when it divides
            # one of the k leading principal minors of m, nonzero integers
            # of at most H (``_pick``), so the skipped primes multiply to at
            # most H^k, and the others cover the bound
            raise ArithmeticError("the primes below the limit cannot cover the bound")
        inv, ok = _inverse_mod(m, qs)
        for q, inv_q in zip(qs[ok], inv[ok]):
            y = _smod(_residues(coef, q) @ inv_q, q) @ _residues(basis, q)
            y -= _residues(lhs, q) if lhs.dtype == object else lhs
            if _smod(y, q).any():
                return False
            covered *= int(q)
    return True


def _inverse_mod(m: np.ndarray, qs: np.ndarray):
    """Inverses of the integer matrix m modulo each prime in ``qs``, by one
    batched Gauss-Jordan elimination without row exchanges, and the mask of
    the primes where every pivot is nonzero.  The other primes divide a
    leading principal minor of m; their inverses are garbage, and a caller
    that skips them spends at most one more prime for each."""
    s, k = len(qs), len(m)
    q = qs[:, None, None]
    a = np.concatenate([_residues(m, q), np.broadcast_to(np.eye(k), (s, k, k))], axis=2)
    ok = np.ones(s, dtype=bool)
    for j in range(k):
        pivot = a[:, j, j]
        ok &= pivot != 0
        inv = [pow(int(v) % int(p), -1, int(p)) if v else 0 for v, p in zip(pivot, qs)]
        row = _smod(a[:, j] * np.array(inv, dtype=np.float64)[:, None], qs[:, None])
        a -= a[:, :, j, None] * row[:, None, :]
        _smod(a, q)
        a[:, j] = row
    return a[:, :, k:], ok
