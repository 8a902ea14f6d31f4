"""Dense matrices over the exact scalar rings, plus exact Q-linear subspace
arithmetic (span, sum, membership) on flattened coordinates.

A ``Matrix`` is the unstacked ``kernel.Arr``: integer numerators of shape
(rows, cols, k), k Q-coordinates per entry, over one positive denominator,
in lowest terms, so equal matrices have equal arrays.  Its sums, scalings,
conjugations, transposes and products are the ``Arr`` operations, series
rings included (``scalars.mult_tensor``); ``Scalar`` entries are only built
for the views ``m[i, j]`` and ``entries``.  Every elimination (``rref``,
``Subspace``, ``inverses`` of a matrix or of each matrix of a stack) is one
fraction-free Gauss-Jordan on rows of Python ints (``_echelon``, after
E. H. Bareiss, Math. Comp. 22 (1968)); only returned values become
``Fraction``s, and ``inverses`` skips it wherever one product certifies a
guessed inverse.  A subspace keeps its RREF basis as one integer ``Arr`` with
its pivots, so equality of subspaces is a syntactic comparison; only
``Subspace`` reads it, and every coordinate and membership query, of a vector
or a stack, is one ``kernel.coordinates`` against it (``flat_coordinates``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

from . import kernel
from .scalars import HQ, Q, QI, Scalar, format_components, is_series, parse_scalar, ring_components


def _numerators(values) -> tuple:
    """Integer numerators of rationals (Fractions or ints) over their least
    common denominator: (list of ints, den)."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class Matrix(kernel.Arr):
    """An immutable rows x cols matrix over one scalar ring: the unstacked
    ``kernel.Arr``, of shape (rows, cols, ring_components(ring)), in lowest
    terms.  Its arithmetic is the ``Arr`` arithmetic; this class adds the
    value semantics: constructors, ``==``/``hash``, the ``Scalar`` views
    ``m[i, j]`` and ``entries``, ``inverse`` and the text forms."""

    __slots__ = ()

    def __init__(self, rows: int, cols: int, ring, entries: Sequence[Scalar]):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        for e in entries:
            if e.ring != ring:
                raise ValueError("mixed rings in matrix entries")
        m = Matrix.unflatten((rows, cols, ring), [c for e in entries for c in e.flatten()])
        super().__init__(m.a, m.den, m.bound, ring)

    @classmethod
    def _make(cls, a: np.ndarray, den: int, bound: int, ring) -> "Matrix":
        """a / den in lowest terms: the numerators and the denominator divided
        by their gcd, with the actual bound (``bound`` is not needed)."""
        vals = kernel.int_rows(a.ravel())
        g = gcd(den, *vals)
        bound = max(max(vals), -min(vals)) // g
        if g > 1 and bound:  # a zero matrix keeps its zeros, over 1
            a = a // g
        m = object.__new__(Matrix)
        m.a, m.den, m.bound, m.ring = kernel.fit(a, bound or 1), den // g, bound or 1, ring
        return m

    @staticmethod
    def from_numerators(ring, num: np.ndarray, den: int = 1) -> "Matrix":
        """The matrix num / den: ``num`` an integer array (float or Python
        ints) of shape (rows, cols, ring_components(ring)), ``den`` > 0."""
        if num.ndim != 3 or num.shape[0] <= 0 or num.shape[1] <= 0:
            raise ValueError("matrix dimensions must be positive")
        return Matrix._make(num, den, 0, ring)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int, ring) -> "Matrix":
        return Matrix.from_numerators(ring, np.zeros((rows, cols, ring_components(ring))))

    @staticmethod
    def identity(n: int, ring) -> "Matrix":
        num = np.zeros((n, n, ring_components(ring)))
        num[range(n), range(n), 0] = 1
        return Matrix.from_numerators(ring, num)

    @staticmethod
    def elementary(rows: int, cols: int, i: int, j: int, ring) -> "Matrix":
        """The unit matrix E_ij."""
        num = np.zeros((rows, cols, ring_components(ring)))
        num[i, j, 0] = 1
        return Matrix.from_numerators(ring, num)

    @staticmethod
    def from_rows(ring, rows: Sequence[Sequence]) -> "Matrix":
        r, c = len(rows), len(rows[0])
        ents = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            for x in row:
                ents.append(x if isinstance(x, Scalar) else Scalar.from_rational(ring, x))
        return Matrix(r, c, ring, ents)

    @staticmethod
    def diag(ring, values: Sequence) -> "Matrix":
        """The diagonal matrix of these rationals."""
        n = len(values)
        num, den = _numerators([Fraction(v) for v in values])
        a = np.zeros((n, n, ring_components(ring)), dtype=object)
        a[range(n), range(n), 0] = num
        return Matrix.from_numerators(ring, a, den)

    @staticmethod
    def block(rows: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """The block matrix with these rows of blocks over one ring."""
        out = kernel.concat([kernel.concat(row, 1) for row in rows], 0)
        return Matrix.from_numerators(out.ring, out.a, out.den)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return Scalar.unflatten(self.ring, [Fraction(v, self.den) for v in kernel.int_rows(self.a[i, j])])

    @property
    def entries(self) -> tuple:
        """The entries, row by row, as Scalars."""
        return tuple(self[i, j] for i in range(self.rows) for j in range(self.cols))

    # -- arithmetic beyond ``Arr`` -----------------------------------------

    def scalar_mul(self, s: Scalar) -> "Matrix":
        """s * X, entrywise: a product with the entries as a 1 x (rows cols)
        row."""
        s1 = Matrix.unflatten((1, 1, self.ring), s.flatten())
        out = s1 @ self._same(self.a.reshape(1, -1, self.a.shape[-1]))
        return out._same(out.a.reshape(self.a.shape))

    def inverse(self) -> "Matrix":
        """Exact inverse; ``ZeroDivisionError`` if the matrix is singular
        (``inverses``)."""
        inv, ok = inverses(self)
        if not ok:
            raise ZeroDivisionError("matrix is not invertible")
        return inv

    # -- flattening --------------------------------------------------------

    def flatten(self) -> tuple:
        """Row-major Q-coordinates (``ring_components`` Fractions per entry)."""
        return tuple(Fraction(v, self.den) for v in kernel.int_rows(self.a.ravel()))

    @staticmethod
    def unflatten(ambient, vec: Sequence) -> "Matrix":
        rows, cols, ring = ambient
        k = ring_components(ring)
        if len(vec) != rows * cols * k:
            raise ValueError("coordinate vector has wrong length")
        num, den = _numerators(vec)
        return Matrix.from_numerators(ring, np.array(num, dtype=object).reshape(rows, cols, k), den)

    # -- comparison / JSON -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return ((self.a.shape, self.ring, self.den) == (other.a.shape, other.ring, other.den)
                and bool((self.a == other.a).all()))

    def __hash__(self):
        return hash((self.a.shape, self.ring, self.den, tuple(kernel.int_rows(self.a.ravel()))))

    def _texts(self) -> list:
        """The entries as text, row by row."""
        return [[format_components(self.ring, [(v, self.den) for v in e]) for e in row]
                for row in kernel.int_rows(self.a)]

    def __repr__(self):
        if is_series(self.ring):
            return f"Matrix({self.rows}x{self.cols}, series)"
        body = "; ".join(",".join(row) for row in self._texts())
        return f"Matrix({self.rows}x{self.cols} {self.ring}: {body})"

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "ring": self.ring, "entries": self._texts()}

    @staticmethod
    def from_json(data: dict) -> "Matrix":
        if not isinstance(data, dict) or not {"rows", "cols", "ring", "entries"} <= data.keys():
            raise ValueError("matrix JSON must be an object with keys rows, cols, ring, entries")
        ring, entries = data["ring"], data["entries"]
        if ring not in (Q, QI, HQ):
            raise ValueError(f"unknown ring {ring!r}; expected one of {Q}, {QI}, {HQ}")
        if not (isinstance(entries, list) and entries
                and all(isinstance(row, list) and all(isinstance(c, str) for c in row) for row in entries)):
            raise ValueError("matrix JSON entries must be a non-empty list of rows of strings")
        rows = [[parse_scalar(ring, cell) for cell in row] for row in entries]
        m = Matrix.from_rows(ring, rows)
        if (m.rows, m.cols) != (data["rows"], data["cols"]):
            raise ValueError("inconsistent matrix JSON")
        return m


def inverses(x: kernel.Arr, guess: kernel.Arr | None = None):
    """(inverse, invertible): the exact inverse of every square matrix of the
    stack x, zero where it is singular, and the boolean mask (of the leading
    shape; a numpy bool for one matrix) of the invertible ones.  A ``Matrix``
    gives a ``Matrix``.

    A ``guess`` (of the shape of x) is a certificate: it is taken as the
    inverse of each matrix X where X @ guess is the identity exactly, one
    product over the stack, and only the other matrices are eliminated.  A
    right inverse is two-sided here: every ring is a finite-dimensional
    Q-algebra, and so is M_n of it, where Y -> X Y onto means one-to-one,
    so X (W X) = X gives W X = 1.
    """
    *lead, n, cols, k = x.a.shape
    if n != cols:
        raise ValueError("only square matrices are invertible")
    if guess is None:
        return _eliminated(x)
    if guess.a.shape != x.a.shape:
        raise ValueError("a guess must have the shape of the stack it inverts")
    ok = kernel.equal(x @ guess, Matrix.identity(n, x.ring))
    if ok.all():
        return type(x)._make(guess.a, guess.den, guess.bound, x.ring), ok
    todo = np.flatnonzero(~ok)
    inv, solved = _eliminated(kernel.Arr(x.a.reshape(-1, n, n, k)[todo], x.den, x.bound, x.ring))
    (num, solved_num), d, bound = kernel.over_lcm((guess, inv))
    num = num.reshape(-1, n, n, k).copy()
    num[todo] = solved_num
    ok = ok.reshape(-1).copy()
    ok[todo] = solved
    return type(x)._make(num.reshape(x.a.shape), d, bound, x.ring), ok.reshape(lead)[()]


def _eliminated(x: kernel.Arr):
    """``inverses`` of x by elimination.

    X is invertible exactly when its left regular representation L(X)
    (nk x nk, the Q-linear map Y -> X Y on n x 1 columns, any ring) has rank
    nk, and Y = X^-1 has Y[i, j]_c = L(X)^-1[(i, c), (j, 0)], as component 0
    is the unit 1: one ``_echelon`` per matrix.
    """
    *lead, n, _, k = x.a.shape
    solved, ok = [], []
    for rep in kernel.int_rows(kernel.left_rep(x.a, x.ring).reshape(-1, n * k, n * k)):
        # [L(num) | den e_(j, 0) over j]: the right block solves to L(X)^-1 e_(j, 0)
        rows = [r + [x.den if p == j * k else 0 for j in range(n)] for p, r in enumerate(rep)]
        rows, pivots = _echelon(rows, n * k)
        ok.append(len(pivots) == n * k)
        # row p = (i, c) is now pv e_p | pv L(X)^-1[p, (j, 0)] over j; zeros if singular
        solved.append([(r[p], r[n * k:]) for p, r in enumerate(rows)] if ok[-1] else [(1, [0] * n)] * (n * k))
    den = lcm(*(pv for rows in solved for pv, _ in rows))
    num = np.array([[[v * (den // pv) for v in rest] for pv, rest in rows] for rows in solved], dtype=object)
    num = num.reshape(*lead, n, k, n).swapaxes(-1, -2)
    return type(x)._make(num, den, 0, x.ring), np.array(ok).reshape(lead)[()]


# -- block constant matrices -----------------------------------------------


def block_Ipq(p: int, q: int, ring=Q) -> Matrix:
    """diag(1_p, -1_q)."""
    if p < 0 or q < 0 or p + q == 0:
        raise ValueError("need p, q >= 0 with p + q > 0")
    return Matrix.diag(ring, [1] * p + [-1] * q)


def block_J(n: int, ring=Q) -> Matrix:
    """[[0, 1_n], [-1_n, 0]]; J^2 = -1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    one, zero = Matrix.identity(n, ring), Matrix.zeros(n, n, ring)
    return Matrix.block([[zero, one], [-one, zero]])


def block_F(n: int, ring=Q) -> Matrix:
    """[[0, 1_n], [1_n, 0]]; F^2 = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    one, zero = Matrix.identity(n, ring), Matrix.zeros(n, n, ring)
    return Matrix.block([[zero, one], [one, zero]])


def block_I(n: int, ring=Q) -> Matrix:
    """J * F = diag(1_n, -1_n)."""
    return block_Ipq(n, n, ring)


# -- exact row reduction ---------------------------------------------------


def _primitive(row: list) -> list:
    """The row divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _echelon(vectors, ncols: int):
    """Fraction-free Gauss-Jordan elimination of vectors (of Fractions or
    ints), with pivots taken from the first ``ncols`` columns.

    Each vector is scaled by the lcm of its denominators, which keeps the
    span.  Row i is cleared at pivot row r by a * row_i - b * row_r (a = pv/g,
    b = f/g, g = gcd(pv, f) for the pivot pv and the entry f) and divided by
    its content.  Returns (rows, pivots): the rows with a pivot, each the
    unique primitive integer multiple of its RREF row with a positive pivot.
    """
    rows = []
    for v in vectors:
        den = lcm(*(x.denominator for x in v))
        row = _primitive([x.numerator * (den // x.denominator) for x in v])
        if any(row):
            rows.append(row)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                rows[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
    return [r if r[p] > 0 else [-x for x in r] for r, p in zip(rows, pivots)], pivots


def _reduced(rows: list, pivots: list) -> list:
    """The RREF rows of echelon rows, as tuples of Fractions."""
    return [tuple(Fraction(x, r[p]) for x in r) for r, p in zip(rows, pivots)]


def rref(vectors: Iterable[Sequence[Fraction]]):
    """Reduced row echelon form over Q.

    Returns (rows, pivots): the nonzero reduced rows and their pivot columns.
    """
    vectors = list(vectors)
    rows, pivots = _echelon(vectors, len(vectors[0]) if vectors else 0)
    return _reduced(rows, pivots), pivots


class Subspace:
    """A Q-linear subspace of a matrix space, stored as its RREF basis: one
    integer ``Arr`` of shape (dim, N) over the least common denominator and
    the pivot columns, unique and so deciding equality.  Dimensions are
    always Q-dimensions."""

    __slots__ = ("ambient", "pivots", "_int", "_basis", "_matrices")

    def __init__(self, ambient, vectors):
        rows, cols, ring = ambient
        self.ambient = (rows, cols, ring)
        width = rows * cols * ring_components(ring)
        echelon, pivots = _echelon(vectors, width)
        self.pivots = tuple(pivots)
        # RREF row = row / row[pivot] (positive), over the lcm of the pivot entries
        den = lcm(*(r[p] for r, p in zip(echelon, pivots)))
        num = [[x * (den // r[p]) for x in r] for r, p in zip(echelon, pivots)]
        bound = max((abs(x) for r in num for x in r), default=1)
        a = kernel.fit(np.array(num, dtype=object).reshape(len(num), width), bound)
        self._int = kernel.Arr(a, den, bound, ring)
        self._basis = self._matrices = None

    @staticmethod
    def span(matrices: Sequence[Matrix]) -> "Subspace":
        if not matrices:
            raise ValueError("span of an empty family needs an explicit ambient")
        m0 = matrices[0]
        ambient = (m0.rows, m0.cols, m0.ring)
        for m in matrices:
            if (m.rows, m.cols, m.ring) != ambient:
                raise ValueError("ambient mismatch in span")
        return Subspace(ambient, [kernel.int_rows(m.a.ravel()) for m in matrices])

    @staticmethod
    def zero(ambient) -> "Subspace":
        return Subspace(ambient, [])

    @staticmethod
    def full(ambient) -> "Subspace":
        rows, cols, ring = ambient
        n = rows * cols * ring_components(ring)
        return Subspace(ambient, [[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> tuple:
        """The RREF basis vectors, as tuples of Fractions."""
        if self._basis is None:
            self._basis = tuple(_reduced(kernel.int_rows(self._int.a), self.pivots))
        return self._basis

    @property
    def ambient_dim(self) -> int:
        rows, cols, ring = self.ambient
        return rows * cols * ring_components(ring)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")

    def sum(self, *others: "Subspace") -> "Subspace":
        """The sum of this subspace and ``others``: one elimination."""
        for other in others:
            self._check_ambient(other)
        return Subspace(self.ambient, [r for sub in (self, *others) for r in kernel.int_rows(sub._int.a)])

    def coordinates(self, m: Matrix):
        """Coordinates of m in this basis, or None if m is outside the span."""
        if (m.rows, m.cols, m.ring) != self.ambient:
            raise ValueError("ambient mismatch")
        return self.coordinates_vector(m)

    def coordinates_vector(self, vec):
        """Coordinates of the flat vector ``vec`` (a sequence of Fractions or
        ints), or of ``vec`` itself when it is a matrix of the ambient; None
        outside the span (see ``coordinates``): one ``kernel.coordinates``."""
        if not isinstance(vec, Matrix):
            vec = Matrix.unflatten(self.ambient, vec)
        coords, member = self.flat_coordinates(kernel.flatten_last(vec))
        return tuple(Fraction(v, coords.den) for v in kernel.int_rows(coords.a)) if member else None

    def flat_coordinates(self, flat: kernel.Arr):
        """(coords, member): the coordinates (..., dim) in this basis of the
        flat vectors ``flat`` (..., N), and which lie in the span; one
        ``kernel.coordinates`` against the integer RREF rows."""
        return kernel.coordinates(flat, self._int, self.pivots)

    def contains(self, m: Matrix) -> bool:
        return self.coordinates(m) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        _, member = self.flat_coordinates(other._int)
        return bool(member.all())

    def basis_matrices(self):
        """The basis as a fresh list of matrices."""
        if self._matrices is None:
            arr = self.basis_arr()
            self._matrices = tuple(Matrix.from_numerators(arr.ring, a, arr.den) for a in arr.a)
        return list(self._matrices)

    def basis_arr(self) -> kernel.Arr:
        """The basis matrices stacked as an exact tensor (dim, rows, cols, comps)."""
        rows, cols, ring = self.ambient
        b = self._int
        return kernel.Arr(b.a.reshape(self.dim, rows, cols, ring_components(ring)), b.den, b.bound, ring)

    def from_coordinates(self, coords) -> Matrix:
        """The combination of the basis with these coordinates (Fractions or
        ints): one integer product against the integer basis."""
        b = self._int
        c, den = _numerators(coords)
        # covers the basis as well when every coordinate is 0
        bound = max([1, *map(abs, c)]) * b.bound * len(c)
        vec = kernel.fit(np.array(c, dtype=object), bound) @ kernel.fit(b.a, bound)
        return Matrix.from_numerators(b.ring, vec.reshape(self.ambient[:2] + (-1,)), den * b.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return ((self.ambient, self.pivots, self._int.den) == (other.ambient, other.pivots, other._int.den)
                and bool((self._int.a == other._int.a).all()))

    def __hash__(self):
        return hash((self.ambient, self.pivots, self._int.den))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient[0]}x{self.ambient[1]} {self.ambient[2]})"
