"""Dense matrices over the exact scalar rings, plus exact Q-linear subspace
arithmetic (span, sum, intersection, membership) on flattened coordinates.

A ``Matrix`` is a (rows, cols, k) numpy ``object`` array of Python-int
numerators of its k Q-coordinates per entry, over one positive denominator,
in lowest terms: equal matrices have equal arrays.  Sums, scalings,
conjugations and transposes are array operations; a product is one
``kernel.ring_product`` against the right regular representation of the
right factor, series rings included (``kernel.mult_tensor``).  ``Scalar``
entries are only built for the views ``m[i, j]`` and ``entries``.  Every
elimination (``rref``, ``nullspace``, ``Subspace``, ``Matrix.inverse``) is
one fraction-free Gauss-Jordan on rows of Python ints (``_echelon``, after
E. H. Bareiss, Math. Comp. 22 (1968)); only returned values become
``Fraction``s.  Subspace bases are in reduced row echelon form, so equality
of subspaces is a syntactic comparison, and every coordinate and membership
query is one ``kernel.coordinates`` against the cached integer basis.
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


class Matrix:
    """An immutable rows x cols matrix with entries in a single scalar ring:
    ``num / den`` with ``num`` of shape (rows, cols, ring_components(ring))."""

    __slots__ = ("rows", "cols", "ring", "num", "den")

    def __init__(self, rows: int, cols: int, ring, entries: Sequence[Scalar]):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        for e in entries:
            if e.ring != ring:
                raise ValueError("mixed rings in matrix entries")
        num, den = _numerators([c for e in entries for c in e.flatten()])
        self._set(ring, np.array(num, dtype=object).reshape(rows, cols, ring_components(ring)), den)

    def _set(self, ring, num: np.ndarray, den: int):
        if num.shape[0] <= 0 or num.shape[1] <= 0:
            raise ValueError("matrix dimensions must be positive")
        self.rows, self.cols, _ = num.shape
        num.flags.writeable = False  # immutable: views of it are shared
        self.ring, self.num, self.den = ring, num, den

    @staticmethod
    def _of(ring, num: np.ndarray, den: int) -> "Matrix":
        """num / den, both already in lowest terms."""
        m = object.__new__(Matrix)
        m._set(ring, num, den)
        return m

    @staticmethod
    def from_numerators(ring, num: np.ndarray, den: int = 1) -> "Matrix":
        """The matrix num / den: ``num`` an ``object`` array of Python ints of
        shape (rows, cols, ring_components(ring)), ``den`` > 0."""
        g = gcd(den, *num.ravel().tolist())
        return Matrix._of(ring, num if g == 1 else num // g, den // g)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int, ring) -> "Matrix":
        return Matrix._of(ring, np.zeros((rows, cols, ring_components(ring)), dtype=object), 1)

    @staticmethod
    def identity(n: int, ring) -> "Matrix":
        num = np.zeros((n, n, ring_components(ring)), dtype=object)
        num[range(n), range(n), 0] = 1
        return Matrix._of(ring, num, 1)

    @staticmethod
    def elementary(rows: int, cols: int, i: int, j: int, ring, value: Scalar | None = None) -> "Matrix":
        """value * E_ij (value defaults to 1)."""
        ents = [Scalar.zero(ring)] * (rows * cols)
        ents[i * cols + j] = Scalar.one(ring) if value is None else value
        return Matrix(rows, cols, ring, ents)

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
        n = len(values)
        return Matrix.from_rows(ring, [[v if i == j else 0 for j in range(n)] for i, v in enumerate(values)])

    @staticmethod
    def block(rows: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """The block matrix with these rows of blocks over one ring."""
        den = lcm(*(m.den for row in rows for m in row))
        num = np.concatenate([np.concatenate([m.num * (den // m.den) for m in row], axis=1) for row in rows])
        return Matrix.from_numerators(rows[0][0].ring, num, den)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return Scalar.unflatten(self.ring, [Fraction(v, self.den) for v in self.num[i, j].tolist()])

    @property
    def entries(self) -> tuple:
        """The entries, row by row, as Scalars."""
        return tuple(self[i, j] for i in range(self.rows) for j in range(self.cols))

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, over the lcm of the denominators."""
        if (self.rows, self.cols, self.ring) != (other.rows, other.cols, other.ring):
            raise ValueError("shape or ring mismatch")
        den = lcm(self.den, other.den)
        num = self.num * (den // self.den) + other.num * (sign * den // other.den)
        return Matrix.from_numerators(self.ring, num, den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.ring, -self.num, self.den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise ValueError("ring mismatch in product")
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        return Matrix.from_numerators(self.ring, kernel.ring_product(self.num, other.num, self.ring),
                                      self.den * other.den)

    def scale(self, r) -> "Matrix":
        """Multiply every entry by a central rational."""
        r = Fraction(r)
        return Matrix.from_numerators(self.ring, self.num * r.numerator, self.den * r.denominator)

    def scalar_mul(self, s: Scalar, side: str = "left") -> "Matrix":
        """s * X (side "left") or X * s, entrywise: a product with the entries
        as a 1 x (rows cols) row resp. (rows cols) x 1 column."""
        num, den = _numerators(s.flatten())
        s1 = np.array(num, dtype=object).reshape(1, 1, -1)
        flat = self.num.reshape(1, -1, self.num.shape[-1])
        out = (kernel.ring_product(s1, flat, self.ring) if side == "left"
               else kernel.ring_product(flat.swapaxes(0, 1), s1, self.ring))
        return Matrix.from_numerators(self.ring, out.reshape(self.num.shape), self.den * den)

    def transpose(self) -> "Matrix":
        return Matrix._of(self.ring, self.num.transpose(1, 0, 2), self.den)

    def conjugate(self, kind: str) -> "Matrix":
        """Entrywise base involution, or phi (conjugation by the quaternion j):
        a component sign pattern of ``kernel.CONJ_SIGNS``."""
        base = self.ring.base if is_series(self.ring) else self.ring
        if (base, kind) not in kernel.CONJ_SIGNS:
            raise ValueError(f"base involution {kind!r} is not defined over {base}")
        signs = kernel.CONJ_SIGNS[(base, kind)]
        signs = np.array(signs * (self.num.shape[-1] // len(signs)), dtype=object)
        return Matrix._of(self.ring, self.num * signs, self.den)

    def dagger(self, delta: str = "id") -> "Matrix":
        """delta entrywise, then transpose; an antiautomorphism of the algebra."""
        return self.conjugate(delta).transpose()

    def is_zero(self) -> bool:
        return not self.num.any()

    def inverse(self) -> "Matrix":
        """Exact inverse; ``ZeroDivisionError`` if the matrix is singular.

        X is invertible exactly when its left regular representation L(X)
        (nk x nk, the Q-linear map Y -> X Y on n x 1 columns, any ring) has
        rank nk, and Y = X^-1 has Y[i, j]_c = L(X)^-1[(i, c), (j, 0)], as
        component 0 is the unit 1.
        """
        if self.rows != self.cols:
            raise ValueError("only square matrices are invertible")
        n, k = self.rows, self.num.shape[-1]
        # [L(num) | den e_(j, 0) over j]: the right block solves to L(X)^-1 e_(j, 0)
        rows = [r + [self.den if p == j * k else 0 for j in range(n)]
                for p, r in enumerate(kernel.left_rep(self.num, self.ring).reshape(n * k, n * k).tolist())]
        rows, pivots = _echelon(rows, n * k)
        if len(pivots) < n * k:
            raise ZeroDivisionError("matrix is not invertible")
        # row p = (i, c) is now pv e_p | pv L(X)^-1[p, (j, 0)] over j
        den = lcm(*(r[p] for p, r in enumerate(rows)))
        num = np.array([[x * (den // r[p]) for x in r[n * k:]] for p, r in enumerate(rows)], dtype=object)
        return Matrix.from_numerators(self.ring, num.reshape(n, k, n).transpose(0, 2, 1), den)

    # -- flattening --------------------------------------------------------

    def flatten(self) -> tuple:
        """Row-major Q-coordinates (``ring_components`` Fractions per entry)."""
        return tuple(Fraction(v, self.den) for v in self.num.ravel().tolist())

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
        return ((self.rows, self.cols, self.ring, self.den) == (other.rows, other.cols, other.ring, other.den)
                and bool((self.num == other.num).all()))

    def __hash__(self):
        return hash((self.rows, self.cols, self.ring, self.den, tuple(self.num.ravel().tolist())))

    def _texts(self) -> list:
        """The entries as text, row by row."""
        return [[format_components(self.ring, [(v, self.den) for v in e]) for e in row]
                for row in self.num.tolist()]

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


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Canonical basis of the right kernel of the given row list A: the
    combinations (A y, y) of the rows of [A^t | 1] that eliminate to (0, y)."""
    m = len(rows)
    stacked = [[r[c] for r in rows] + [int(c == j) for j in range(ncols)] for c in range(ncols)]
    red, pivots = _echelon(stacked, m + ncols)
    return rref([row[m:] for row, p in zip(red, pivots) if p >= m])[0]


def vector_coordinates(basis: kernel.BasisInt, vec, den: int = 1):
    """Coordinates of the vector vec / den (``vec`` of Fractions or ints) in
    the RREF basis, or None if it is outside the span: one
    ``kernel.coordinates``."""
    num, d = _numerators(vec)
    flat = kernel.Arr(np.array([num], dtype=object), d * den, 1, None).actual_bound()
    coords, member = kernel.coordinates(flat, basis)
    return tuple(Fraction(v, coords.den) for v in kernel.int_rows(coords.a)[0]) if member[0] else None


class Subspace:
    """A Q-linear subspace of a matrix space, stored as the echelon rows of
    ``_echelon`` (RREF basis vector = row / row[pivot]), unique and so
    deciding equality.  Dimensions are always Q-dimensions."""

    __slots__ = ("ambient", "pivots", "echelon", "_basis", "_matrices", "_int")

    def __init__(self, ambient, vectors):
        rows, cols, ring = ambient
        self.ambient = (rows, cols, ring)
        echelon, pivots = _echelon(vectors, rows * cols * ring_components(ring))
        self.echelon = tuple(map(tuple, echelon))
        self.pivots = tuple(pivots)
        self._basis = self._matrices = self._int = None

    @staticmethod
    def span(matrices: Sequence[Matrix]) -> "Subspace":
        if not matrices:
            raise ValueError("span of an empty family needs an explicit ambient")
        m0 = matrices[0]
        ambient = (m0.rows, m0.cols, m0.ring)
        for m in matrices:
            if (m.rows, m.cols, m.ring) != ambient:
                raise ValueError("ambient mismatch in span")
        return Subspace(ambient, [m.num.ravel().tolist() for m in matrices])

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
            self._basis = tuple(_reduced(self.echelon, self.pivots))
        return self._basis

    def ambient_dim(self) -> int:
        rows, cols, ring = self.ambient
        return rows * cols * ring_components(ring)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient, self.echelon + other.echelon)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus intersection: reduce [U|U] stacked on [W|0]."""
        self._check_ambient(other)
        n = self.ambient_dim()
        stacked = [list(v + v) for v in self.echelon] + [list(v) + [0] * n for v in other.echelon]
        red, pivots = _echelon(stacked, 2 * n)
        return Subspace(self.ambient, [row[n:] for row, p in zip(red, pivots) if p >= n])

    def coordinates(self, m: Matrix):
        """Coordinates of m in this basis, or None if m is outside the span."""
        if (m.rows, m.cols, m.ring) != self.ambient:
            raise ValueError("ambient mismatch")
        return self.coordinates_vector(m.num.ravel(), m.den)

    def coordinates_vector(self, vec, den: int = 1):
        """Coordinates of the flat vector vec / den, or None (see ``coordinates``)."""
        return vector_coordinates(self.basis_int(), vec, den)

    def contains(self, m: Matrix) -> bool:
        return self.coordinates(m) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        b = other.basis_int()
        _, member = kernel.coordinates(kernel.Arr(b.num, b.den, b.bound, None), self.basis_int())
        return bool(member.all())

    def basis_matrices(self):
        """The basis as a fresh list of matrices."""
        if self._matrices is None:
            shape, ring = self.ambient[:2] + (-1,), self.ambient[2]
            self._matrices = tuple(Matrix.from_numerators(ring, np.array(r, dtype=object).reshape(shape), r[p])
                                   for r, p in zip(self.echelon, self.pivots))
        return list(self._matrices)

    def basis_int(self) -> kernel.BasisInt:
        """The RREF basis as integer numerators over one denominator."""
        if self._int is None:
            self._int = kernel.BasisInt(self.echelon, self.pivots, self.ambient_dim())
        return self._int

    def basis_arr(self) -> kernel.Arr:
        """The basis matrices stacked as an exact tensor (dim, rows, cols, comps)."""
        b = self.basis_int()
        rows, cols, ring = self.ambient
        return kernel.Arr(b.num.reshape(self.dim, rows, cols, ring_components(ring)), b.den, b.bound, ring)

    def from_coordinates(self, coords) -> Matrix:
        """The combination of the basis with these coordinates (Fractions or
        ints): one integer product against the integer basis."""
        b = self.basis_int()
        c, den = _numerators(coords)
        bound = max(map(abs, c), default=0) * b.bound * len(c)
        vec = kernel.fit(np.array(c, dtype=object), bound) @ kernel.fit(b.num, bound)
        rows, cols, ring = self.ambient
        num = np.array(kernel.int_rows(vec), dtype=object).reshape(rows, cols, -1)
        return Matrix.from_numerators(ring, num, den * b.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.echelon == other.echelon

    def __hash__(self):
        return hash((self.ambient, self.echelon))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient[0]}x{self.ambient[1]} {self.ambient[2]})"
