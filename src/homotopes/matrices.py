"""Dense matrices over the exact scalar rings, plus exact Q-linear subspace
arithmetic (span, sum, intersection, membership) on flattened coordinates.

Over Q, Q(i) and the rational quaternions ``Matrix`` products run on exact
Python-int numerators over one common denominator (``kernel.ring_matmul``);
series rings multiply entry by entry.  Every elimination (``rref``,
``nullspace``, ``Subspace``, ``Matrix.inverse``) is one fraction-free
Gauss-Jordan on rows of Python ints (``_echelon``, after E. H. Bareiss,
Math. Comp. 22 (1968)); only returned values become ``Fraction``s.  Subspace
bases are in reduced row echelon form, so equality of subspaces is a
syntactic comparison, and every coordinate and membership query is one
``kernel.coordinates`` against the cached integer basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

from . import kernel
from .scalars import HQ, Q, QI, Scalar, format_scalar, is_series, parse_scalar, ring_components


class Matrix:
    """An immutable rows x cols matrix with entries in a single scalar ring."""

    __slots__ = ("rows", "cols", "ring", "entries")

    def __init__(self, rows: int, cols: int, ring, entries: Sequence[Scalar]):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        for e in entries:
            if e.ring != ring:
                raise ValueError("mixed rings in matrix entries")
        self.rows = rows
        self.cols = cols
        self.ring = ring
        self.entries = entries

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int, ring) -> "Matrix":
        z = Scalar.zero(ring)
        return Matrix(rows, cols, ring, (z,) * (rows * cols))

    @staticmethod
    def identity(n: int, ring) -> "Matrix":
        z, o = Scalar.zero(ring), Scalar.one(ring)
        return Matrix(n, n, ring, tuple(o if i == j else z for i in range(n) for j in range(n)))

    @staticmethod
    def elementary(rows: int, cols: int, i: int, j: int, ring, value: Scalar | None = None) -> "Matrix":
        """value * E_ij (value defaults to 1)."""
        value = Scalar.one(ring) if value is None else value
        z = Scalar.zero(ring)
        ents = [z] * (rows * cols)
        ents[i * cols + j] = value
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
        m = Matrix.zeros(n, n, ring)
        ents = list(m.entries)
        for i, v in enumerate(values):
            ents[i * n + i] = v if isinstance(v, Scalar) else Scalar.from_rational(ring, v)
        return Matrix(n, n, ring, ents)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.entries[i * self.cols + j]

    def shape(self):
        return (self.rows, self.cols)

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    # -- arithmetic --------------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if (self.rows, self.cols, self.ring) != (other.rows, other.cols, other.ring):
            raise ValueError("shape or ring mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, self.ring, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, self.ring, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, self.ring, tuple(-a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise ValueError("ring mismatch in product")
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        if is_series(self.ring):
            out = []
            for i in range(self.rows):
                lrow = self.row(i)
                for j in range(other.cols):
                    acc = Scalar.zero(self.ring)
                    for k in range(self.cols):
                        acc = acc + lrow[k] * other[k, j]
                    out.append(acc)
            return Matrix(self.rows, other.cols, self.ring, out)
        (x,), dx = kernel.fraction_matrix_to_ints([self.flatten()])
        (y,), dy = kernel.fraction_matrix_to_ints([other.flatten()])
        num = kernel.ring_matmul(x, y, self.rows, self.cols, other.cols, self.ring)
        den = dx * dy
        if den != 1:
            num = [Fraction(v, den) for v in num]
        return Matrix.unflatten((self.rows, other.cols, self.ring), num)

    def scale(self, r) -> "Matrix":
        """Multiply every entry by a central rational."""
        return Matrix(self.rows, self.cols, self.ring, tuple(e.scale(r) for e in self.entries))

    def scalar_mul(self, s: Scalar, side: str = "left") -> "Matrix":
        ents = tuple((s * e) if side == "left" else (e * s) for e in self.entries)
        return Matrix(self.rows, self.cols, self.ring, ents)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, self.ring, tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)))

    def map_entries(self, fn) -> "Matrix":
        return Matrix(self.rows, self.cols, self.ring, tuple(fn(e) for e in self.entries))

    def conjugate(self, kind: str) -> "Matrix":
        """Entrywise base involution."""
        return self.map_entries(lambda e: e.conjugate(kind))

    def dagger(self, delta: str = "id") -> "Matrix":
        """delta entrywise, then transpose; an antiautomorphism of the algebra."""
        return self.conjugate(delta).transpose()

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def inverse(self) -> "Matrix":
        """Exact inverse; ``ZeroDivisionError`` if the matrix is singular.

        Over Q, Q(i) and HQ (k components) X is invertible exactly when its
        left regular representation L(X) (nk x nk, on Q-coordinates) has rank
        nk, and Y = X^-1 has Y[i, j]_c = L(X)^-1[(i, c), (j, 0)].  Over a
        series ring X = X0 + N, N nilpotent: X^-1 = (1 + U + U^2 + ...) X0^-1
        with U = 1 - X0^-1 X.
        """
        if self.rows != self.cols:
            raise ValueError("only square matrices are invertible")
        n = self.rows
        if is_series(self.ring):
            x0inv = Matrix(n, n, self.ring.base, [e.coefficient((0, 0)) for e in self.entries]).inverse()
            lift = Matrix(n, n, self.ring, [Scalar(self.ring, {(0, 0): e}) for e in x0inv.entries])
            u = Matrix.identity(n, self.ring) - lift @ self
            out = term = lift
            while not term.is_zero():
                term = u @ term
                out = out + term
            return out
        left = kernel.LEFT_MULT[self.ring]
        k = len(left)
        (x,), dx = kernel.fraction_matrix_to_ints([self.flatten()])
        # row (i, c) of L(X) * dx: s * x[i, j]_a at column (j, b), (a, s) = left[c][b]
        rows = [[s * x[(i * n + j) * k + a] for j in range(n) for a, s in left[c]]
                + [dx if (i, c) == (j, 0) else 0 for j in range(n)]
                for i in range(n) for c in range(k)]
        rows, pivots = _echelon(rows, n * k)
        if len(pivots) < n * k:
            raise ZeroDivisionError("matrix is not invertible")
        # row (i, c) is now pv e_(i, c) | pv L(X)^-1[(i, c), (j, 0)] over j
        return Matrix.unflatten((n, n, self.ring), [
            Fraction(rows[i * k + c][n * k + j], rows[i * k + c][i * k + c])
            for i in range(n) for j in range(n) for c in range(k)])

    # -- flattening --------------------------------------------------------

    def flatten(self) -> tuple:
        """Row-major Q-coordinates; complex entries give 2, quaternionic 4."""
        out = []
        for e in self.entries:
            out.extend(e.flatten())
        return tuple(out)

    @staticmethod
    def unflatten(ambient, vec: Sequence) -> "Matrix":
        rows, cols, ring = ambient
        k = ring_components(ring)
        if len(vec) != rows * cols * k:
            raise ValueError("coordinate vector has wrong length")
        ents = [Scalar.unflatten(ring, vec[p * k : (p + 1) * k]) for p in range(rows * cols)]
        return Matrix(rows, cols, ring, ents)

    # -- comparison / JSON -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.ring) == (other.rows, other.cols, other.ring) and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.ring, self.entries))

    def __repr__(self):
        if is_series(self.ring):
            return f"Matrix({self.rows}x{self.cols}, series)"
        body = "; ".join(",".join(format_scalar(self[i, j]) for j in range(self.cols)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols} {self.ring}: {body})"

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "ring": self.ring,
            "entries": [[format_scalar(self[i, j]) for j in range(self.cols)] for i in range(self.rows)],
        }

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
    m = Matrix.zeros(2 * n, 2 * n, ring)
    ents = list(m.entries)
    one, mone = Scalar.one(ring), Scalar.from_rational(ring, -1)
    for i in range(n):
        ents[i * 2 * n + (n + i)] = one
        ents[(n + i) * 2 * n + i] = mone
    return Matrix(2 * n, 2 * n, ring, ents)


def block_F(n: int, ring=Q) -> Matrix:
    """[[0, 1_n], [1_n, 0]]; F^2 = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = Matrix.zeros(2 * n, 2 * n, ring)
    ents = list(m.entries)
    one = Scalar.one(ring)
    for i in range(n):
        ents[i * 2 * n + (n + i)] = one
        ents[(n + i) * 2 * n + i] = one
    return Matrix(2 * n, 2 * n, ring, ents)


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


def vector_coordinates(basis: kernel.BasisInt, vec):
    """Coordinates of the vector ``vec`` (Fractions or ints) in the RREF
    basis, or None if it is outside the span: one ``kernel.coordinates``."""
    coords, member = kernel.coordinates(kernel.Arr.from_rows([vec], (1, len(vec)), None), basis)
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
        return Subspace(ambient, [m.flatten() for m in matrices])

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
        return self.coordinates_vector(m.flatten())

    def coordinates_vector(self, vec):
        return vector_coordinates(self.basis_int(), vec)

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
            self._matrices = tuple(Matrix.unflatten(self.ambient, v) for v in self.basis)
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
        (c,), den = kernel.fraction_matrix_to_ints([coords])
        bound = max(map(abs, c), default=0) * b.bound * len(c)
        vec = kernel.fit(np.array(c, dtype=object), bound) @ kernel.fit(b.num, bound)
        return Matrix.unflatten(self.ambient, [Fraction(v, den * b.den) for v in kernel.int_rows(vec)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.echelon == other.echelon

    def __hash__(self):
        return hash((self.ambient, self.echelon))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient[0]}x{self.ambient[1]} {self.ambient[2]})"
