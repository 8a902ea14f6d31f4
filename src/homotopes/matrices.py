"""Dense matrices over the exact scalar rings, plus exact Q-linear subspace
arithmetic (span, sum, intersection, membership) on flattened coordinates.

Over Q, Q(i) and the rational quaternions ``Matrix`` products run on exact
Python-int numerators over one common denominator (``kernel.ring_matmul``);
series rings multiply entry by entry.

Subspace bases are kept in reduced row echelon form, so equality of subspaces
is a syntactic comparison and coordinates in a basis are read off pivot
columns.  A subspace builds its basis matrices and integer basis once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

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
        """Exact inverse by Gaussian elimination (works over skew fields and
        over series rings whose pivots are invertible)."""
        if self.rows != self.cols:
            raise ValueError("only square matrices are invertible")
        n = self.rows
        a = [list(self.row(i)) + list(Matrix.identity(n, self.ring).row(i)) for i in range(n)]
        for col in range(n):
            piv = None
            for r in range(col, n):
                try:
                    inv = a[r][col].inverse()
                except ZeroDivisionError:
                    continue
                piv = r
                break
            if piv is None:
                raise ZeroDivisionError("matrix is not invertible")
            a[col], a[piv] = a[piv], a[col]
            pinv = inv
            a[col] = [pinv * x for x in a[col]]
            for r in range(n):
                if r == col or a[r][col].is_zero():
                    continue
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return Matrix(n, n, self.ring, [a[i][n + j] for i in range(n) for j in range(n)])

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


def linear_map_ints(fn, ambient):
    """A Q-linear map on a matrix space as a matrix on flattened coordinates:
    (numerators listed row by row, den), where column b is the flattened image
    of the b-th unit matrix."""
    rows, cols, ring = ambient
    n = rows * cols * ring_components(ring)
    images = [fn(Matrix.unflatten(ambient, [int(i == b) for i in range(n)])).flatten() for b in range(n)]
    (num,), den = kernel.fraction_matrix_to_ints([[v[r] for r in range(len(images[0])) for v in images]])
    return num, den


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


def rref(vectors: Iterable[Sequence[Fraction]]):
    """Reduced row echelon form over Q.

    Returns (rows, pivots): the nonzero reduced rows and their pivot columns.
    """
    rows = [list(map(Fraction, v)) for v in vectors]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
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


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Canonical basis of the right kernel of the given row list."""
    red, pivots = rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    red_basis, _ = rref(basis)
    return red_basis


def rref_coordinates(basis, pivots, vec):
    """Coordinates of vec in an RREF basis (read off the pivot columns), or
    None if vec is outside the span."""
    coords = [vec[p] for p in pivots]
    for c in range(len(vec)):
        if sum((x * row[c] for x, row in zip(coords, basis)), Fraction(0)) != vec[c]:
            return None
    return tuple(coords)


class Subspace:
    """A Q-linear subspace of a matrix space, stored as an RREF basis of
    flattened coordinate vectors.  Dimensions are always Q-dimensions."""

    __slots__ = ("ambient", "basis", "pivots", "_matrices", "_int")

    def __init__(self, ambient, basis, pivots=None):
        rows, cols, ring = ambient
        self.ambient = (rows, cols, ring)
        if pivots is None:
            basis, pivots = rref(basis)
        self.basis = tuple(tuple(v) for v in basis)
        self.pivots = tuple(pivots)
        self._matrices = None
        self._int = None

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
        basis = [tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)]
        return Subspace(ambient, basis, list(range(n)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def ambient_dim(self) -> int:
        rows, cols, ring = self.ambient
        return rows * cols * ring_components(ring)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus intersection: reduce [U|U] stacked on [W|0]."""
        self._check_ambient(other)
        n = self.ambient_dim()
        stacked = [list(v) + list(v) for v in self.basis] + [list(v) + [Fraction(0)] * n for v in other.basis]
        red, _ = rref(stacked)
        inter = [row[n:] for row in red if all(x == 0 for x in row[:n])]
        return Subspace(self.ambient, inter)

    def coordinates(self, m: Matrix):
        """Coordinates of m in this basis, or None if m is outside the span."""
        if (m.rows, m.cols, m.ring) != self.ambient:
            raise ValueError("ambient mismatch")
        return self.coordinates_vector(m.flatten())

    def coordinates_vector(self, vec):
        return rref_coordinates(self.basis, self.pivots, vec)

    def contains(self, m: Matrix) -> bool:
        return self.coordinates(m) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.coordinates_vector(v) is not None for v in other.basis)

    def basis_matrices(self):
        """The basis as a fresh list of matrices."""
        if self._matrices is None:
            self._matrices = tuple(Matrix.unflatten(self.ambient, v) for v in self.basis)
        return list(self._matrices)

    def basis_int(self) -> kernel.BasisInt:
        """The RREF basis as integer numerators over one denominator."""
        if self._int is None:
            self._int = kernel.BasisInt(self.basis, self.pivots)
        return self._int

    def basis_arr(self) -> kernel.Arr:
        """The basis matrices stacked as an exact tensor (dim, rows, cols, comps)."""
        b = self.basis_int()
        rows, cols, ring = self.ambient
        return kernel.Arr(b.num.reshape(self.dim, rows, cols, ring_components(ring)), b.den, b.bound, ring)

    def from_coordinates(self, coords) -> Matrix:
        n = self.ambient_dim()
        vec = [Fraction(0)] * n
        for x, row in zip(coords, self.basis):
            x = Fraction(x)
            if x:
                for c in range(n):
                    vec[c] += x * row[c]
        return Matrix.unflatten(self.ambient, vec)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient[0]}x{self.ambient[1]} {self.ambient[2]})"
