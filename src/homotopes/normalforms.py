"""Exact normal forms of parameter matrices under the equivalences that leave
the induced triple systems isomorphic.

* rectangular: A -> g1 A g2 with invertible g1, g2; normal form is a 0/1
  diagonal (rank ones leading).  Over Q, Q(i) and the rational quaternions.
* symmetric / hermitian: congruence A -> g A star(g) with star(g) = g^t resp.
  conj(g)^t; normal form is a diagonal of squarefree integers (reduced as far
  as square scaling over Q allows; over R this would be 0/+1/-1, and the sign
  pattern is reported).  Symmetric over Q, hermitian over Q(i).
* skew (over Q and Q(i)): congruence to the standard block diagonal
  diag(J, ..., J, 0), J = [[0, 1], [-1, 0]].

Inputs over other rings are rejected with ``ValueError``: the congruence
reduction reads the diagonal as rational, and over the quaternions the
transpose is no anti-automorphism.

Every witness is verified exactly, and the witness induces an explicit
isomorphism of the deformed triple systems: X -> g2 X g1 (rectangular) or
X -> star(g) X g (congruence), both instances of the S X T homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .homotope import AlphaMap, intertwines
from .matrices import Matrix, Subspace
from .scalars import HQ, Q, QI, Scalar

_KINDS = ("rectangular", "symmetric", "skew", "hermitian")


def _squarefree(n: int) -> tuple:
    """(s, f) with n = s^2 * f, f squarefree (n > 0)."""
    s, f, d = 1, 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s *= d ** (e // 2)
        f *= d ** (e % 2)
        d += 1
    return s, f * n


@dataclass
class NormalForm:
    kind: str
    input: Matrix
    normal: Matrix
    witness: dict              # name -> Matrix
    signs: tuple | None        # sign pattern of the diagonal (congruence kinds)
    verified: bool

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "input": self.input.to_json(),
            "normal_form": self.normal.to_json(),
            "witness": {k: v.to_json() for k, v in self.witness.items()},
            "signs": list(self.signs) if self.signs is not None else None,
            "verified": self.verified,
        }


# -- elimination on mutable scalar grids ------------------------------------


class _Grid:
    """A mutable square matrix of scalars supporting congruence-style row and
    column operations mirrored on an accumulated transform g."""

    def __init__(self, m: Matrix):
        self.ring = m.ring
        self.rows = [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]

    def matrix(self, nrows, ncols) -> Matrix:
        return Matrix.from_rows(self.ring, [row[:ncols] for row in self.rows[:nrows]])


def _row_swap(g, i, j):
    g.rows[i], g.rows[j] = g.rows[j], g.rows[i]


def _row_scale(g, i, c: Scalar):
    g.rows[i] = [c * x for x in g.rows[i]]


def _row_add(g, i, j, c: Scalar):
    """row_i += c * row_j."""
    g.rows[i] = [x + c * y for x, y in zip(g.rows[i], g.rows[j])]


def _col_swap(g, i, j):
    for row in g.rows:
        row[i], row[j] = row[j], row[i]


def _col_add(g, i, j, c: Scalar):
    """col_i += col_j * c (right multiplication)."""
    for row in g.rows:
        row[i] = row[i] + row[j] * c


def rectangular_normal_form(a: Matrix) -> NormalForm:
    m, n, ring = a.rows, a.cols, a.ring
    d = _Grid(a)
    g1 = _Grid(Matrix.identity(m, ring))
    g2 = _Grid(Matrix.identity(n, ring))
    rank = 0
    while True:
        pivot = next(((i, j) for i in range(rank, m) for j in range(rank, n)
                      if not d.rows[i][j].is_zero()), None)
        if pivot is None:
            break
        i, j = pivot
        if i != rank:
            _row_swap(d, i, rank), _row_swap(g1, i, rank)
        if j != rank:
            _col_swap(d, j, rank), _col_swap(g2, j, rank)
        c = d.rows[rank][rank].inverse()
        _row_scale(d, rank, c), _row_scale(g1, rank, c)
        for k in range(m):
            if k != rank and not d.rows[k][rank].is_zero():
                f = -d.rows[k][rank]
                _row_add(d, k, rank, f), _row_add(g1, k, rank, f)
        for k in range(n):
            if k != rank and not d.rows[rank][k].is_zero():
                f = -d.rows[rank][k]
                _col_add(d, k, rank, f), _col_add(g2, k, rank, f)
        rank += 1
    nf = d.matrix(m, n)
    w1, w2 = g1.matrix(m, m), g2.matrix(n, n)
    verified = (w1 @ a @ w2 == nf and _is_01_diagonal(nf, rank))
    return NormalForm("rectangular", a, nf, {"g1": w1, "g2": w2}, None, verified)


def _is_01_diagonal(nf: Matrix, rank: int) -> bool:
    want = np.zeros(nf.a.shape)
    want[range(rank), range(rank), 0] = 1
    return nf == Matrix.from_numerators(nf.ring, want)


def _congruence_normal_form(a: Matrix, delta: str, kind: str) -> NormalForm:
    n, ring = a.rows, a.ring
    if a.dagger(delta) != a:
        raise ValueError(f"{kind} normal form needs a star-symmetric input")
    g = _Grid(Matrix.identity(n, ring))

    def current():
        gm = g.matrix(n, n)
        return _Grid(gm @ a @ gm.dagger(delta)), gm

    d, _ = current()
    for i in range(n):
        if d.rows[i][i].is_zero():
            j = next((j for j in range(i + 1, n) if not d.rows[j][j].is_zero()), None)
            if j is not None:
                _row_swap(g, i, j)
                d, _ = current()
            else:
                j = next((j for j in range(i + 1, n) if not d.rows[i][j].is_zero()), None)
                if j is None:
                    continue
                # remaining diagonal is zero: row_i += w row_j makes the
                # diagonal entry 2|w|^2 with w = d_ij
                _row_add(g, i, j, d.rows[i][j])
                d, _ = current()
        for j in range(i + 1, n):
            if not d.rows[j][i].is_zero():
                _row_add(g, j, i, -(d.rows[j][i] * d.rows[i][i].inverse()))
        d, _ = current()
    # sort nonzero diagonal first, then reduce square factors
    order = sorted(range(n), key=lambda i: d.rows[i][i].is_zero())
    perm = Matrix.from_rows(ring, [[Scalar.one(ring) if j == order[i] else Scalar.zero(ring)
                                    for j in range(n)] for i in range(n)])
    g = _Grid(perm @ g.matrix(n, n))
    d, _ = current()
    signs = []
    for i in range(n):
        entry = d.rows[i][i]
        if entry.is_zero():
            signs.append(0)
            continue
        val = entry.flatten()[0]     # diagonal is rational (real) here
        s, f = _squarefree(abs(val.numerator * val.denominator))
        _row_scale(g, i, Scalar.from_rational(ring, Fraction(val.denominator, s)))
        signs.append(1 if val > 0 else -1)
    d, gm = current()
    nf = d.matrix(n, n)
    verified = gm @ a @ gm.dagger(delta) == nf and _is_reduced_diagonal(nf, tuple(signs))
    return NormalForm(kind, a, nf, {"g": gm}, tuple(signs), verified)


def _is_reduced_diagonal(nf: Matrix, signs: tuple) -> bool:
    for i in range(nf.rows):
        for j in range(nf.cols):
            e = nf[i, j]
            if i != j:
                if not e.is_zero():
                    return False
                continue
            comps = e.flatten()
            if any(c != 0 for c in comps[1:]):
                return False
            val = comps[0]
            if (val == 0) != (signs[i] == 0) or (val != 0 and (val > 0) != (signs[i] > 0)):
                return False
            if val != 0:
                if val.denominator != 1 or _squarefree(abs(val.numerator))[0] != 1:
                    return False
    return True


def symmetric_normal_form(a: Matrix) -> NormalForm:
    if a.ring != Q:
        raise ValueError(f"symmetric normal form needs a matrix over Q, got {a.ring}")
    return _congruence_normal_form(a, "id", "symmetric")


def hermitian_normal_form(a: Matrix) -> NormalForm:
    if a.ring not in (Q, QI):
        raise ValueError(f"hermitian normal form needs a matrix over Q or QI, got {a.ring}")
    return _congruence_normal_form(a, "conj", "hermitian")


def skew_normal_form(a: Matrix) -> NormalForm:
    n, ring = a.rows, a.ring
    if ring == HQ:
        raise ValueError("skew normal form is not defined over the quaternions")
    if a.transpose() != -a:
        raise ValueError("skew normal form needs a skew-symmetric input")
    g = _Grid(Matrix.identity(n, ring))

    def current():
        gm = g.matrix(n, n)
        return _Grid(gm @ a @ gm.transpose()), gm

    d, _ = current()
    pos = 0
    while pos + 1 < n:
        pivot = next(((i, j) for i in range(pos, n) for j in range(i + 1, n)
                      if not d.rows[i][j].is_zero()), None)
        if pivot is None:
            break
        i, j = pivot
        if i != pos:
            _row_swap(g, i, pos)
            d, _ = current()
        if j != pos + 1:
            _row_swap(g, j, pos + 1)
            d, _ = current()
        _row_scale(g, pos, d.rows[pos][pos + 1].inverse())
        d, _ = current()
        for k in range(pos + 2, n):
            ck = d.rows[pos][k]
            if not ck.is_zero():
                _row_add(g, k, pos + 1, -ck)    # clears d[pos][k]
        d, _ = current()
        for k in range(pos + 2, n):
            ck = d.rows[pos + 1][k]
            if not ck.is_zero():
                _row_add(g, k, pos, ck)         # clears d[pos+1][k]
        d, _ = current()
        pos += 2
    nf, gm = None, g.matrix(n, n)
    nf = gm @ a @ gm.transpose()
    verified = _is_standard_skew(nf, pos // 2)
    return NormalForm("skew", a, nf, {"g": gm}, None, verified)


def _is_standard_skew(nf: Matrix, blocks: int) -> bool:
    want = np.zeros(nf.a.shape)
    want[range(0, 2 * blocks, 2), range(1, 2 * blocks, 2), 0] = 1
    want[range(1, 2 * blocks, 2), range(0, 2 * blocks, 2), 0] = -1
    return nf == Matrix.from_numerators(nf.ring, want)


def normal_form(a: Matrix, kind: str) -> NormalForm:
    if kind == "rectangular":
        return rectangular_normal_form(a)
    if kind == "symmetric":
        return symmetric_normal_form(a)
    if kind == "hermitian":
        return hermitian_normal_form(a)
    if kind == "skew":
        return skew_normal_form(a)
    raise ValueError(f"unknown normal-form kind {kind!r}; expected one of {_KINDS}")


# -- induced triple-system isomorphisms -------------------------------------


def intertwiner(nf: NormalForm):
    """The isomorphism psi from the system deformed by the normal form to the
    system deformed by the input parameter, as a declared ``AlphaMap``."""
    if nf.kind == "rectangular":
        return AlphaMap(nf.witness["g2"], nf.witness["g1"], name="psi")
    g = nf.witness["g"]
    delta = {"symmetric": "id", "hermitian": "conj", "skew": "id"}[nf.kind]
    return AlphaMap(g.dagger(delta), g, name="psi")


def intertwiner_check(nf: NormalForm, space: Subspace) -> bool:
    """psi([X,Y,Z]_{normal}) = [psi X, psi Y, psi Z]_{input} on all basis
    triples of the carrier space, exactly."""
    return intertwines(intertwiner(nf), space.basis_matrices(), nf.normal, nf.input)
