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

Inputs over other rings, series rings included, are rejected with
``ValueError``: the congruence reduction reads the diagonal as rational, over
the quaternions the transpose is no anti-automorphism, and every kind divides
by its pivots.

The working matrix and the witnesses are ``Matrix`` values.  Each pivot step
is one product with an elimination matrix E = I + U [e_r, ...]^t
(``_clearing``); row and column swaps permute the numerators.  Every witness
is verified exactly, and the witness induces an explicit isomorphism of the
deformed triple systems: X -> g2 X g1 (rectangular) or X -> star(g) X g
(congruence), both instances of the S X T homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from . import kernel
from .homotope import AlphaMap, intertwines
from .matrices import Matrix, Subspace
from .scalars import HQ, Q, QI

# the rings each kind is defined over, and their names in the error text
_RINGS = {"rectangular": ((Q, QI, HQ), "Q, QI or HQ"), "symmetric": ((Q,), "Q"),
          "skew": ((Q, QI), "Q or QI"), "hermitian": ((Q, QI), "Q or QI")}
_DELTA = {"symmetric": "id", "hermitian": "conj", "skew": "id"}
# the largest trial divisor of _squarefree: every n < 2^60 needs none past it
SQUAREFREE_TRIAL_LIMIT = 2**20


def _squarefree(n: int) -> tuple:
    """(s, f) with n = s^2 * f, f squarefree (n > 0).

    Trial division runs while d^3 <= n.  The cofactor m left then has every
    prime factor >= d > m^(1/3), so at most two of them, and its square part
    is m itself exactly when m is a perfect square.  A cofactor that still
    needs a divisor past SQUAREFREE_TRIAL_LIMIT raises ``ValueError``.
    """
    s, f, d = 1, 1, 2
    while d * d * d <= n:
        if d > SQUAREFREE_TRIAL_LIMIT:
            raise ValueError(f"entry too large for the squarefree reduction: trial division past {d - 1}")
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s *= d ** (e // 2)
        f *= d ** (e % 2)
        d += 1
    r = isqrt(n)
    return (s * r, f) if r * r == n else (s, f * n)


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


# -- elimination on Matrix values -------------------------------------------


def _swap(m: Matrix, i: int, j: int, axis: int = 0) -> Matrix:
    """m with rows (axis 0) or columns (axis 1) i and j exchanged."""
    perm = np.arange(m.a.shape[axis])
    perm[[i, j]] = j, i
    return m._same(np.take(m.a, perm, axis=axis))


def _swap_both(g: Matrix, d: Matrix, i: int, j: int) -> tuple:
    """The swap of rows i and j of g, and its congruence on d = g a star(g)."""
    return _swap(g, i, j), _swap(_swap(d, i, j), i, j, axis=1)


def _add_columns(u: kernel.Arr, r: int) -> Matrix:
    """E = I + u [e_r, ..., e_(r+t-1)]^t for an n x t ``Arr`` u: E @ x adds
    u[k, s] times row r + s of x to row k of x."""
    n, t, k = u.a.shape
    bound = u.den + u.bound
    num = kernel.fit(np.zeros((n, n, k)), bound)
    num[np.arange(n), np.arange(n), 0] = u.den
    num[:, r:r + t] += kernel.fit(u.a, bound)
    return Matrix.from_numerators(u.ring, num, u.den)


def _clearing(d: Matrix, r: int, t: int = 1, scale: bool = False, unit: bool = False,
              height: int | None = None) -> Matrix:
    """The elimination matrix E = I + U [e_r, ..., e_(r+t-1)]^t of the t x t
    pivot block P = d[r:r+t, r:r+t]; with ``unit`` the caller knows that P is
    the identity, and no inverse is taken.

    Each row k outside the block and above ``height`` gets
    U[k] = -d[k, block] P^-1, which zeroes the block columns of E @ d there.
    On the block rows E is the identity; with ``scale`` it scales row r by
    the inverse of the pivot entry d[r, r+t-1] instead, that is
    U[r] = -(d[r, block] - e) P^-1 with e the unit at the pivot entry."""
    bound = d.bound + d.den
    w = kernel.fit(d.a[:, r:r + t], bound).copy()
    pivot = w[r, t - 1].copy()
    w[r:r + t] = 0
    if height is not None:
        w[height:] = 0
    if scale:
        w[r, t - 1] = pivot
        w[r, t - 1, 0] -= d.den
    u = kernel.Arr(w, d.den, bound, d.ring)
    if not unit:
        u = u @ Matrix.from_numerators(d.ring, d.a[r:r + t, r:r + t], d.den).inverse()
    return _add_columns(-u, r)


def _congruent(g: Matrix, a: Matrix, delta: str) -> Matrix:
    """g a star(g), star = delta entrywise, then transpose."""
    return g @ a @ g.dagger(delta)


def _first_nonzero(d: Matrix, rows: slice, cols: slice, upper: bool = False):
    """(i, j) of the first nonzero entry of the block d[rows, cols] in row
    major order (only j > i with ``upper``), in block coordinates; or None."""
    nz = d.a[rows, cols].any(axis=-1)
    found = np.flatnonzero(np.triu(nz, 1) if upper else nz)
    return divmod(int(found[0]), nz.shape[1]) if len(found) else None


def _rectangular(a: Matrix) -> NormalForm:
    m, n, ring = a.rows, a.cols, a.ring
    # the tableau [[a, I_m], [I_n, 0]]: row operations on its first m rows and
    # column operations on its first n columns make it [[d, g1], [g2, 0]]
    # with d = g1 a g2
    num = kernel.fit(np.zeros((m + n, n + m, a.a.shape[-1])), a.bound + a.den)
    num[:m, :n] = a.a
    num[range(m + n), [*range(n, n + m), *range(n)], 0] = a.den
    t = Matrix.from_numerators(ring, num, a.den)
    rank = 0
    while (pivot := _first_nonzero(t, np.s_[rank:m], np.s_[rank:n])) is not None:
        i, j = pivot
        if i:
            t = _swap(t, rank + i, rank)
        if j:
            t = _swap(t, rank + j, rank, axis=1)
        t = _clearing(t, rank, scale=True, height=m) @ t
        # the pivot is 1 now, so clearing row ``rank`` from the right is the
        # transposed clearing of the transpose, for any ring
        t = t @ _clearing(t.transpose(), rank, unit=True, height=n).transpose()
        rank += 1
    d, g1, g2 = (Matrix.from_numerators(ring, t.a[rows, cols], t.den) for rows, cols in
                 ((np.s_[:m], np.s_[:n]), (np.s_[:m], np.s_[n:]), (np.s_[m:], np.s_[:n])))
    verified = g1 @ a @ g2 == d and _is_01_diagonal(d, rank)
    return NormalForm("rectangular", a, d, {"g1": g1, "g2": g2}, None, verified)


def _is_01_diagonal(nf: Matrix, rank: int) -> bool:
    want = np.zeros(nf.a.shape)
    want[range(rank), range(rank), 0] = 1
    return nf == Matrix.from_numerators(nf.ring, want)


def _congruence(a: Matrix, kind: str) -> NormalForm:
    n, ring, delta = a.rows, a.ring, _DELTA[kind]
    if a.dagger(delta) != a:
        raise ValueError(f"{kind} normal form needs a star-symmetric input")
    g, d = Matrix.identity(n, ring), a
    for i in range(n):
        if not d.a[i, i].any():
            later = np.flatnonzero(d.a[range(i + 1, n), range(i + 1, n)].any(axis=-1))
            if len(later):
                g, d = _swap_both(g, d, i, i + 1 + later[0])
            else:
                later = np.flatnonzero(d.a[i, i + 1:].any(axis=-1))
                if not len(later):
                    continue
                # the remaining diagonal is zero: row_i += w row_j makes the
                # diagonal entry 2|w|^2 with w = d_ij
                j = i + 1 + later[0]
                u = np.zeros((n, 1, d.a.shape[-1]), dtype=d.a.dtype)
                u[i, 0] = d.a[i, j]
                e = _add_columns(kernel.Arr(u, d.den, d.bound, ring), j)
                g, d = e @ g, _congruent(e, d, delta)
        if d.a[i + 1:, i].any():
            e = _clearing(d, i)
            g, d = e @ g, _congruent(e, d, delta)
    # nonzero diagonal first, then reduce square factors
    order = sorted(range(n), key=lambda i: not d.a[i, i].any())
    g, d = g._same(g.a[order]), d._same(d.a[order][:, order])
    # the diagonal is rational (real) here; a nonzero entry p / q times
    # (q / s)^2 is the squarefree part of p q = s^2 f
    diag = [Fraction(v, d.den) for v in kernel.int_rows(d.a[range(n), range(n), 0])]
    signs = tuple((v > 0) - (v < 0) for v in diag)
    scaling = Matrix.diag(ring, [Fraction(v.denominator, _squarefree(abs(v.numerator * v.denominator))[0])
                                 if v else 1 for v in diag])
    g, d = scaling @ g, _congruent(scaling, d, delta)
    verified = _congruent(g, a, delta) == d and _is_reduced_diagonal(d, signs)
    return NormalForm(kind, a, d, {"g": g}, signs, verified)


def _is_reduced_diagonal(nf: Matrix, signs: tuple) -> bool:
    """nf is diagonal with squarefree integers of these signs (real parts)."""
    n = nf.rows
    off = nf.a.copy()
    off[range(n), range(n), 0] = 0
    diag = kernel.int_rows(nf.a[range(n), range(n), 0])
    return (nf.den == 1 and not off.any()
            and tuple((v > 0) - (v < 0) for v in diag) == tuple(signs)
            and all(_squarefree(abs(v))[0] == 1 for v in diag if v))


def _skew(a: Matrix) -> NormalForm:
    n, ring = a.rows, a.ring
    if a.transpose() != -a:
        raise ValueError("skew normal form needs a skew-symmetric input")
    g, d = Matrix.identity(n, ring), a
    pos = 0
    while (pivot := _first_nonzero(d, np.s_[pos:], np.s_[pos:], upper=True)) is not None:
        i, j = pivot
        if i:
            g, d = _swap_both(g, d, pos + i, pos)
        if j != 1:
            g, d = _swap_both(g, d, pos + j, pos + 1)
        # the pivot block is [[0, p], [-p, 0]]: scale row pos by 1 / p and
        # clear the rows below it
        e = _clearing(d, pos, 2, scale=True)
        g, d = e @ g, _congruent(e, d, "id")
        pos += 2
    verified = _congruent(g, a, "id") == d and _is_standard_skew(d, pos // 2)
    return NormalForm("skew", a, d, {"g": g}, None, verified)


def _is_standard_skew(nf: Matrix, blocks: int) -> bool:
    want = np.zeros(nf.a.shape)
    want[range(0, 2 * blocks, 2), range(1, 2 * blocks, 2), 0] = 1
    want[range(1, 2 * blocks, 2), range(0, 2 * blocks, 2), 0] = -1
    return nf == Matrix.from_numerators(nf.ring, want)


def normal_form(a: Matrix, kind: str) -> NormalForm:
    if kind not in _RINGS:
        raise ValueError(f"unknown normal-form kind {kind!r}; expected one of {tuple(_RINGS)}")
    rings, names = _RINGS[kind]
    if kind == "skew" and a.ring == HQ:
        raise ValueError("skew normal form is not defined over the quaternions")
    if a.ring not in rings:
        raise ValueError(f"{kind} normal form needs a matrix over {names}, got {a.ring}")
    if kind == "rectangular":
        return _rectangular(a)
    return _skew(a) if kind == "skew" else _congruence(a, kind)


# -- induced triple-system isomorphisms -------------------------------------


def intertwiner(nf: NormalForm):
    """The isomorphism psi from the system deformed by the normal form to the
    system deformed by the input parameter, as a declared ``AlphaMap``."""
    if nf.kind == "rectangular":
        return AlphaMap(nf.witness["g2"], nf.witness["g1"])
    g = nf.witness["g"]
    return AlphaMap(g.dagger(_DELTA[nf.kind]), g)


def intertwiner_check(nf: NormalForm, space: Subspace) -> bool:
    """psi([X,Y,Z]_{normal}) = [psi X, psi Y, psi Z]_{input} on all basis
    triples of the carrier space, exactly."""
    return intertwines(intertwiner(nf), space, nf.normal, nf.input)
