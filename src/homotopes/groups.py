"""The homotope group law and its classical subgroups.

On M(p,q) with parameter A in M(q,p) the product is

    X *_A Y = X + Y - X A Y,

with identity 0 and inverse j_A(X) = -(1 - XA)^{-1} X; the map X -> 1 - AX is
a multiplicative homomorphism into Gl_q.  For a star antiautomorphism with
star(A) = A the unitary subgroup is

    U_A = { X in G_A : star(X) + X = star(X) A X },

and for star(A) = -A the "symplectic" variant uses star(X) - X = star(X) A X.
An equivalent form of the unitary condition, star(X) + X = X A star(X), is
also provided and their equivalence is checked sample-wise.  Tangent-level
statements are verified exactly over the truncated series ring base[t,s] with
t^2 = s^2 = 0.

Every operation and check here takes one matrix or a stack of them (a
``kernel.Arr`` whose leading axes stack matrices, broadcast against a single
matrix), and a check gives one boolean per matrix of the stack
(``kernel.equal``, ``Arr.is_zero``; a numpy bool for one matrix).  The
suites draw all their samples first, in the order of a loop over the
samples, and then evaluate each identity once over the stack of them.
Every sample that must be invertible (A, the points of G_A and the Cayley
parameters S) comes from one stacked rejection sampler,
``families.invertible_draws``: it draws the samples still missing as one
stack, keeps those ``inverses`` accepts, and draws the rest again, which
reads the random stream as a loop over single draws does.

The witness (1 - XA)^{-1} of A-invertibility (quasi-invertibility, after
O. Loos, Jordan Pairs, LNM 460 (1975)) is eliminated only where no ring
identity gives it:

    1 - (X *_A Y)A = (1 - XA)(1 - YA), so W(X *_A Y) = W(Y) W(X);
    1 - j_A(X)A = (1 - XA)^{-1}, so W(j_A(X)) = 1 - XA;
    at a Cayley point X = A^{-1}(1 - u), W(X) = star(u) (``_cayley``);
    at a tangent lift tX, W(tX) = 1 + tXA, as t^2 = 0 (``_nilpotent_guess``).

Each such guess is certified by one product, (1 - XA) W = 1 exactly, per
matrix of a stack (``matrices.inverses``); a matrix where it fails is
eliminated.  ``membership`` and ``is_quasi_invertible`` without a guess
eliminate, as the per-sample reference of the tests does.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .families import invertible_draws, rand_matrix, rand_stack
from .homotope import bracket_param
from .kernel import Arr, concat, equal
from .matrices import Matrix, inverses
from .scalars import HQ, Q, QI, SERIES_DEGREE, is_series, ring_components, series_ring, series_slot


# -- quasi-group operations -------------------------------------------------


def g_mul(x: Matrix, y: Matrix, a: Matrix) -> Matrix:
    """X *_A Y = X + Y - X A Y."""
    return x + y - x @ a @ y


def g_identity(p: int, q: int, ring) -> Matrix:
    return Matrix.zeros(p, q, ring)


def one_minus_xa(x: Matrix, a: Matrix) -> Matrix:
    return Matrix.identity(x.rows, x.ring) - x @ a


def quasi_inverse_witness(x: Matrix, a: Matrix, guess: Matrix | None = None) -> Matrix:
    """(1 - XA)^{-1}, from the ``guess`` where it is certified (``inverses``);
    raises ZeroDivisionError when X (or a matrix of the stack X) is not
    A-invertible."""
    inv, ok = inverses(one_minus_xa(x, a), guess)
    if not ok.all():
        raise ZeroDivisionError("X is not A-quasi-invertible")
    return inv


def is_quasi_invertible(x: Matrix, a: Matrix, guess: Matrix | None = None) -> bool:
    """Whether 1 - XA is invertible, per matrix of a stack X; a ``guess`` of
    the witnesses saves the elimination where it is certified."""
    return inverses(one_minus_xa(x, a), guess)[1]


def g_inv(x: Matrix, a: Matrix) -> Matrix:
    """j_A(X) = -(1 - XA)^{-1} X; over a series ring the witness is guessed
    by ``_nilpotent_guess``."""
    return GroupElement(x, a, _nilpotent_guess(x, a) if is_series(x.ring) else None).inverse()


def _nilpotent_guess(x: Matrix, a: Matrix) -> Matrix:
    """1 + M + ... + M^top for M = XA over a series ring, with
    top = 2 * SERIES_DEGREE - 2 (1 + M + M^2): the witness (1 - M)^{-1}
    whenever M has no constant term, as then every product of more than top
    factors M vanishes (tX and sY in the tangent check)."""
    one, m = Matrix.identity(x.rows, x.ring), x @ a
    guess = one + m
    for _ in range(2 * SERIES_DEGREE - 3):
        guess = one + m @ guess
    return guess


class GroupElement:
    """An element of G_A with its cached invertibility witness (1 - XA)^{-1}:
    taken from a ``guess`` where one product certifies it (``inverses``), else
    eliminated.  A product takes W_Y W_X as its guess, since
    1 - (X *_A Y)A = (1 - XA)(1 - YA), and the inverse takes 1 - XA, since
    1 - j_A(X)A = (1 - XA)^{-1}.  A stack X gives the stack of witnesses;
    ``==`` compares single elements."""

    __slots__ = ("x", "a", "witness")

    def __init__(self, x: Matrix, a: Matrix, guess: Matrix | None = None):
        self.x = x
        self.a = a
        self.witness = quasi_inverse_witness(x, a, guess)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.a != other.a:
            raise ValueError("elements of different homotope groups")
        return GroupElement(g_mul(self.x, other.x, self.a), self.a, other.witness @ self.witness)

    def inverse(self) -> Matrix:
        """j_A(X) = -(1 - XA)^{-1} X, from the witness."""
        return -(self.witness @ self.x)

    def inv(self) -> "GroupElement":
        return GroupElement(self.inverse(), self.a, one_minus_xa(self.x, self.a))

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupElement) and self.x == other.x and self.a == other.a


def one_minus_ax(x: Matrix, a: Matrix) -> Matrix:
    return Matrix.identity(a.rows, a.ring) - a @ x


def hom_check(x: Matrix, y: Matrix, a: Matrix) -> bool:
    """1 - A(X *_A Y) = (1 - AX)(1 - AY), exact."""
    return equal(one_minus_ax(g_mul(x, y, a), a), one_minus_ax(x, a) @ one_minus_ax(y, a))


# -- unitary and symplectic subgroups ---------------------------------------


def star_from_delta(delta: str):
    """The antiautomorphism X -> delta(X)^t."""
    return lambda m: m.dagger(delta)


def u_defect(x: Matrix, a: Matrix, star) -> Matrix:
    """star(X) + X - star(X) A X; zero iff X satisfies the unitary relation."""
    return star(x) + x - star(x) @ a @ x


def u_defect_variant(x: Matrix, a: Matrix, star) -> Matrix:
    """The equivalent form star(X) + X - X A star(X)."""
    return star(x) + x - x @ a @ star(x)


def s_defect(x: Matrix, a: Matrix, star) -> Matrix:
    """star(X) - X - star(X) A X (for star(A) = -A)."""
    return star(x) - x - star(x) @ a @ x


def membership(x: Matrix, a: Matrix, kind: str, star=None, guess: Matrix | None = None) -> bool:
    """Membership in G_A, U_A or S_A.  U/S require a compatible parameter
    (star(A) = A resp. star(A) = -A) and quasi-invertibility, which a
    ``guess`` of the witnesses may certify (``is_quasi_invertible``)."""
    if kind == "G":
        return is_quasi_invertible(x, a, guess)
    if star is None:
        raise ValueError("U/S membership needs a star antiautomorphism")
    return is_quasi_invertible(x, a, guess) & relation_holds(x, a, kind, star)


def relation_holds(x: Matrix, a: Matrix, kind: str, star) -> bool:
    """The defining relation of U_A (kind "U") or S_A (kind "S") at X."""
    if kind == "U":
        if star(a) != a:
            raise ValueError("U_A needs star(A) = A")
        return u_defect(x, a, star).is_zero()
    if kind == "S":
        if star(a) != -a:
            raise ValueError("S_A needs star(A) = -A")
        return s_defect(x, a, star).is_zero()
    raise ValueError(f"unknown membership kind {kind!r}")


def cayley_element(a: Matrix, star, rng: random.Random, symmetric: bool) -> Matrix:
    """A rational point of U_A (symmetric=False, star(A)=A) or S_A
    (symmetric=True, star(A)=-A) for invertible A (``_cayley``)."""
    x, _ = _cayley(a.inverse(), star, rng, symmetric, 1)
    return Matrix._make(x.a[0], x.den, x.bound, x.ring)


def _cayley(b: Matrix, star, rng: random.Random, symmetric: bool, count: int) -> tuple:
    """A stack of ``count`` points X = A^{-1}(1 - u) of ``cayley_element``,
    from B = A^{-1}, and the stack of their witnesses (1 - XA)^{-1}.

    u = (1 + SB)(1 - SB)^{-1} with S star-skew (unitary case) or
    star-symmetric (symplectic case); then star(u) B u = B, which is
    equivalent to the defining relation.  As 1 - XA = B u A and
    u^{-1} = A star(u) B, the witness is B u^{-1} A = star(u).  The S are
    drawn until 1 - SB is invertible (``invertible_draws``)."""
    n = b.rows
    ident = Matrix.identity(n, b.ring)
    s, minv = invertible_draws(lambda k: _star_half(rand_stack(k, n, n, b.ring, rng), star, 1 if symmetric else -1),
                               count, lambda s: ident - s @ b)
    u = (ident + s @ b) @ minv
    return b @ (ident - u), star(u)


def skew_is_singular(n: int, ring, delta: str) -> bool:
    """Every star-skew n x n matrix is singular: n is odd and star is the
    plain transpose over a commutative ring (ring Q with any delta, or QI with
    delta "id"), so det X = det(-X^t) = -det X."""
    return n % 2 == 1 and (ring == Q or (ring == QI and delta == "id"))


def rand_symmetric_invertible(n: int, ring, delta: str, rng: random.Random) -> Matrix:
    return _rand_star_invertible(n, ring, delta, rng, 1)[0]


def rand_skew_invertible(n: int, ring, delta: str, rng: random.Random) -> Matrix:
    if skew_is_singular(n, ring, delta):
        raise ValueError(f"no invertible skew matrices in odd dimension over {ring} with delta {delta!r}")
    return _rand_star_invertible(n, ring, delta, rng, -1)[0]


def _rand_star_invertible(n: int, ring, delta: str, rng: random.Random, sign: int) -> tuple:
    """(A, A^{-1}) for the first invertible (m + sign star(m)) / 2 over random m."""
    star = star_from_delta(delta)
    draws = invertible_draws(lambda k: _star_half(rand_stack(k, n, n, ring, rng), star, sign), 1, lambda m: m)
    return tuple(Matrix._make(x.a[0], x.den, x.bound, ring) for x in draws)


def _star_half(m: Matrix, star, sign: int) -> Matrix:
    """(m + star(m)) / 2 for sign 1, (m - star(m)) / 2 for sign -1."""
    return (m + star(m) if sign > 0 else m - star(m)).scale(Fraction(1, 2))


# -- series lifts and tangent statements ------------------------------------


def series_lift(x: Matrix, sring, var: str | None = None) -> Matrix:
    """Lift a matrix (or a stack) over the base ring to the series ring,
    optionally multiplied by the variable t or s: its components fill the
    slot of the monomial 1, t or s (``series_slot``)."""
    exp = {None: (0, 0), "t": (1, 0), "s": (0, 1)}[var]
    num = np.zeros(x.a.shape[:-1] + (ring_components(sring),), x.a.dtype)
    num[..., series_slot(x.ring, exp)] = x.a
    return type(x)._make(num, x.den, x.bound, sring)


def series_coefficient(m: Matrix, exp: tuple, base) -> Matrix:
    """The coefficient of t^a s^b, (a, b) = exp: a slice of the components."""
    return type(m)._make(m.a[..., series_slot(base, exp)], m.den, m.bound, base)


def tangent_check(x: Matrix, y: Matrix, a: Matrix):
    """The group commutator of tX and sY in G_A over base[t,s]/(t^2,s^2) has
    zero linear terms and ts-coefficient -[X, Y]_A.

    Returns (ok, ts_coefficient).
    """
    ring = x.ring
    sring = series_ring(ring)
    tx = series_lift(x, sring, "t")
    sy = series_lift(y, sring, "s")
    aa = series_lift(a, sring)
    comm = g_mul(g_mul(g_mul(tx, sy, aa), g_inv(tx, aa), aa), g_inv(sy, aa), aa)
    ok = (series_coefficient(comm, (0, 0), ring).is_zero()
          & series_coefficient(comm, (1, 0), ring).is_zero()
          & series_coefficient(comm, (0, 1), ring).is_zero())
    ts = series_coefficient(comm, (1, 1), ring)
    return ok & equal(ts, -bracket_param(x, y, a)), ts


def u_linearization_check(x: Matrix, a: Matrix, delta: str) -> bool:
    """tX satisfies the unitary relation to first order iff star(X) = -X:
    over base[t,s]/(t^2,s^2) the defect of tX vanishes identically exactly for
    anti-hermitian X."""
    ring = x.ring
    sring = series_ring(ring)
    star = star_from_delta(delta)
    defect = u_defect(series_lift(x, sring, "t"), series_lift(a, sring), star)
    return defect.is_zero() == equal(star(x), -x)


# -- seeded verification suites ---------------------------------------------


def _check_samples(samples: int):
    if samples < 1:
        raise ValueError("samples must be >= 1")


def group_axiom_suite(p: int, q: int, ring, samples: int, seed: int) -> dict:
    """Identity, inverses, associativity and the 1 - AX homomorphism on
    seeded quasi-invertible samples, including degenerate parameters."""
    _check_samples(samples)
    rng = random.Random(seed)
    params, drawn = [], []
    for idx in range(samples):
        if idx == 0:
            a = Matrix.zeros(q, p, ring)
        elif idx == 1:
            u = rand_matrix(q, 1, ring, rng)
            v = rand_matrix(1, p, ring, rng)
            a = u @ v
        else:
            a = rand_matrix(q, p, ring, rng)
        params.append(a)
        drawn.append(invertible_draws(lambda k: rand_stack(k, p, q, ring, rng), 3, lambda x: one_minus_xa(x, a)))
    a = Arr.from_matrices(params)
    # the elements X, Y, Z of each sample, and the witnesses (1 - XA)^{-1} of X
    xs, ws = (Arr.from_matrices(parts) for parts in zip(*drawn))
    x, y, z = (xs[:, i] for i in range(3))
    x_inv = -(ws[:, 0] @ x)
    e = g_identity(p, q, ring)
    checks = {
        "identity": equal(g_mul(x, e, a), x) & equal(g_mul(e, x, a), x),
        "inverse": equal(g_mul(x, x_inv, a), e) & equal(g_mul(x_inv, x, a), e),
        "associativity": equal(g_mul(g_mul(x, y, a), z, a), g_mul(x, g_mul(y, z, a), a)),
        "hom_1_minus_AX": hom_check(x, y, a),
    }
    results = []
    for idx in range(samples):
        sample = {name: bool(flags[idx]) for name, flags in checks.items()}
        results.append({"sample": idx, "checks": sample, "pass": all(sample.values())})
    return {"suite": "group-axioms", "sizes": [p, q], "ring": str(ring),
            "samples": samples, "seed": seed, "pass": all(r["pass"] for r in results), "results": results}


def unitary_suite(n: int, ring, delta: str, samples: int, seed: int) -> dict:
    """U_A and S_A: Cayley-built rational points, membership in both
    equivalent forms, closure under the group operations, and the tangent
    condition.  S_A is skipped where no skew parameter is invertible
    (``skew_is_singular``).  A is inverted once per kind; the witnesses of
    the points, of their products and of their inverses come from the group
    law (``_cayley``, ``GroupElement``), each certified by one product.  Over
    HQ, the deltas "id" and "phi" are automorphisms and are rejected."""
    _check_samples(samples)
    if ring == HQ and delta in ("id", "phi"):
        raise ValueError(f"delta {delta!r} is an automorphism of {HQ}: X -> {delta}(X)^t is no antiautomorphism")
    rng = random.Random(seed)
    star = star_from_delta(delta)
    results = []
    cases = [("U", 1)]
    if not skew_is_singular(n, ring, delta):
        cases.append(("S", -1))
    for kind, sign in cases:
        a, b = _rand_star_invertible(n, ring, delta, rng, sign)
        elems, witness = _cayley(b, star, rng, sign < 0, samples)
        quasi = bool(is_quasi_invertible(elems, a, witness).all())
        member = quasi and bool(relation_holds(elems, a, kind, star).all())
        if kind == "U":
            both = concat([elems, rand_stack(samples, n, n, ring, rng)], 0)
            equiv = bool((u_defect(both, a, star).is_zero() == u_defect_variant(both, a, star).is_zero()).all())
        else:
            equiv = True
        # j_A(X) = -W X with the exact Cayley witness W, and the witnesses of
        # X *_A Y and of j_A(X), as in ``GroupElement``
        roll = np.roll(np.arange(samples), -1)
        closed = bool(membership(g_mul(elems, elems[roll], a), a, kind, star, witness[roll] @ witness).all())
        inverted = quasi and bool(membership(-(witness @ elems), a, kind, star, one_minus_xa(elems, a)).all())
        entry = {"kind": kind, "membership": member, "equivalent_forms": equiv,
                 "closure": closed, "inverses": inverted}
        entry["pass"] = all(v for k, v in entry.items() if k != "kind")
        results.append(entry)
    return {"suite": "unitary", "n": n, "ring": str(ring), "delta": delta,
            "samples": samples, "seed": seed, "pass": all(r["pass"] for r in results), "results": results}


def tangent_suite(p: int, q: int, ring, samples: int, seed: int) -> dict:
    _check_samples(samples)
    rng = random.Random(seed)
    draws = [(rand_matrix(q, p, ring, rng), rand_matrix(p, q, ring, rng), rand_matrix(p, q, ring, rng))
             for _ in range(samples)]
    a, x, y = (Arr.from_matrices(column) for column in zip(*draws))
    good, _ = tangent_check(x, y, a)
    results = [{"sample": idx, "pass": bool(good[idx])} for idx in range(samples)]
    return {"suite": "tangent", "sizes": [p, q], "ring": str(ring),
            "samples": samples, "seed": seed, "pass": all(r["pass"] for r in results), "results": results}
