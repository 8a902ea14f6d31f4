"""The catalog: model matrix spaces, the four two-involution constructions
(proj, siegel, quat1, quat2) with validated model maps and verified 4x4
tables, the classification-table families of alpha-deformed triple systems,
the polarized families, and parameter samplers.

All K = R statements are realized over Q, complex ones over Q(i), and
quaternionic ones over the rational quaternions; every identity checked is
Q-rational, so nothing is lost by exactness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .homotope import (AlphaMap, AlphaTriple, PairTriple, ProductSpace, bracket_closure,
                       TripleSystem, check_lts, symmetric_pair)
from .involutions import JointDecomposition, MatrixInvolution, joint_eigenspaces
from .matrices import Matrix, Subspace, block_F, block_I, block_Ipq, block_J
from .scalars import HQ, Q, QI, Scalar, ring_components

# -- model subspaces -------------------------------------------------------


@lru_cache(maxsize=None)
def matrix_space(p: int, q: int, ring) -> Subspace:
    return Subspace.full((p, q, ring))


@lru_cache(maxsize=None)
def sym_space(n: int, ring) -> Subspace:
    return _fixed_space(n, ring, "id", 1)


@lru_cache(maxsize=None)
def asym_space(n: int, ring) -> Subspace:
    return _fixed_space(n, ring, "id", -1)


@lru_cache(maxsize=None)
def herm_space(n: int, ring, delta: str) -> Subspace:
    """Fixed space of X -> delta(X)^t."""
    return _fixed_space(n, ring, delta, 1)


@lru_cache(maxsize=None)
def aherm_space(n: int, ring, delta: str) -> Subspace:
    return _fixed_space(n, ring, delta, -1)


def iherm_space(n: int) -> Subspace:
    """i Herm(n, Q(i)) = Aherm(n, Q(i))."""
    return aherm_space(n, QI, "conj")


def _fixed_space(n: int, ring, delta: str, sign: int) -> Subspace:
    """The sign-eigenspace of X -> delta(X)^t, from its declared action."""
    tau = MatrixInvolution("anti", delta, n, ring, validate=False)
    return joint_eigenspaces([tau]).piece((sign,))


# -- seeded exact samplers -------------------------------------------------


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-2, 2), rng.randint(1, 2))


def rand_scalar(ring, rng: random.Random) -> Scalar:
    return Scalar.unflatten(ring, [rand_fraction(rng) for _ in range(ring_components(ring))])


def rand_matrix(p: int, q: int, ring, rng: random.Random) -> Matrix:
    return Matrix.unflatten((p, q, ring), [rand_fraction(rng) for _ in range(p * q * ring_components(ring))])


def rand_invertible(n: int, ring, rng: random.Random) -> Matrix:
    while True:
        m = rand_matrix(n, n, ring, rng)
        try:
            m.inverse()
            return m
        except ZeroDivisionError:
            continue


def sample_in_subspace(space: Subspace, rng: random.Random) -> Matrix:
    return space.from_coordinates([rand_fraction(rng) for _ in range(space.dim)])


class ParamClass:
    """A parameter space (a model subspace) with rank-controlled sampling.

    ``kind`` selects the low-rank strategy: full -> u v^t; sym -> v v^t;
    asym -> u v^t - v u^t; herm:<delta> -> v delta(v)^t; aherm:<delta> and
    iherm -> skew projections of the hermitian rank-one.
    """

    def __init__(self, name: str, space: Subspace, kind: str):
        self.name = name
        self.space = space
        self.kind = kind

    def _vec(self, rng):
        rows, _, ring = self.space.ambient
        return rand_matrix(rows, 1, ring, rng)

    def low_rank(self, rng: random.Random) -> Matrix:
        rows, cols, ring = self.space.ambient
        kind = self.kind
        if kind == "full":
            u = rand_matrix(rows, 1, ring, rng)
            v = rand_matrix(1, cols, ring, rng)
            return u @ v
        if kind == "sym":
            v = self._vec(rng)
            return v @ v.transpose()
        if kind == "asym":
            u, v = self._vec(rng), self._vec(rng)
            return u @ v.transpose() - v @ u.transpose()
        if kind.startswith("herm:"):
            delta = kind.split(":")[1]
            v = self._vec(rng)
            return v @ v.dagger(delta)
        if kind.startswith("aherm:"):
            delta = kind.split(":")[1]
            v, w = self._vec(rng), self._vec(rng)
            m = v @ w.dagger(delta)
            return (m - m.dagger(delta)).scale(Fraction(1, 2))
        if kind == "iherm":
            v = self._vec(rng)
            return (v @ v.dagger("conj")).scalar_mul(Scalar(QI, (0, 1)))
        if kind == "piece":
            # low-rank ambient matrix projected onto an eigenspace piece
            u = rand_matrix(rows, 1, ring, rng)
            v = rand_matrix(1, cols, ring, rng)
            m = u @ v
            co = _project_onto(self.space, m)
            return co
        raise ValueError(f"unknown parameter kind {self.kind!r}")

    def sample(self, rng: random.Random, style: str) -> Matrix:
        rows, cols, ring = self.space.ambient
        if style == "zero" or self.space.dim == 0:
            return Matrix.zeros(rows, cols, ring)
        if style == "low":
            m = self.low_rank(rng)
            if not self.space.contains(m):
                raise AssertionError(f"low-rank sample left class {self.name}")
            return m
        return sample_in_subspace(self.space, rng)


def _project_onto(space: Subspace, m: Matrix) -> Matrix:
    """The element of the space with the same pivot coordinates as m (the
    RREF basis has a 1 in its own pivot and 0 in the others)."""
    flat = m.flatten()
    return space.from_coordinates([flat[p] for p in space.pivots])


def sample_styles(samples: int):
    """Deterministic rank-style schedule: zero, then three low-rank, then
    generic samples."""
    for i in range(samples):
        if i == 0:
            yield "zero"
        elif i <= 3:
            yield "low"
        else:
            yield "generic"


# -- family catalog --------------------------------------------------------


@dataclass
class FamilyDescriptor:
    """One row of the classification tables.

    ``pair_name`` is symbolic metadata (the claimed symmetric pair); only the
    algebraic identities are machine-verified.
    """

    label: str
    ring: str
    sizes: str               # "pq" or "n"
    space_name: str
    pair_name: str
    polarized: bool
    space_fn: object
    params_fn: object        # sizes -> [ParamClass, ...]
    alpha_fn: object         # (sizes, params) -> AlphaTriple | PairTriple

    def space(self, sizes):
        return self.space_fn(tuple(sizes))

    def param_classes(self, sizes):
        return self.params_fn(sizes)

    def sample_params(self, sizes, rng, style):
        return [cls.sample(rng, style) for cls in self.param_classes(sizes)]

    def system(self, sizes, params) -> TripleSystem:
        return TripleSystem(self.space(sizes), self.alpha_fn(sizes, params))

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "ring": self.ring,
            "sizes": self.sizes,
            "space": self.space_name,
            "pair": self.pair_name,
            "polarized": self.polarized,
        }


_CATALOG: dict = {}


def _add(label, ring, sizes, space_name, pair_name, space_fn, params_fn, alpha_fn,
         polarized=False):
    # one space per sizes: a space keeps its integer basis
    _CATALOG[label] = FamilyDescriptor(
        label, ring, sizes, space_name, pair_name, polarized, lru_cache(maxsize=None)(space_fn),
        params_fn, alpha_fn
    )


def _sandwich_alpha(twist: str, name: str):
    """alpha(X) = A twist(X) twist(A) for the one parameter A."""
    def build(sizes, params):
        a = params[0]
        return AlphaTriple(AlphaMap(a, a.conjugate(twist), twist, name=name))

    return build


def _dagger_alpha(twist: str, name: str):
    """alpha(X) = B twist(X)^t A for the parameters (A, B)."""
    def build(sizes, params):
        a, b = params
        return AlphaTriple(AlphaMap(b, a, twist, transpose=True, name=name))

    return build


_axa = _sandwich_alpha("id", "AXA")
_conj_axa = _sandwich_alpha("conj", "A conj(XA)")
_phi_axa = _sandwich_alpha("phi", "A phi(XA)")


def _neg(alpha_fn):
    def build(sizes, params):
        return alpha_fn(sizes, params).negated()

    return build


def _build_catalog():
    # ---- table 1: rectangular over K = Q ---------------------------------
    def t1_space(sz):
        return matrix_space(sz[0], sz[1], Q)

    def t1_param(sz):
        return [ParamClass("M(q,p;K)", matrix_space(sz[1], sz[0], Q), "full")]

    _add("1.a", Q, "pq", "M(p,q;K)", "group case Gl_pq(A,K)", t1_space, t1_param, _axa)
    _add("1.a'", Q, "pq", "M(p,q;K)", "Gl_pq(A,K[i])/Gl_pq(A,K)", t1_space, t1_param, _neg(_axa))

    def t1b_param(sz):
        return [ParamClass("Sym(p,K)", sym_space(sz[0], Q), "sym"),
                ParamClass("Sym(q,K)", sym_space(sz[1], Q), "sym")]

    t1b_alpha = _dagger_alpha("id", "B X^t A")
    _add("1.b", Q, "pq", "M(p,q;K)", "O_{p+q}(diag(A,B);K)/O_p(A)xO_q(B)", t1_space, t1b_param, t1b_alpha)

    def t1c_param(sz):
        return [ParamClass("Asym(p,K)", asym_space(sz[0], Q), "asym"),
                ParamClass("Asym(q,K)", asym_space(sz[1], Q), "asym")]

    _add("1.c", Q, "pq", "M(p,q;K)", "Sp(diag(A,B);K)/Sp(A)xSp(B)", t1_space, t1c_param, t1b_alpha)

    # ---- table 1 antilinear: rectangular over C --------------------------
    def t1A_space(sz):
        return matrix_space(sz[0], sz[1], QI)

    def t1A_param(sz):
        return [ParamClass("M(q,p;C)", matrix_space(sz[1], sz[0], QI), "full")]

    _add("1.A", QI, "pq", "M(p,q;C)", "Gl_pq(A;M(2,2;R))/Gl_pq(A;C)", t1A_space, t1A_param, _conj_axa)
    _add("1.A'", QI, "pq", "M(p,q;C)", "Gl_pq(A;H)/Gl_pq(A;C)", t1A_space, t1A_param, _neg(_conj_axa))

    def t1B_param(sz):
        return [ParamClass("Herm(p,C)", herm_space(sz[0], QI, "conj"), "herm:conj"),
                ParamClass("Herm(q,C)", herm_space(sz[1], QI, "conj"), "herm:conj")]

    _add("1.B", QI, "pq", "M(p,q;C)", "U_{p+q}(diag(A,B);C)/U_p(A)xU_q(B)", t1A_space, t1B_param,
         _dagger_alpha("conj", "B conj(X)^t A"))

    # ---- table 1.3: rectangular over H -----------------------------------
    def t13_space(sz):
        return matrix_space(sz[0], sz[1], HQ)

    def t13_param(sz):
        return [ParamClass("M(q,p;H)", matrix_space(sz[1], sz[0], HQ), "full")]

    _add("1.3.a", HQ, "pq", "M(p,q;H)", "group case Gl_pq(A,H)", t13_space, t13_param, _axa)
    _add("1.3.a'", HQ, "pq", "M(p,q;H)", "Gl_pq(A,M(2,2;C))/Gl_pq(A,H)", t13_space, t13_param, _neg(_axa))

    def t13_herm_param(delta):
        def build(sz):
            return [ParamClass(f"Herm(p,{delta})", herm_space(sz[0], HQ, delta), f"herm:{delta}"),
                    ParamClass(f"Herm(q,{delta})", herm_space(sz[1], HQ, delta), f"herm:{delta}")]

        return build

    _add("1.3.b", HQ, "pq", "M(p,q;H)", "U_{p+q}(diag(A,B);H)/U_p(A)xU_q(B)",
         t13_space, t13_herm_param("qconj"), _dagger_alpha("qconj", "B qconj(X)^t A"))
    _add("1.3.c", HQ, "pq", "M(p,q;H)", "U_{p+q}(diag(A,B);H~)/U_p(A)xU_q(B)",
         t13_space, t13_herm_param("qsplit"), _dagger_alpha("qsplit", "B qsplit(X)^t A"))

    # ---- table 2: symmetric over K ---------------------------------------
    def t2_space(sz):
        return sym_space(sz[0], Q)

    _add("2.a", Q, "n", "Sym(n,K)", "Gl_n(A;K)/O_n(A;K)", t2_space,
         lambda sz: [ParamClass("Sym(n,K)", sym_space(sz[0], Q), "sym")], _axa)
    _add("2.a'", Q, "n", "Sym(n,K)", "U_n(A;K[i])/O_n(A;K)", t2_space,
         lambda sz: [ParamClass("Sym(n,K)", sym_space(sz[0], Q), "sym")], _neg(_axa))
    _add("2.b", Q, "n", "Sym(n,K)", "group space Sp(A;K)", t2_space,
         lambda sz: [ParamClass("Asym(n,K)", asym_space(sz[0], Q), "asym")], _axa)
    _add("2.b'", Q, "n", "Sym(n,K)", "Sp(A;K[i])/Sp(A;K)", t2_space,
         lambda sz: [ParamClass("Asym(n,K)", asym_space(sz[0], Q), "asym")], _neg(_axa))

    # ---- table 2 antilinear: Sym(n, C) -----------------------------------
    def t2A_space(sz):
        return sym_space(sz[0], QI)

    _add("2.A", QI, "n", "Sym(n,C)", "U_n(A;H)/U_n(A;C)", t2A_space,
         lambda sz: [ParamClass("Herm(n,C)", herm_space(sz[0], QI, "conj"), "herm:conj")], _conj_axa)
    _add("2.A'", QI, "n", "Sym(n,C)", "Sp_n((b,a;-a,b))/U_n(b+ia,C)", t2A_space,
         lambda sz: [ParamClass("Herm(n,C)", herm_space(sz[0], QI, "conj"), "herm:conj")], _neg(_conj_axa))

    # ---- table 3: skew over K --------------------------------------------
    def t3_space(sz):
        return asym_space(sz[0], Q)

    _add("3.a", Q, "n", "Asym(n,K)", "Gl_n(A;K)/Sp(A;K)", t3_space,
         lambda sz: [ParamClass("Asym(n,K)", asym_space(sz[0], Q), "asym")], _axa)
    _add("3.a'", Q, "n", "Asym(n,K)", "U_n(A;K[i])/Sp(A;K)", t3_space,
         lambda sz: [ParamClass("Asym(n,K)", asym_space(sz[0], Q), "asym")], _neg(_axa))
    _add("3.b", Q, "n", "Asym(n,K)", "group case O_n(A;K)", t3_space,
         lambda sz: [ParamClass("Sym(n,K)", sym_space(sz[0], Q), "sym")], _axa)
    _add("3.b'", Q, "n", "Asym(n,K)", "O_n(A;K[i])/O_n(A;K)", t3_space,
         lambda sz: [ParamClass("Sym(n,K)", sym_space(sz[0], Q), "sym")], _neg(_axa))

    # ---- table 3 antilinear: Asym(n, C) ----------------------------------
    def t3A_space(sz):
        return asym_space(sz[0], QI)

    _add("3.A", QI, "n", "Asym(n,C)", "U_n(A,H~)/U_n(A,C)", t3A_space,
         lambda sz: [ParamClass("iHerm(n,C)", iherm_space(sz[0]), "iherm")], _conj_axa)
    _add("3.A'", QI, "n", "Asym(n,C)", "O_2n((a,b;-b,a),R)/U_n(b+ia,C)", t3A_space,
         lambda sz: [ParamClass("Herm(n,C)", herm_space(sz[0], QI, "conj"), "herm:conj")], _neg(_conj_axa))

    # ---- table 1.1: Herm(n, C) -------------------------------------------
    def t11_space(sz):
        return herm_space(sz[0], QI, "conj")

    _add("1.1.a", QI, "n", "Herm(n,C)", "Gl_n(A,C)/U_n(A,C)", t11_space,
         lambda sz: [ParamClass("Herm(n,C)", herm_space(sz[0], QI, "conj"), "herm:conj")], _axa)
    _add("1.1.a'", QI, "n", "Herm(n,C)", "group case U_n(A,C)", t11_space,
         lambda sz: [ParamClass("Herm(n,C)", herm_space(sz[0], QI, "conj"), "herm:conj")], _neg(_axa))

    _add("1.1.b", QI, "n", "Herm(n,C)", "U_n(A,H~)/O_n(A,C)", t11_space,
         lambda sz: [ParamClass("Sym(n,C)", sym_space(sz[0], QI), "sym")], _conj_axa)
    _add("1.1.b'", QI, "n", "Herm(n,C)", "O_2n((a,b;b,-a);R)/O_n(a+ib;C)", t11_space,
         lambda sz: [ParamClass("Sym(n,C)", sym_space(sz[0], QI), "sym")], _neg(_conj_axa))
    _add("1.1.c", QI, "n", "Herm(n,C)", "Sp_n((a,b;b,-a);R)/Sp(a+ib;C)", t11_space,
         lambda sz: [ParamClass("Asym(n,C)", asym_space(sz[0], QI), "asym")], _conj_axa)
    _add("1.1.c'", QI, "n", "Herm(n,C)", "U_n(A,H)/Sp(A,C)", t11_space,
         lambda sz: [ParamClass("Asym(n,C)", asym_space(sz[0], QI), "asym")], _neg(_conj_axa))

    # ---- table 3.1: Herm(n, H) -------------------------------------------
    def t31_space(sz):
        return herm_space(sz[0], HQ, "qconj")

    def t31_param(sz):
        return [ParamClass("Herm(n,H)", herm_space(sz[0], HQ, "qconj"), "herm:qconj")]

    def t31b_param(sz):
        return [ParamClass("Herm(n,H~)", herm_space(sz[0], HQ, "qsplit"), "herm:qsplit")]

    _add("3.1.a", HQ, "n", "Herm(n,H)", "Gl_n(A,H)/U_n(A,H)", t31_space, t31_param, _axa)
    _add("3.1.a'", HQ, "n", "Herm(n,H)", "U_2n(IA,C)/U_n(A,H)", t31_space, t31_param, _neg(_axa))
    _add("3.1.b", HQ, "n", "Herm(n,H)", "group case U_n(A,H~)", t31_space, t31b_param, _phi_axa)
    _add("3.1.b'", HQ, "n", "Herm(n,H)", "O_2n(IA,C)/U_n(A,H~)", t31_space, t31b_param, _neg(_phi_axa))

    # ---- table 2.2: Herm(n, H~) ------------------------------------------
    def t22_space(sz):
        return herm_space(sz[0], HQ, "qsplit")

    def t22_param(sz):
        return [ParamClass("Herm(n,H~)", herm_space(sz[0], HQ, "qsplit"), "herm:qsplit")]

    def t22b_param(sz):
        return [ParamClass("Herm(n,H)", herm_space(sz[0], HQ, "qconj"), "herm:qconj")]

    _add("2.2.a", HQ, "n", "Herm(n,H~)", "Gl_n(A,H)/U_n(A,H~)", t22_space, t22_param, _axa)
    _add("2.2.a'", HQ, "n", "Herm(n,H~)", "U_2n(IA,C)/U_n(A,H~)", t22_space, t22_param, _neg(_axa))
    _add("2.2.b", HQ, "n", "Herm(n,H~)", "group case U_n(A,H)", t22_space, t22b_param, _phi_axa)
    _add("2.2.b'", HQ, "n", "Herm(n,H~)", "Sp_2n(IA,C)/U_n(A,H)", t22_space, t22b_param, _neg(_phi_axa))

    _build_polarized()


def _build_polarized():
    # ---- para-Hermitian table (p = q versions use a single size n) -------
    def pol1a_space(sz):
        return ProductSpace(matrix_space(sz[0], sz[1], Q), matrix_space(sz[1], sz[0], Q))

    def pol1a_param(sz):
        return [ParamClass("M(p,q;K)", matrix_space(sz[0], sz[1], Q), "full"),
                ParamClass("M(p,q;K)", matrix_space(sz[0], sz[1], Q), "full")]

    def pol1a_alpha(sz, ps):
        a, b = ps
        return PairTriple((AlphaMap(a, b, transpose=True),
                           AlphaMap(a.transpose(), b.transpose(), transpose=True)),
                          "(A P^t B, A^t M^t B^t)")

    _add("pol1-1.a", Q, "pq", "M(p,q;K) x M(q,p;K)",
         "Gl_{2p,2q}(diag(A,B);K)/Gl_pq(A)xGl_pq(B)", pol1a_space, pol1a_param, pol1a_alpha,
         polarized=True)

    def pol1b_param(sz):
        return [ParamClass("M(p,p;K)", matrix_space(sz[0], sz[0], Q), "full"),
                ParamClass("M(q,q;K)", matrix_space(sz[1], sz[1], Q), "full")]

    def pol1b_alpha(sz, ps):
        a, b = ps
        return PairTriple((AlphaMap(a, b), AlphaMap(b, a)), "(A P B, B M A)")

    _add("pol1-1.b", Q, "pq", "M(p,q;K) x M(q,p;K)",
         "Gl_{p+q}(diag(A,B);K)/Gl_p(A)xGl_q(B)", pol1a_space, pol1b_param, pol1b_alpha,
         polarized=True)

    def _conjugated_pair_alpha(delta, sign, name):
        """alpha(P, M) = (sign * delta(A)^t P A, sign * A M delta(A)^t)."""

        def build(sz, ps):
            a = ps[0]
            at = a.dagger(delta)
            return PairTriple((AlphaMap(at, a, sign=sign), AlphaMap(a, at, sign=sign)), name)

        return build

    def _square_pair(space_fn, ring):
        def build(sz):
            s = space_fn(sz[0])
            return ProductSpace(s, s)

        return build

    _add("pol1-2", Q, "n", "Sym(n,K) x Sym(n,K)", "Sp_n((0,A;-A^t,0);K)/Gl_n(A;K)",
         _square_pair(lambda n: sym_space(n, Q), Q),
         lambda sz: [ParamClass("M(n,n;K)", matrix_space(sz[0], sz[0], Q), "full")],
         _conjugated_pair_alpha("id", -1, "(-id(A)^t P A, ...)"), polarized=True)
    _add("pol1-3", Q, "n", "Asym(n,K) x Asym(n,K)", "O_2n((0,A;A^t,0);K)/Gl_n(A;K)",
         _square_pair(lambda n: asym_space(n, Q), Q),
         lambda sz: [ParamClass("M(n,n;K)", matrix_space(sz[0], sz[0], Q), "full")],
         _conjugated_pair_alpha("id", 1, "(id(A)^t P A, ...)"), polarized=True)
    _add("pol1-1.1", QI, "n", "Herm(n,C) x Herm(n,C)", "U_2n((0,A;conj(A)^t,0);C)/Gl_n(A;C)",
         _square_pair(lambda n: herm_space(n, QI, "conj"), QI),
         lambda sz: [ParamClass("M(n,n;C)", matrix_space(sz[0], sz[0], QI), "full")],
         _conjugated_pair_alpha("conj", 1, "(conj(A)^t P A, ...)"), polarized=True)
    _add("pol1-3.1", HQ, "n", "Herm(n,H) x Herm(n,H)", "U_2n((0,A;qconj(A)^t,0);H)/Gl_n(A;H)",
         _square_pair(lambda n: herm_space(n, HQ, "qconj"), HQ),
         lambda sz: [ParamClass("M(n,n;H)", matrix_space(sz[0], sz[0], HQ), "full")],
         _conjugated_pair_alpha("qconj", 1, "(qconj(A)^t P A, ...)"), polarized=True)
    _add("pol1-2.2", HQ, "n", "Herm(n,H~) x Herm(n,H~)", "U_2n((0,A;split(A)^t,0);H~)/Gl_n(A;H)",
         _square_pair(lambda n: herm_space(n, HQ, "qsplit"), HQ),
         lambda sz: [ParamClass("M(n,n;H)", matrix_space(sz[0], sz[0], HQ), "full")],
         _conjugated_pair_alpha("qsplit", 1, "(qsplit(A)^t P A, ...)"), polarized=True)

    # ---- twisted polarized table (rectangular sizes p, q) ----------------
    def pol2_1_space(sz):
        p, q = sz
        return ProductSpace(matrix_space(p, q, Q), matrix_space(p, q, Q))

    def pol2_1_param(sz):
        p, q = sz
        return [ParamClass("M(q,p;K)", matrix_space(q, p, Q), "full"),
                ParamClass("M(q,p;K)", matrix_space(q, p, Q), "full")]

    _add("pol2-1", Q, "pq", "M(p,q;K) x M(p,q;K)",
         "Gl(diag(A,B);K)/Gl(A)xGl(B)", pol2_1_space, pol2_1_param, pol1b_alpha,
         polarized=True)

    def _rect_pair(space_fn, ring, delta, sign, name):
        def space(sz):
            return ProductSpace(space_fn(sz[0], ring), space_fn(sz[1], ring))

        def param(sz):
            return [ParamClass("M(p,q)", matrix_space(sz[0], sz[1], ring), "full")]

        return space, param, _conjugated_pair_alpha(delta, sign, name)

    s, p, a = _rect_pair(lambda n, r: sym_space(n, r), Q, "id", -1, "(-A^t P A, -A M A^t)")
    _add("pol2-2", Q, "pq", "Sym(p,K) x Sym(q,K)", "Sp((0,A;-A^t,0);K)/Gl_pq(A;K)", s, p, a,
         polarized=True)
    s, p, a = _rect_pair(lambda n, r: asym_space(n, r), Q, "id", 1, "(A^t P A, A M A^t)")
    _add("pol2-3", Q, "pq", "Asym(p,K) x Asym(q,K)", "O((0,A;A^t,0);K)/Gl_pq(A;K)", s, p, a,
         polarized=True)
    s, p, a = _rect_pair(lambda n, r: herm_space(n, r, "conj"), QI, "conj", 1,
                         "(conj(A)^t P A, A M conj(A)^t)")
    _add("pol2-1.1", QI, "pq", "Herm(p,C) x Herm(q,C)", "U((0,A;conj(A)^t,0);C)/Gl_pq(A;C)",
         s, p, a, polarized=True)
    s, p, a = _rect_pair(lambda n, r: herm_space(n, r, "qconj"), HQ, "qconj", 1,
                         "(qconj(A)^t P A, A M qconj(A)^t)")
    _add("pol2-3.1", HQ, "pq", "Herm(p,H) x Herm(q,H)", "U((0,A;qconj(A)^t,0);H)/Gl_pq(A;H)",
         s, p, a, polarized=True)
    s, p, a = _rect_pair(lambda n, r: herm_space(n, r, "qsplit"), HQ, "qsplit", 1,
                         "(split(A)^t P A, A M split(A)^t)")
    _add("pol2-2.2", HQ, "pq", "Herm(p,H~) x Herm(q,H~)", "U((0,A;split(A)^t,0);H~)/Gl_pq(A;H)",
         s, p, a, polarized=True)


_build_catalog()


def family(label: str) -> FamilyDescriptor:
    if label not in _CATALOG:
        raise KeyError(f"unknown family label {label!r}")
    return _CATALOG[label]


def family_labels():
    return sorted(_CATALOG)


def family_axiom_suite(label: str, sizes, samples: int, seed: int) -> dict:
    """Run the LTS axiom suite (closure, LT1-LT3) over seeded parameters."""
    desc = family(label)
    rng = random.Random(seed)
    results = []
    ok = True
    for idx, style in enumerate(sample_styles(samples)):
        params = desc.sample_params(sizes, rng, style)
        system = desc.system(sizes, params)
        report = check_lts(system)
        ok = ok and report.ok
        results.append({
            "sample": idx,
            "rank_style": style,
            "pass": report.ok,
            "axioms": report.to_json(system if not report.ok else None),
        })
    return {
        "family": label,
        "sizes": list(sizes),
        "dim": desc.space(sizes).dim if samples else None,
        "samples": samples,
        "seed": seed,
        "pass": ok,
        "results": results,
    }


# -- the four two-involution constructions ---------------------------------


@dataclass
class ModelPiece:
    signs: tuple
    name: str
    maps: list  # list of (model Subspace, embedding fn Matrix -> Matrix)

    def model_dim(self) -> int:
        return sum(m.dim for m, _ in self.maps)

    def image_matrices(self):
        out = []
        for model, emb in self.maps:
            out.extend(emb(b) for b in model.basis_matrices())
        return out


@dataclass
class ConstructionDescriptor:
    name: str
    sizes: tuple
    ambient: tuple
    tau: MatrixInvolution
    tau_tilde: MatrixInvolution
    decomposition: JointDecomposition
    models: dict
    notes: list = field(default_factory=list)

    def piece(self, signs) -> Subspace:
        return self.decomposition.piece(signs)

    def dims(self) -> dict:
        return {signs: self.decomposition.pieces[signs].dim for signs in SIGNS}

    def validate_models(self):
        """Each model maps bijectively onto its computed piece."""
        failures = []
        for signs, model in self.models.items():
            piece = self.piece(signs)
            imgs = model.image_matrices()
            if not imgs:
                if piece.dim != 0:
                    failures.append((signs, "empty model for nonzero piece"))
                continue
            span = Subspace.span(imgs)
            if span.dim != model.model_dim():
                failures.append((signs, "model map is not injective"))
            if span != piece:
                failures.append((signs, "model image differs from computed piece"))
        return failures


SIGNS = ((1, 1), (-1, 1), (1, -1), (-1, -1))


def _realify(m: Matrix) -> Matrix:
    """Sym/Herm-compatible realification a + ib -> [[a, b], [-b, a]]."""
    a, b = (Matrix.from_numerators(Q, m.a[..., c:c + 1], m.den) for c in (0, 1))
    return Matrix.block([[a, b], [-b, a]])


def _embed_in_h(m: Matrix, slots: list) -> Matrix:
    """The quaternion matrix with the two components of the Q(i) matrix m in
    the components ``slots`` (of 1, i, j, k)."""
    num = np.zeros((m.rows, m.cols, 4), m.a.dtype)
    num[..., slots] = m.a
    return Matrix.from_numerators(HQ, num, m.den)


def _embed_c_in_h(m: Matrix) -> Matrix:
    """C = R + jR inside the quaternions: x + iy -> x + jy, entrywise."""
    return _embed_in_h(m, [0, 2])


def _embed_ic_in_h(m: Matrix) -> Matrix:
    """x + iy -> xi + yk (the i-multiple of the embedded copy of C)."""
    return _embed_in_h(m, [1, 3])


def quat_complex_embedding(m: Matrix) -> Matrix:
    """M(n,n;H) -> M(2n,2n;C): A0+A1 i+A2 j+A3 k -> [[a, b], [-conj(b), conj(a)]]
    with a = A0 + i A1, b = A2 + i A3.  Multiplicative (tested)."""
    a, b = (Matrix.from_numerators(QI, m.a[..., c:c + 2], m.den) for c in (0, 2))
    return Matrix.block([[a, b], [-b.conjugate("conj"), a.conjugate("conj")]])


def quat_split_embedding(m: Matrix) -> Matrix:
    """Complex realization of M(n,n;H) aligned with the split involution.

    The standard embedding composed with entrywise conjugation by the unit
    j + k (an inner automorphism of H fixing 1, negating i and swapping
    j <-> k), chosen so that X -> I X^t I^{-1} on the image pulls back to
    the split adjoint X -> qsplit(X)^t on M(n,n;H).
    """
    u = Scalar.unflatten(HQ, (0, 0, 1, 1))
    uinv = u.inverse()
    return quat_complex_embedding(m.scalar_mul(u).scalar_mul(uinv, "right"))


def _block_embed(p, q, pos, ring=Q):
    """Embed a block into the (pos) block of a (p+q) x (p+q) matrix."""
    r0, c0 = {"tl": (0, 0), "br": (p, p), "tr": (0, p), "bl": (p, 0)}[pos]

    def emb(m: Matrix) -> Matrix:
        num = np.zeros((p + q, p + q, ring_components(ring)), m.a.dtype)
        num[r0:r0 + m.rows, c0:c0 + m.cols] = m.a
        return Matrix.from_numerators(ring, num, m.den)

    return emb


def instantiate(name: str, sizes) -> ConstructionDescriptor:
    if name == "proj":
        p, q = sizes
        if p < 1 or q < 1:
            raise ValueError("proj needs p, q >= 1")
        n = p + q
        tau = MatrixInvolution.transpose_inv(n, Q)
        tau_t = MatrixInvolution("anti", "id", n, Q, twist=block_Ipq(p, q))
        dec = joint_eigenspaces([tau, tau_t])
        tl, br, tr, bl = (_block_embed(p, q, pos) for pos in ("tl", "br", "tr", "bl"))

        def offdiag_plus(a: Matrix) -> Matrix:
            return tr(a) + bl(a.transpose())

        def offdiag_minus(y: Matrix) -> Matrix:
            return tr(y.transpose()) + bl(-y)

        models = {
            (1, 1): ModelPiece((1, 1), "Sym(p,K) + Sym(q,K)",
                               [(sym_space(p, Q), tl), (sym_space(q, Q), br)]),
            (1, -1): ModelPiece((1, -1), "M(p,q;K)",
                                [(matrix_space(p, q, Q), offdiag_plus)]),
            (-1, 1): ModelPiece((-1, 1), "M(q,p;K)",
                                [(matrix_space(q, p, Q), offdiag_minus)]),
            (-1, -1): ModelPiece((-1, -1), "Asym(p,K) + Asym(q,K)",
                                 [(asym_space(p, Q), tl), (asym_space(q, Q), br)]),
        }
        notes = ["the (-1,-1) piece is Asym(p) + Asym(q); the source text prints "
                 "Asym(n) + Asym(n), which contradicts the dimension count"]
        return ConstructionDescriptor("proj", sizes, (n, n, Q), tau, tau_t, dec, models, notes)

    if name == "siegel":
        (n,) = sizes
        if n < 1:
            raise ValueError("siegel needs n >= 1")
        base = MatrixInvolution.transpose_inv(2 * n, Q)
        tau = MatrixInvolution("anti", "id", 2 * n, Q, twist=block_I(n))
        tau_t = MatrixInvolution("anti", "id", 2 * n, Q, twist=block_F(n))
        dec = joint_eigenspaces([tau, tau_t])
        i_mat, f_mat = block_I(n), block_F(n)
        models = {
            (1, 1): ModelPiece((1, 1), "Sym(n,C)", [(sym_space(n, QI), _realify)]),
            (1, -1): ModelPiece((1, -1), "I Herm(n,C)",
                                [(herm_space(n, QI, "conj"), lambda m: i_mat @ _realify(m))]),
            (-1, 1): ModelPiece((-1, 1), "F Herm(n,C)",
                                [(herm_space(n, QI, "conj"), lambda m: f_mat @ _realify(m))]),
            (-1, -1): ModelPiece((-1, -1), "Asym(n,C)", [(asym_space(n, QI), _realify)]),
        }
        return ConstructionDescriptor("siegel", sizes, (2 * n, 2 * n, Q), tau, tau_t, dec, models)

    if name == "quat1":
        (n,) = sizes
        if n < 1:
            raise ValueError("quat1 needs n >= 1")
        tau = MatrixInvolution.transpose_inv(n, HQ, "qconj")
        tau_t = MatrixInvolution.transpose_inv(n, HQ, "qsplit")
        dec = joint_eigenspaces([tau, tau_t])
        models = {
            (1, 1): ModelPiece((1, 1), "Herm(n,C)",
                               [(herm_space(n, QI, "conj"), _embed_c_in_h)]),
            (-1, 1): ModelPiece((-1, 1), "i Sym(n,C)",
                                [(sym_space(n, QI), _embed_ic_in_h)]),
            (1, -1): ModelPiece((1, -1), "i Asym(n,C)",
                                [(asym_space(n, QI), _embed_ic_in_h)]),
            (-1, -1): ModelPiece((-1, -1), "Aherm(n,C)",
                                 [(aherm_space(n, QI, "conj"), _embed_c_in_h)]),
        }
        return ConstructionDescriptor("quat1", sizes, (n, n, HQ), tau, tau_t, dec, models)

    if name == "quat2":
        (n,) = sizes
        if n < 1:
            raise ValueError("quat2 needs n >= 1")
        tau = MatrixInvolution("anti", "id", 2 * n, QI, twist=block_I(n, QI))
        tau_t = MatrixInvolution("anti", "conj", 2 * n, QI, twist=block_F(n, QI))
        dec = joint_eigenspaces([tau, tau_t])
        i_unit = Scalar(QI, (0, 1))

        def emb(m):
            return quat_split_embedding(m)

        def i_emb(m):
            return quat_split_embedding(m).scalar_mul(i_unit)

        models = {
            (1, 1): ModelPiece((1, 1), "Herm(n,H~) = j Aherm(n,H)",
                               [(herm_space(n, HQ, "qsplit"), emb)]),
            (-1, 1): ModelPiece((-1, 1), "i Aherm(n,H~) = i j Herm(n,H)",
                                [(aherm_space(n, HQ, "qsplit"), i_emb)]),
            (1, -1): ModelPiece((1, -1), "i Herm(n,H~) = i j Aherm(n,H)",
                                [(herm_space(n, HQ, "qsplit"), i_emb)]),
            (-1, -1): ModelPiece((-1, -1), "Aherm(n,H~) = j Herm(n,H)",
                                 [(aherm_space(n, HQ, "qsplit"), emb)]),
        }
        return ConstructionDescriptor("quat2", sizes, (2 * n, 2 * n, QI), tau, tau_t, dec, models)

    raise ValueError(f"unknown construction {name!r}")


CONSTRUCTIONS = ("proj", "siegel", "quat1", "quat2")


# -- the verified 4x4 table -------------------------------------------------


@dataclass
class TableArtifact:
    construction: str
    sizes: tuple
    samples: int
    seed: int
    dims: dict
    cells: list
    notes: list

    @property
    def verified(self) -> bool:
        return all(c["verified"] for c in self.cells) if self.samples else True

    def to_json(self) -> dict:
        return {
            "construction": self.construction,
            "sizes": list(self.sizes),
            "samples": self.samples,
            "seed": self.seed,
            "dims": {str(list(k)): v for k, v in sorted(self.dims.items())},
            "cells": self.cells,
            "notes": self.notes,
            "verified": self.verified,
        }

    def to_markdown(self) -> str:
        head = [f"# {self.construction}{list(self.sizes)} table "
                f"(samples={self.samples}, seed={self.seed})", ""]
        cols = " | ".join(f"A in {s}" for s in map(str, SIGNS))
        head.append(f"| LTS \\ param | {cols} |")
        head.append("|---" * 5 + "|")
        bycell = {(tuple(c["space"]), tuple(c["param"])): c for c in self.cells}
        for s in SIGNS:
            row = [f"| {s}"]
            for t in SIGNS:
                c = bycell[(s, t)]
                mark = "ok" if c["verified"] else "FAIL"
                kind = c["kind"]
                extra = " (x2)" if c.get("double_group_type") else ""
                row.append(f" {kind}{extra}: {mark}")
            head.append(" |".join(row) + " |")
        if self.notes:
            head.append("")
            for note in self.notes:
                head.append(f"- {note}")
        return "\n".join(head) + "\n"


def verify_table(c: ConstructionDescriptor, samples: int, seed: int) -> TableArtifact:
    """Verify all 16 (space, parameter) cells: closure + LTS axioms on the
    space piece, symmetric-pair invariants, group-type flags on the
    antidiagonal, and the double group-type splitting of the proj middle
    square."""
    rng = random.Random(seed)
    cells = {(s, t): {"space": list(s), "param": list(t), "kind":
                      "group-type" if s == tuple(-x for x in t) else "symmetric-pair",
                      "verified": True, "dims": None, "failures": []}
             for s in SIGNS for t in SIGNS}
    for t in SIGNS:
        piece_t = c.piece(t)
        cls = ParamClass(str(t), piece_t, "piece")
        for style in sample_styles(samples):
            a = cls.sample(rng, style)
            for s in SIGNS:
                cell = cells[(s, t)]
                system = TripleSystem.from_parameter(c.piece(s), a)
                report = check_lts(system)
                if not report.ok:
                    cell["verified"] = False
                    cell["failures"].append(
                        {"style": style, "axioms": [e["axiom"] for e in report.failing()]})
                rec = symmetric_pair(c.decomposition, s, t, a)
                if not rec.verified:
                    cell["verified"] = False
                    cell["failures"].append({"style": style, "pair": rec.failures})
                if cell["dims"] is None:
                    cell["dims"] = {"g": rec.g.dim, "h": rec.h.dim, "m": rec.m.dim,
                                    "group_type": rec.group_type}
            if c.name == "proj":
                _check_proj_middle(c, a, t, cells, style)
    return TableArtifact(c.name, c.sizes, samples, seed, c.dims(),
                         [cells[(s, t)] for s in SIGNS for t in SIGNS], list(c.notes))


def _check_proj_middle(c: ConstructionDescriptor, a: Matrix, t, cells, style):
    """For A in a middle piece, the Lie algebra on the anti-fixed space of phi
    splits as a direct product of the two off-diagonal block algebras: each
    block is closed under [.,.]_A and the blocks commute."""
    middle = ((-1, 1), (1, -1))
    if t not in middle:
        return
    p, q = c.sizes
    n = p + q
    tr_space = Subspace.span([Matrix.elementary(n, n, i, p + j, Q) for i in range(p) for j in range(q)])
    bl_space = Subspace.span([Matrix.elementary(n, n, p + i, j, Q) for i in range(q) for j in range(p)])
    ok = (bracket_closure(tr_space, tr_space, tr_space, a) and bracket_closure(bl_space, bl_space, bl_space, a)
          and bracket_closure(tr_space, bl_space, Subspace.zero((n, n, Q)), a))
    for s in middle:
        cell = cells[(s, t)]
        if s == t:
            cell["double_group_type"] = True
            if not ok:
                cell["verified"] = False
                cell["failures"].append({"style": style, "pair": ["direct-product splitting"]})


# -- quaternion identities --------------------------------------------------


def hermquat_check(n: int) -> bool:
    """j Herm(n,H) = Aherm(n,H~) and j Aherm(n,H) = Herm(n,H~), exactly."""
    j = Scalar(HQ, (0, 0, 1, 0))

    def jspan(space: Subspace) -> Subspace:
        return Subspace.span([b.scalar_mul(j) for b in space.basis_matrices()])

    first = jspan(herm_space(n, HQ, "qconj")) == aherm_space(n, HQ, "qsplit")
    second = jspan(aherm_space(n, HQ, "qconj")) == herm_space(n, HQ, "qsplit")
    return first and second
