"""Declarative involutions and automorphisms of matrix algebras, with exact
single and joint eigenspace decompositions.

A ``MatrixInvolution`` acts by X -> B * core(X) * B^{-1} where core(X) is
delta(X)^t for an antiautomorphism (delta an entrywise base involution) or
delta(X) for an automorphism.  Construction validates involutivity and the
(anti)morphism property on the elementary-matrix basis, so malformed
declarations are rejected eagerly.

The action is one declared sandwich (``kernel.AlphaMap``), applied alike to
one ``Matrix`` and to a stack of them.  The maps are Q-linear, so the action
on flattened coordinates is the image of the stacked unit matrices
(``MatrixInvolution.action``); composites, commutation and the eigenspace
projections are exact integer matrix products on flattened coordinates.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import prod

import numpy as np

from . import kernel
from .matrices import Matrix, Subspace
from .scalars import BASE_INVOLUTIONS, CONJ_SIGNS, Q, ring_components


class MatrixInvolution:
    """An involutive (anti)automorphism of M(n, n; ring)."""

    __slots__ = ("kind", "delta", "twist", "n", "ring", "_sandwich", "_action")

    def __init__(self, kind: str, delta: str, n: int, ring, twist: Matrix | None = None, validate: bool = True):
        if kind not in ("anti", "auto"):
            raise ValueError("kind must be 'anti' or 'auto'")
        if delta not in BASE_INVOLUTIONS:
            raise ValueError(f"unknown base involution {delta!r}")
        if (ring, delta) not in CONJ_SIGNS:
            raise ValueError(f"base involution {delta!r} is not defined over {ring}")
        self.kind = kind
        self.delta = delta
        self.n = n
        self.ring = ring
        self.twist = twist
        self._sandwich = kernel.AlphaMap(twist, twist.inverse() if twist is not None else None, delta, kind == "anti")
        self._action = None
        if validate:
            self._validate()

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def transpose_inv(n: int, ring, delta: str = "id") -> "MatrixInvolution":
        """The basic involution X -> delta(X)^t."""
        return MatrixInvolution("anti", delta, n, ring)

    # -- action ------------------------------------------------------------

    def __call__(self, x: kernel.Arr) -> kernel.Arr:
        """The declared action on the matrix ``x``, or on every matrix of the
        stack ``x`` (exact, one sandwich)."""
        if x.a.shape[-3:-1] != (self.n, self.n) or x.ring != self.ring:
            raise ValueError("matrix does not live in this involution's algebra")
        return self._sandwich(x)

    def dim(self) -> int:
        """Q-dimension of the algebra the involution acts on."""
        return self.n * self.n * ring_components(self.ring)

    def action(self) -> kernel.Arr:
        """This map on flattened coordinates, as an exact (dim, dim, 1) tensor
        over Q whose column b is the image of the b-th unit matrix: the
        declared action on the stacked unit matrices, one sandwich."""
        if self._action is None:
            images = kernel.flatten_last(self(self._units()))
            self._action = kernel.Arr(images.a.T[..., None], images.den, images.bound, Q)
        return self._action

    def _units(self) -> kernel.Arr:
        dim = self.dim()
        return kernel.Arr(kernel.fit(np.eye(dim), 1).reshape(dim, self.n, self.n, -1), 1, 1, self.ring)

    def _validate(self):
        act = self.action()
        if not kernel.equal(kernel.matrix_mul(act, act), Matrix.identity(self.dim(), Q)):
            raise ValueError("declared action is not involutive")
        # (anti)morphism property, batched over all basis pairs
        units = self._units()
        images = self(units)
        got = self(kernel.matrix_mul(units[:, None], units[None]))
        # tau(e_s e_t) = tau(e_s) tau(e_t), or tau(e_t) tau(e_s) for an antimorphism
        lhs, rhs = (images[None], images[:, None]) if self.kind == "anti" else (images[:, None], images[None])
        if not kernel.equal(got, kernel.matrix_mul(lhs, rhs)).all():
            raise ValueError(f"declared action is not an {self.kind}morphism")

    def commutes_with(self, other: "MatrixInvolution") -> bool:
        if (self.n, self.ring) != (other.n, other.ring):
            raise ValueError("ambient mismatch")
        a, b = self.action(), other.action()
        return bool(kernel.equal(kernel.matrix_mul(a, b), kernel.matrix_mul(b, a)))

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "delta": self.delta,
            "transpose": self.kind == "anti",
            "twist": "identity" if self.twist is None else self.twist.to_json(),
        }


def commute(tau: MatrixInvolution, sigma: MatrixInvolution) -> bool:
    return tau.commutes_with(sigma)


class JointDecomposition:
    """Joint eigenspace decomposition of k pairwise commuting involutions."""

    __slots__ = ("involutions", "pieces", "ambient", "_direct")

    def __init__(self, involutions, pieces):
        self.involutions = tuple(involutions)
        self.pieces = dict(pieces)
        inv0 = self.involutions[0]
        self.ambient = (inv0.n, inv0.n, inv0.ring)
        self._direct = None

    def piece(self, signs) -> Subspace:
        return self.pieces[tuple(signs)]

    def piece_of(self, a: Matrix):
        """The sign vector whose piece contains ``a``, or None."""
        for signs, sub in self.pieces.items():
            if sub.contains(a):
                return signs
        return None

    def dims(self) -> dict:
        return {signs: sub.dim for signs, sub in self.pieces.items()}

    def check_direct_sum(self) -> bool:
        """The algebra is the direct sum of the pieces: their dims add up to
        its dim N, and all their bases together span a space of dim N.
        Decided once per decomposition: one ``Subspace.sum`` of all pieces."""
        if self._direct is None:
            first, *rest = self.pieces.values()
            total = first.ambient_dim
            self._direct = sum(p.dim for p in self.pieces.values()) == total and first.sum(*rest).dim == total
        return self._direct


def joint_eigenspaces(involutions) -> JointDecomposition:
    """Exact joint eigenspaces: the piece with signs s is spanned by the
    columns of the projection prod_i (1 + s_i tau_i) / 2."""
    involutions = list(involutions)
    if not involutions:
        raise ValueError("need at least one involution")
    for i, t in enumerate(involutions):
        for s in involutions[i + 1:]:
            if not t.commutes_with(s):
                raise ValueError("involutions do not pairwise commute")
    inv0 = involutions[0]
    ambient = (inv0.n, inv0.n, inv0.ring)
    # composites[mask]: the product of the tau_i with bit i set in mask
    composites = [Matrix.identity(inv0.dim(), Q)]
    for tau in involutions:
        act = tau.action()
        composites += [act] + [kernel.matrix_mul(act, c) for c in composites[1:]]
    pieces = {}
    for signs in iproduct((1, -1), repeat=len(involutions)):
        # 2^k times the projection, up to a positive factor that keeps the span
        proj = composites[0]
        for mask, c in enumerate(composites[1:], 1):
            proj = proj + (c if prod(s for i, s in enumerate(signs) if mask >> i & 1) > 0 else -c)
        columns = kernel.int_rows(proj.a[..., 0].T)
        pieces[signs] = Subspace(ambient, [c for c in columns if any(c)])
    return JointDecomposition(involutions, pieces)
