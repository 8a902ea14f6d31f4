"""Deformed brackets and triple brackets, LTS axiom verification, symmetric
pairs, c-duality, the parameter-space action, and the standard imbedding.

The triple bracket always has the shape

    [X, Y, Z] = T(X, alpha(Y), Z) - T(Y, alpha(X), Z),
    T(X, W, Z) = X W Z + Z W X,

with alpha(V) = A V A recovering the parameter form
(XAYAZ + ZAYAX) - (YAXAZ + ZAXAY).  Polarized systems use pairs (X, X') with
T acting componentwise against the opposite component of the middle argument.
Every alpha map, and every intertwiner psi, is a declared sandwich
``kernel.AlphaMap``, which this module re-exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import NamedTuple

import numpy as np

from . import kernel
from .kernel import AlphaMap, Arr
from .matrices import Matrix, Subspace


# -- basic products --------------------------------------------------------


def bracket_param(x: Matrix, y: Matrix, a: Matrix) -> Matrix:
    """[X, Y]_A = XAY - YAX."""
    return x @ a @ y - y @ a @ x


def ternary_t(x: Matrix, w: Matrix, z: Matrix) -> Matrix:
    """T(X, W, Z) = XWZ + ZWX."""
    return x @ w @ z + z @ w @ x


def triple_param(x: Matrix, y: Matrix, z: Matrix, a: Matrix) -> Matrix:
    """[X, Y, Z]_A = (XAYAZ + ZAYAX) - (YAXAZ + ZAXAY)."""
    return ternary_t(x, a @ y @ a, z) - ternary_t(y, a @ x @ a, z)


def triple_alpha(x: Matrix, y: Matrix, z: Matrix, alpha) -> Matrix:
    """[X, Y, Z]_alpha = T(X, alpha(Y), Z) - T(Y, alpha(X), Z)."""
    return ternary_t(x, alpha(y), z) - ternary_t(y, alpha(x), z)


# -- product objects --------------------------------------------------------


class AlphaTriple:
    """Triple bracket on a matrix space given by an alpha map."""

    def __init__(self, alpha: AlphaMap):
        self.alpha = alpha

    def eval(self, x, y, z):
        return triple_alpha(x, y, z, self.alpha)

    def middle_images(self, basis):
        """alpha of each basis matrix, one ``Matrix`` at a time."""
        return [self.alpha(b) for b in basis]

    def structure(self, space) -> "Structure":
        """The structure constants over the basis of ``space``, with the middle
        images of the whole basis from one ``AlphaMap`` call; the zero one
        when every image is zero (``TripleSystem.structure``), or at once when
        a factor of the sandwich is (``_zero_factor``)."""
        if _zero_factor(self.alpha):
            return _vanishing(space)
        basis = space.basis_arr()
        middles = self.alpha(basis)
        if middles.is_zero().all():
            return _vanishing(space)
        flat = kernel.flatten_last(_triples(basis, middles))
        return _structure(flat, *space.flat_coordinates(flat))

    def negated(self) -> "AlphaTriple":
        return AlphaTriple(self.alpha.negated())


class PairTriple:
    """Polarized triple bracket on pairs (X, X'):

    T((X,X'),(Y,Y'),(Z,Z')) = (X Y' Z + Z Y' X,  X' Y Z' + Z' Y X'),
    [u, v, w] = T(u, alpha(v), w) - T(v, alpha(u), w),

    where alpha(X, X') = (alpha_+(X), alpha_-(X')) for the pair ``alphas`` of
    ``AlphaMap``s, one per component, and the identity when ``alphas`` is None.

    The bracket is graded (O. Loos, *Jordan Pairs*, LNM 460, 1975): with P
    and M the plus and the minus basis pairs, [P, M, P] lies in V+,
    [M, P, M] in V-, [M, P, P] and [P, M, M] are their negatives with the
    first two arguments swapped, and every other block is zero, since each
    term of T multiplies a component of its first argument by the opposite
    component of its second.  ``structure`` computes the two nonzero blocks
    only.
    """

    def __init__(self, alphas=None):
        self.alphas = alphas

    def _alpha(self, u):
        return u if self.alphas is None else tuple(f(x) for f, x in zip(self.alphas, u))

    @staticmethod
    def t(u, v, w):
        x, xp = u
        y, yp = v
        z, zp = w
        return (ternary_t(x, yp, z), ternary_t(xp, y, zp))

    def eval(self, u, v, w):
        av, au = self._alpha(v), self._alpha(u)
        p1 = PairTriple.t(u, av, w)
        p2 = PairTriple.t(v, au, w)
        return (p1[0] - p2[0], p1[1] - p2[1])

    def structure(self, space: "ProductSpace") -> "Structure":
        """The structure constants over the basis pairs of ``space`` (plus,
        then minus), kept on their two nonzero blocks (``Structure.blocks``):
        v+ = t_tensor(B+, alpha_-(B-)), the block [P, M, P], in V+, and
        v- = t_tensor(B-, alpha_+(B+)), the block [M, P, M], in V-, each with
        one ``coordinates`` against its grade's own basis, both over one
        denominator and bound (those of the whole flattened tensor).  The
        closure flags of the two blocks and of their mirrors [M, P, P] and
        [P, M, M] give the verdict and the witness, and the dense
        coordinates (``_dense``) are built only for a closed structure, which
        LT3 reads; the dense products only when read (``Structure.flat``).
        When a grade is empty both blocks are, and when the middle images of
        both grades are zero (or both alphas have a zero factor,
        ``_zero_factor``) each term of both blocks has a zero middle factor:
        either way the structure is the zero one (``_vanishing``)."""
        if 0 in (space.plus.dim, space.minus.dim) or (
                self.alphas is not None and all(map(_zero_factor, self.alphas))):
            return _vanishing(space)
        bp, bm = space.plus.basis_arr(), space.minus.basis_arr()
        wp, wm = (bp, bm) if self.alphas is None else (f(b) for f, b in zip(self.alphas, (bp, bm)))
        if wp.is_zero().all() and wm.is_zero().all():
            return _vanishing(space)
        vp, vm = kernel.t_tensor(bp, wm), kernel.t_tensor(bm, wp)
        nums, den, bound = kernel.over_lcm((vp, vm))
        s, d = len(bp.a), space.dim
        member, blocks = np.ones((d, d, d), dtype=bool), []
        # each block at [own, other, own], its mirror at [other, own, own]
        for num, grade, own, other in ((nums[0], space.plus, slice(s), slice(s, d)),
                                       (nums[1], space.minus, slice(s, d), slice(s))):
            flat = kernel.flatten_last(Arr(num, den, bound, vp.ring))
            c, m = grade.flat_coordinates(flat)
            member[own, other, own], member[other, own, own] = m, m.swapaxes(0, 1)
            blocks.append(Block(flat, c))
        coords = _dense(*(b.coords for b in blocks)) if member.all() else None
        return _structure(None, coords, member, s, tuple(blocks))

    def negated(self) -> "PairTriple":
        alphas = self.alphas or (AlphaMap(None, None),) * 2
        return PairTriple(tuple(f.negated() for f in alphas))


class GenericTriple:
    """An arbitrary ternary product: a callable built from ``Arr`` operations
    (``@``, ``+``, ``-``, ``scale``), which broadcast over leading axes, so it
    takes stacks of matrices, and gives a ``Matrix`` on three ``Matrix``."""

    def __init__(self, fn):
        self.fn = fn

    def eval(self, x, y, z):
        return self.fn(x, y, z)

    def flat(self, space) -> Arr:
        """The flattened products [b_i, b_j, b_k]: one call on the basis stack
        along each leading axis, broadcast to (d, d, d), since a product need
        not read every argument."""
        b = space.basis_arr()
        d = len(b.a)
        out = kernel.flatten_last(self.fn(b[:, None, None], b[None, :, None], b[None, None, :]))
        return Arr(np.broadcast_to(out.a, (d, d, d) + out.a.shape[-1:]), out.den, out.bound, out.ring)

    def structure(self, space) -> "Structure":
        flat = self.flat(space)
        return _structure(flat, *space.flat_coordinates(flat))

    def negated(self) -> "GenericTriple":
        return GenericTriple(lambda x, y, z: -self.fn(x, y, z))


# -- polarized carrier spaces ----------------------------------------------


class ProductSpace:
    """V+ x V- with elements stored as (plus, minus) matrix pairs.

    Flattened coordinates are the concatenation of the two flattenings.  The
    basis is the plus basis pairs (b, 0), then the minus basis pairs (0, b).
    It is block diagonal, so each grade is its own ``Subspace`` (``plus``,
    ``minus``), and the coordinates of a pair are those of its two grades
    joined.
    """

    __slots__ = ("plus", "minus")

    def __init__(self, plus: Subspace, minus: Subspace):
        self.plus = plus
        self.minus = minus

    @property
    def dim(self) -> int:
        return self.plus.dim + self.minus.dim

    @property
    def ambient_dim(self) -> int:
        return self.plus.ambient_dim + self.minus.ambient_dim

    def basis_matrices(self):
        zp = Matrix.zeros(*self.plus.ambient[:2], self.plus.ambient[2])
        zm = Matrix.zeros(*self.minus.ambient[:2], self.minus.ambient[2])
        return [(b, zm) for b in self.plus.basis_matrices()] + [(zp, b) for b in self.minus.basis_matrices()]

    def coordinates_pair(self, u):
        """Coordinates of the pair u, or None if it is outside the space."""
        plus, minus = self.plus.coordinates(u[0]), self.minus.coordinates(u[1])
        return None if plus is None or minus is None else plus + minus

    def contains(self, u) -> bool:
        return self.coordinates_pair(u) is not None


# -- structure constants ----------------------------------------------------


class Block(NamedTuple):
    """A nonzero block of a graded structure (``PairTriple``): its flattened
    products, shape (own, other, own, N_own) over the two grades' bases, and
    their coordinates in its own grade's basis, shape (own, other, own, own)."""

    flat: Arr
    coords: Arr


@dataclass
class Structure:
    """Cached structure data of a triple system.

    ``flat``: ambient flattened products [b_i, b_j, b_k], exact integers with
    a denominator.  ``coords``: coordinates in the space's basis (present only
    when the product is closed).  ``split``: for a polarized system
    (``PairTriple``) the dimension d+ of the plus grade, whose basis comes
    before the minus grade's; None for any other.  ``vanishes``: every
    product is known to be zero (``_vanishing``).

    ``blocks``: for a polarized system that does not vanish, its two nonzero
    blocks v+ = [P, M, P] and v- = [M, P, M] (``Block``), over one
    denominator and bound; None for any other.  Its ``flat`` is then built
    from them when it is first read (``_dense``): the LTS check reads the
    blocks, and the dense products only when LT2 fails (``_lt1_lt2``).
    """

    _flat: Arr | None
    coords: Arr | None
    closed: bool
    witness: tuple | None
    split: int | None = None
    vanishes: bool = False
    blocks: tuple | None = None

    @property
    def flat(self) -> Arr:
        if self._flat is None:
            self._flat = _dense(*(b.flat for b in self.blocks))
        return self._flat


def _structure(flat: Arr | None, coords: Arr | None, member: np.ndarray, split: int | None = None,
               blocks: tuple | None = None) -> Structure:
    """The ``Structure`` of the products ``flat`` (of a graded one, its
    ``blocks``), with their coordinates and the flags ``member`` of those
    that lie in the space: the witness is the first basis triple whose
    product does not."""
    if member.all():
        return Structure(flat, coords, True, None, split, blocks=blocks)
    return Structure(flat, None, False, tuple(int(v) for v in np.argwhere(~member)[0]), split, blocks=blocks)


def _dense(vp: Arr, vm: Arr) -> Arr:
    """The dense array of a graded structure from the arrays of its blocks
    (products or coordinates, ``Block``), over their one denominator and
    bound: with d+ and d- the lengths of vp and vm and n+ and n- their last
    axes, shape (d, d, d, n+ + n-), vp at [P, M, P] in the first n+ columns
    and vm at [M, P, M] in the others, each block's negative with its first
    two axes swapped at [M, P, P] resp. [P, M, M], and zeros elsewhere."""
    s, n = len(vp.a), vp.a.shape[-1]
    d = s + len(vm.a)
    out = kernel.fit(np.zeros((d, d, d, n + vm.a.shape[-1]), np.float32), vp.bound)
    for v, own, other, cols in ((vp, slice(s), slice(s, d), slice(n)), (vm, slice(s, d), slice(s), slice(n, None))):
        out[own, other, own, cols], out[other, own, own, cols] = v.a, -v.a.swapaxes(0, 1)
    return vp._same(out)


def _zero_factor(alpha: AlphaMap) -> bool:
    """Whether the sandwich has a zero factor L or R, so that it maps every
    X to sign L twist(X)[^t] R = 0."""
    return any(f is not None and bool(f.is_zero()) for f in (alpha.left, alpha.right))


def _vanishing(space) -> Structure:
    """The structure of a product that vanishes on ``space``: zero products
    and coordinates over denominator 1, closed, with no witness.  The zero
    arrays are read-only broadcasts of one zero, so they take no memory."""
    d, graded = space.dim, isinstance(space, ProductSpace)
    ring = (space.plus if graded else space).ambient[2]
    flat, coords = (Arr(np.broadcast_to(np.float32(0), (d, d, d, n)), 1, 1, ring) for n in (space.ambient_dim, d))
    return Structure(flat, coords, True, None, space.plus.dim if graded else None, True)


class TripleSystem:
    """A subspace (or pair space) with a triple bracket and cached structure
    constants over the canonical basis."""

    def __init__(self, space, product):
        if isinstance(space, ProductSpace) and not isinstance(product, PairTriple):
            raise ValueError(f"a ProductSpace takes its product as a PairTriple, not as {type(product).__name__}")
        self.space = space
        self.product = product
        self._structure: Structure | None = None

    @staticmethod
    def from_parameter(space: Subspace, a: Matrix) -> "TripleSystem":
        return TripleSystem(space, AlphaTriple(AlphaMap.param(a)))

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis(self):
        return self.space.basis_matrices()

    def structure(self) -> Structure:
        """The structure constants over the basis, computed once.  A product
        whose middle images all vanish (every alpha(b_j) of an
        ``AlphaTriple``, both grades' images of a ``PairTriple``) is zero,
        since each term of T(x, alpha(y), z) has the middle factor alpha(y):
        its structure is the zero one, decided exactly from the d integer
        numerators of the images, with no d^3 products, antisymmetrization
        or coordinates (``Structure.vanishes``)."""
        if self._structure is None:
            self._structure = _vanishing(self.space) if self.dim == 0 else self.product.structure(self.space)
        return self._structure

    def eval(self, x, y, z):
        return self.product.eval(x, y, z)


def _triples(basis: Arr, middles: Arr) -> Arr:
    """T(b_i, w_j, b_k) - T(b_j, w_i, b_k) over basis and middle stacks (w_j
    the middle image of b_j), shape (d, d, d, rows, cols, comps)."""
    tt = kernel.t_tensor(basis, middles)
    return tt - tt._same(tt.a.swapaxes(0, 1))


def cdual(t: TripleSystem) -> TripleSystem:
    """The c-dual system: same space, negated triple bracket."""
    return TripleSystem(t.space, t.product.negated())


# -- LTS axiom verification -------------------------------------------------


@dataclass
class LtsReport:
    """The verdicts and witnesses of ``check_lts`` (``entries``, the JSON
    report)."""

    entries: list = field(default_factory=list)

    def add(self, axiom: str, ok: bool, witness=None):
        self.entries.append({"axiom": axiom, "pass": bool(ok), "witness": witness})

    @property
    def ok(self) -> bool:
        return all(e["pass"] for e in self.entries)

    def failing(self):
        return [e for e in self.entries if not e["pass"]]

    def to_json(self, system: TripleSystem | None = None) -> list:
        out = []
        for e in self.entries:
            w = None
            if e["witness"] is not None:
                idx = list(e["witness"])
                w = {"indices": idx}
                if system is not None:
                    mats = []
                    for i in idx:
                        b = system.basis()[i]
                        mats.append({"plus": b[0].to_json(), "minus": b[1].to_json()}
                                    if isinstance(b, tuple) else b.to_json())
                    w["matrices"] = mats
            out.append({"axiom": e["axiom"], "pass": e["pass"], "witness": w})
        return out


def check_lts(system: TripleSystem) -> LtsReport:
    """Verify closure and LT1-LT3 exactly; failures carry a witness tuple of
    basis indices.  BLAS runs on one thread (``kernel.one_blas_thread``).

    A vanishing product (``TripleSystem.structure``: every middle image is
    zero, so every term of T(x, alpha(y), z) is) passes all four at once:
    it is closed, and each term of the LT1, LT2 and LT3 identities is a
    product, so zero.  That is exact, decided on the integer numerators of
    the middle images, and no LT1/LT2 block, LT3 bound or operator is
    built.

    A graded structure (``Structure.blocks``) is checked on its two blocks.
    LT1 holds by their form: the block [M, P, P] of the dense products is
    the negative of [P, M, P] with its first two axes swapped, [P, M, M]
    that of [M, P, M], and every other block is zero, so every LT1 sum is
    zero.  At each nonzero grade pattern the LT2 sum is v[a, b, c] -
    v[c, b, a] of one block v, so LT2 holds exactly when each block equals
    its swap of the first and third axes (``_lt1_lt2``); that is a real
    check, since ``kernel.t_tensor`` computes the two terms of T by
    different products.  The LT3 bound reads the blocks' coordinates, of
    which the dense ones hold the entries, their negatives and zeros
    (``_check_lt3``)."""
    with kernel.one_blas_thread():
        return _check_lts(system)[0]


def _check_lts(system: TripleSystem, basis: bool = False):
    """The report, and the pairs (u, v) of the operators LT3 checked
    (``_check_lt3``; none for a vanishing product, None for an unclosed
    one): with ``basis`` a basis of the inner operators over Q."""
    report = LtsReport()
    st = system.structure()
    report.add("closure", st.closed, st.witness)
    if st.vanishes:
        for axiom in ("LT1", "LT2", "LT3"):
            report.add(axiom, True)
        return report, []
    lt1, lt2 = _lt1_lt2(st)
    report.add("LT1", lt1 is None, lt1)
    report.add("LT2", lt2 is None, lt2)
    if not st.closed:
        report.add("LT3", False, None)
        return report, None
    ok, witness, pairs = _check_lt3(st, lt1 is None, lt2 is None, basis)
    report.add("LT3", ok, witness)
    return report, pairs


# about as many products as LT1 and LT2 read per block of slabs i: on the
# lts-sweep benchmark (2 vCPUs) 2^16 took under 1 % less time than 2^15 but
# raised the peak RSS by 0.5 MB, past that of checking the whole tensor at once
LT12_BLOCK = 2**15


def _lt1_lt2(st: Structure):
    """The LT1 and LT2 witnesses of the structure (``_lt1_lt2_witnesses``).
    A graded one passes both when each block is symmetric in its first and
    third axes (``check_lts``); otherwise its dense products are built and
    the witnesses are theirs."""
    if st.blocks is not None and all(np.array_equal(b.flat.a, b.flat.a.swapaxes(0, 2)) for b in st.blocks):
        return None, None
    return _lt1_lt2_witnesses(st.flat)


def _lt1_lt2_witnesses(flat: Arr):
    """The first basis triples (i, j, k) at which the LT1 sum
    [b_i, b_j, b_k] + [b_j, b_i, b_k] and the LT2 sum
    [b_i, b_j, b_k] + [b_j, b_k, b_i] + [b_k, b_i, b_j] of the flattened
    products are nonzero, or None where an axiom holds.

    One block of slabs i at a time, of about ``LT12_BLOCK`` products, each
    in the dtype of 3 * bound (``kernel.fit``), which covers both sums; the
    loop stops once both witnesses are known.  The LT1 sum is the same at
    (j, i, k), and the LT2 sum at (j, k, i) and (k, i, j), so the first
    triple where either is nonzero has i <= j, resp. i <= j and i <= k.  A
    block whose first slab is i0 reads only j >= i0, resp. j, k >= i0:
    every triple it leaves out, and every triple of the blocks before, is
    zero or comes after that first triple, so the first nonzero block and
    its first nonzero entry give the witness."""
    a, bound = flat.a, 3 * flat.bound
    d = len(a)
    step = max(1, LT12_BLOCK // max(1, prod(a.shape[1:])))
    lt1 = lt2 = None
    for i in range(0, d, step):
        block = slice(i, i + step)
        # x[t, j - i, k] = flat[i + t, j, k] and y[t, j - i, k] = flat[j, i + t, k]
        x, y = kernel.fit(a[block, i:], bound), kernel.fit(a[i:, block].swapaxes(0, 1), bound)
        if lt1 is None:
            lt1 = _first_nonzero_triple(x + y, (i, i, 0))
        if lt2 is None:
            z = kernel.fit(np.moveaxis(a[i:, i:, block], 2, 0), bound)
            lt2 = _first_nonzero_triple(x[:, :, i:] + z + y[:, :, i:].swapaxes(1, 2), (i, i, i))
        if lt1 is not None and lt2 is not None:
            break
    return lt1, lt2


def _first_nonzero_triple(sums: np.ndarray, origin: tuple):
    """origin + (i, j, k) for the first (i, j, k) at which sums[i, j, k, :]
    is nonzero, or None."""
    if not sums.any():
        return None
    return tuple(o + int(v) for o, v in zip(origin, np.argwhere(sums)[0][:3]))


# the largest dimension at which LT3 checks every operator R(u, v) instead of
# a picked basis of them (``_check_lt3``)
LT3_ALL_PAIRS_MAX_DIM = 8


def _check_lt3(st: Structure, lt1_ok: bool, lt2_ok: bool, basis: bool = False):
    """LT3 via the inner operators R(u, v): (ok, witness, the pairs (u, v) of
    the operators checked).

    LT3 says every R(u, v) is a derivation of the triple bracket: its
    residual (below) vanishes.  ``kernel.independent_row_indices`` picks
    operators of ``_inner_operators`` modulo a prime p and certifies the pick
    up to the cover ``_lt3_bound``: every R(u, v) is congruent to a combination
    of the picked operators modulo each checked prime q (p among them), and
    the product of the q exceeds the bound.  The residual is Z-linear in the
    operator, so once the picked operators pass, the residual of every
    R(u, v) is congruent to 0 modulo each q; it is an integer with
    |residual| <= bound < prod q, so it is 0.  The picked operators are
    independent over Q but need not span the others over Q.  With ``basis``
    (``standard_imbedding``) the pick is certified behind the Hadamard cover
    instead (``cover=None``) at every d, so it is a basis of the operators
    over Q; it spans every R(u, v) over Q, which proves LT3 too.

    Up to d = ``LT3_ALL_PAIRS_MAX_DIM`` every nonzero R(u, v) is checked
    instead, with no pick and no certificate.  That is the crossover
    measured on the LT3 checks of the lts-sweep benchmark (seeds 42 and 7,
    one BLAS thread): at d = 8 checking every operator took 8.8 and 8.1 ms
    against 12.2 and 11.2 ms for the pick, at d = 9 it took 5.4 and 5.8 ms
    against 4.7 and 4.7 ms, and from d = 10 on the pick won by more, since
    the operators outnumber their span more.  One scan (``_lt3_first``)
    gives the verdict on the checked operators; on failure the same scan of
    every nonzero R(u, v), over the pairs the check used (u < v with LT1,
    every ordered pair without) in order, gives the first failing pair, and
    of that one operator over every triple its lexicographically first
    failing triple: the witness.

    The residual of a linear operator D,

        r(x, y, z) = D[x, y, z] - [Dx, y, z] - [x, Dy, z] - [x, y, Dz],

    is antisymmetric in (x, y) when LT1 holds (each term is), and its cyclic
    sum vanishes when LT2 holds (the nine bracket terms regroup into three
    cyclic sums, and the D term is D of one).  Such an r is zero once it is
    zero at the basis triples (i, j, k) with i < j and i <= k, the (2, 1)
    hook: for a < b and c < a, r(a, b, c) = r(c, b, a) - r(c, a, b).  That
    argument holds for any order of the basis; in the reversed order it
    gives the triples i > j, i >= k, and by the antisymmetry in (x, y) r is
    zero there exactly when it is zero at the triples i < j, k <= j.  Those
    are checked when both axioms hold, (d^3 - d)/3 of them: for each j the
    rectangle i < j, k <= j, on which each term of the residual is one GEMM
    on a view of the coordinates (``_lt3_slab``).  Otherwise all d^3
    triples are checked.

    A graded system (``Structure.split`` s, a polarized one with its d+ = s
    plus pairs first) has c[i, j, k, m] = 0 unless grade(i) != grade(j) and
    grade(m) = grade(k).  So each R(u, v) is zero or grade-preserving, and
    at a triple with grade(i) = grade(j) each of the four residual terms has
    a zero factor: [b_i, b_j, b_k] = 0, and D b_i and D b_j keep the grades
    of b_i and b_j, so [D b_i, b_j, .], [b_i, D b_j, .] and [b_i, b_j, .]
    vanish.  In the hook (i < j) opposite grades means i < s <= j, and only
    those slabs and rows are checked.  The rows skipped are zero, so the
    verdict of each operator is unchanged.
    """
    d = st.coords.a.shape[0]
    bound = _lt3_bound(*([b.coords for b in st.blocks] if st.blocks else [st.coords]))
    pairs, ops = _inner_operators(st.coords.a, lt1_ok)
    rows = ops.reshape(len(ops), d * d)
    kept = (kernel.independent_row_indices(rows, None if basis else bound) if basis or d > LT3_ALL_PAIRS_MAX_DIM
            else np.flatnonzero(rows.any(axis=1)))
    # the whole operator array is dropped before the residuals are checked
    ops, rows, kept = ops[kept], None, [tuple(pair) for pair in pairs[kept].tolist()]
    hook = lt1_ok and lt2_ok
    if _lt3_first(st.coords.a, ops, bound, hook, st.split) is None:
        return True, None, kept
    _, ops = _inner_operators(st.coords.a, lt1_ok)
    live = np.flatnonzero(ops.reshape(len(ops), d * d).any(axis=1))
    t, _ = _lt3_first(st.coords.a, ops[live], bound, hook, st.split)
    _, triple = _lt3_first(st.coords.a, ops[live[t]][None], bound, False)
    return False, tuple(pairs[live[t]].tolist()) + triple, kept


def _lt3_bound(*coords: Arr) -> int:
    """4 max|c| L, L = max over (i, j, k) of sum_m |c[i, j, k, m]|, for the
    coordinates c: a bound on the LT3 residuals of operators that are rows
    c[u, v] of c, and on every partial sum of their four terms
    (``_lt3_first``).  Of a graded structure, c is read from the arrays of
    its blocks, whose entries, negated or not, and zeros are all of c."""
    mags = [np.abs(c.a) for c in coords]
    top = max(int(mag.max(initial=0)) for mag in mags)
    # exact row sums, in the dtype of the largest one can be (``kernel.fit``)
    rows = max(int(np.max(kernel.fit(mag, top * mag.shape[-1]).sum(axis=-1), initial=0)) for mag in mags)
    return 4 * top * rows


def _inner_operators(c: np.ndarray, lt1_ok: bool):
    """Every inner operator R(b_u, b_v) over the coordinates c, as the pairs
    pairs[t] = (u, v) and their operators ops[t][w, m] = (R(b_u, b_v) b_w)_m =
    c[u, v, w, m], unscaled (the coordinate denominator cancels from both
    sides of the LT3 identity; max|ops| <= max|c|), in the order of the
    pairs.  With LT1, R(b_v, b_u) = -R(b_u, b_v), so the pairs u < v span,
    and only they are listed."""
    d = c.shape[0]
    iu, ju = np.triu_indices(d, k=1) if lt1_ok else np.divmod(np.arange(d * d), d)
    return np.stack((iu, ju), axis=1), c[iu, ju]


def _lt3_first(c: np.ndarray, ops: np.ndarray, bound: int, hook: bool, split: int | None = None):
    """(t, (i, j, k)) for the first operator e = ops[t] whose LT3 residual is
    nonzero on the scanned triples and its lexicographically first such
    triple, or None when every residual vanishes there.  With
    e[w, m] = (D b_w)_m the residual is

        res[i, j, k, m] = (D[b_i, b_j, b_k] - [D b_i, b_j, b_k]
                           - [b_i, D b_j, b_k] - [b_i, b_j, D b_k])_m.

    The operators are scanned d at a time, one slab of fixed j after the
    other (``_lt3_slab``): with ``hook`` the rectangle i < j, k <= j (see
    ``_check_lt3``), else every i and k.  With ``hook`` and the ``split`` s
    of a graded system, only the slabs j >= s over the rows i < s, where i
    and j have opposite grades: the other rows are zero (``_check_lt3``).
    A batch with a nonzero slab is scanned to its end.  Each slab's first
    hit (``_first_nonzero_triple``) is its first nonzero operator and that
    operator's first (i, k) there, and an operator nonzero in a slab comes
    no earlier than that slab's first, so the least hit (t, i, j, k) over
    the batch is the answer, which does not depend on the batching.
    ``bound`` covers the running sum of the four terms and every partial
    sum of each, whose d products are c[i, j, k, :] . e[:, m] (at most
    max|e| L) and e[x, :] . c[..., m] (at most max|c| max_x sum_w |e[x, w]|),
    with L = max over (i, j, k) of sum_m |c[i, j, k, m]|.
    """
    d = c.shape[0]
    c, ops = kernel.fit(c, bound), kernel.fit(ops, bound)
    # two buffers, allocated once, together no larger than two copies of c
    res = np.empty(min(len(ops), d) * d**3, dtype=c.dtype)
    term = np.empty_like(res)
    # the hook's slabs j >= lo over the rows i < min(j, hi)
    lo, hi = (0, d) if split is None else (split, split)
    for t0 in range(0, len(ops), d or 1):  # d = 0: no operators
        e, hits = ops[t0:t0 + d], []
        for j in range(lo, d) if hook else range(d):
            hit = _first_nonzero_triple(_lt3_slab(c, e, j, min(j, hi) if hook else d, j + 1 if hook else d, res, term),
                                        (t0, 0, 0))
            if hit is not None:
                hits.append((hit[0], hit[1], j, hit[2]))
        if hits:
            t, i, j, k = min(hits)
            return t, (i, j, k)
    return None


def _lt3_slab(c: np.ndarray, e: np.ndarray, j: int, ni: int, nk: int, res: np.ndarray, term: np.ndarray):
    """The LT3 residuals r[t, i, k, m] at the triples (i, j, k), i < ni and
    k < nk, of the operators e (``_lt3_first``), in the buffer
    ``res``: one GEMM per term on a view of c that spans exactly these i and
    k, each subtracted through the buffer ``term``."""
    n, d = len(e), c.shape[0]
    shape = (n, ni, nk, d)
    r = res[:prod(shape)].reshape(shape)
    t = term[:r.size].reshape(shape)
    wide = t.reshape(n, ni, nk * d)
    np.matmul(c[:ni, j, :nk], e[:, None], out=r)
    # e against the first, the second and the third axis of c
    np.matmul(e[:, :ni], c[:, j, :nk].reshape(d, nk * d), out=wide)
    r -= t
    np.matmul(e[:, j], c[:ni, :, :nk].reshape(ni, d, nk * d), out=wide.swapaxes(0, 1))
    r -= t
    np.matmul(e[:, None, :nk], c[:ni, j], out=t)
    r -= t
    return r


def check_closure(space, product) -> bool:
    """Exact closure of the triple product on the space over all basis
    triples; ``product`` is a product object, or on a ``Subspace`` a callable
    (x, y, z) that takes stacks (``GenericTriple``).  A ``ProductSpace``
    takes a ``PairTriple``: its products are computed by grade, and any
    other product is refused (``TripleSystem``)."""
    if not isinstance(product, (AlphaTriple, PairTriple, GenericTriple)):
        product = GenericTriple(product)
    return TripleSystem(space, product).structure().closed


# -- symmetric pairs --------------------------------------------------------


@dataclass
class SymmetricPairRec:
    g_dim: int               # dim g = h.dim + m.dim, or h.dim for the group type (h = m)
    h: Subspace
    m: Subspace
    a: Matrix
    sigma_signs: tuple
    group_type: bool
    verified: bool
    failures: list = field(default_factory=list)


def bracket_closure(left: Subspace, right: Subspace, target: Subspace, a: Matrix) -> bool:
    """[left, right]_A subset of target, exact, batched; at once when A = 0,
    where every bracket XAY - YAX is zero."""
    return left.dim == 0 or right.dim == 0 or bool(a.is_zero()) or _inside(
        kernel.bilinear_tensor(left.basis_arr(), right.basis_arr(), a), target)


def _inside(brackets: Arr, target: Subspace) -> bool:
    """Every bracket of the stack (..., rows, cols, comps) lies in target."""
    _, member = target.flat_coordinates(kernel.flatten_last(brackets))
    return bool(member.all())


def symmetric_pair(dec, s, t, a: Matrix) -> SymmetricPairRec:
    """Assemble and verify the symmetric pair attached to space piece s and
    parameter piece t of a joint decomposition: h is the piece with signs -t,
    m the piece with signs s, and g = h + m.  The pieces must be a direct sum
    (``JointDecomposition.check_direct_sum``, decided once per decomposition;
    ``ValueError`` otherwise), so for s != -t the sum g is direct and the
    record carries g's dimension h.dim + m.dim.

    When s = -t the two coincide, g = h, and the record is flagged group
    type.  This is ``symmetric_pairs`` for the one piece s, with the same
    bracket products as the three closures [h, h], [h, m] and [m, m] taken
    apart.
    """
    return symmetric_pairs(dec, t, a, [s])[tuple(s)]


def symmetric_pairs(dec, t, a: Matrix, spaces) -> dict:
    """The verified symmetric pair (``symmetric_pair``) of every space piece
    s in ``spaces`` for the one parameter a in piece t, keyed by s.

    A parameter in V^t deforms every space piece, and the pair of (s, t) is
    h = V^(-t), m = V^s: the test a in V^t, h and the closure [h, h]_A in h
    do not depend on s, so they are made once per parameter.  One bilinear
    tensor brackets h's basis with the bases of h and of every requested
    m_s stacked, and its column blocks are [h, h] and each [h, m_s]; it
    never holds a cross block [m_s, m_s'].  [m_s, m_s] in h is its own
    tensor, except for the group-type piece s = -t, where m = h and all three
    closures are the [h, h] one.  A zero parameter makes every bracket zero,
    so no tensor is built; the direct-sum and membership checks stay.
    """
    t = tuple(t)
    minus_t = tuple(-x for x in t)
    if not dec.check_direct_sum():
        raise ValueError("the pieces of the decomposition are not a direct sum")
    if not dec.piece(t).contains(a):
        raise ValueError("parameter is not in its declared joint eigenspace")
    h = dec.piece(minus_t)
    spaces = [tuple(s) for s in spaces]
    # h first, then each other piece once: the column blocks of the tensor
    blocks = [minus_t] + [s for s in dict.fromkeys(spaces) if s != minus_t]
    inside = dict.fromkeys(blocks, True)
    if h.dim and not a.is_zero():
        bb = kernel.bilinear_tensor(h.basis_arr(), kernel.concat([dec.piece(s).basis_arr() for s in blocks], 0), a)
        lo = 0
        for s in blocks:
            m = dec.piece(s)
            if m.dim:
                inside[s] = _inside(bb[:, lo:lo + m.dim], m)
            lo += m.dim
    recs = {}
    for s in spaces:
        m = dec.piece(s)
        group_type = s == minus_t
        closed = (inside[minus_t], inside[s], inside[minus_t] if group_type else bracket_closure(m, m, h, a))
        failures = [name for name, ok in zip(("[h,h] in h", "[h,m] in m", "[m,m] in h"), closed) if not ok]
        sigma_signs = tuple(1 if si == ti else -1 for si, ti in zip(s, t))
        g_dim = h.dim if group_type else h.dim + m.dim
        recs[s] = SymmetricPairRec(g_dim, h, m, a, sigma_signs, group_type, not failures, failures)
    return recs


# -- homomorphisms and the parameter-space action ---------------------------


def hom_sxt(s: Matrix, t: Matrix, x: Matrix) -> Matrix:
    """The map X -> SXT (a Lie algebra homomorphism from the TAS-deformation
    to the A-deformation)."""
    return s @ x @ t


def hom_sxt_check(s: Matrix, t: Matrix, a: Matrix, x: Matrix, y: Matrix) -> bool:
    """[SXT, SYT]_A = S [X, Y]_{TAS} T, exact."""
    lhs = bracket_param(hom_sxt(s, t, x), hom_sxt(s, t, y), a)
    rhs = s @ bracket_param(x, y, t @ a @ s) @ t
    return lhs == rhs


def gamma_act(g: Matrix, a: Matrix, tau, phi=None):
    """The parameter-space action (g, A) -> g A tau(g) for invertible
    phi-fixed g, together with the intertwiner ``AlphaMap`` psi(X) = tau(g) X g.

    psi satisfies psi([X,Y,Z]_{A'}) = [psi X, psi Y, psi Z]_A.
    """
    g.inverse()  # raises if g is not invertible
    if phi is not None and phi(g) != g:
        raise ValueError("g is not fixed by the declared automorphism")
    tg = tau(g)
    return g @ a @ tg, AlphaMap(tg, g)


def gamma_intertwines(g: Matrix, a: Matrix, tau, space: Subspace, phi=None) -> bool:
    """Exact check that the action intertwines the two triple systems on all
    basis triples of the given space."""
    a_new, psi = gamma_act(g, a, tau, phi)
    return intertwines(psi, space, a_new, a)


def intertwines(psi: AlphaMap, space: Subspace, a_new: Matrix, a: Matrix) -> bool:
    """psi([X, Y, Z]_{A'}) = [psi X, psi Y, psi Z]_A for all basis triples of
    ``space``, exactly; psi is an ``AlphaMap`` of its ambient matrix space.

    A sandwich psi(X) = L X R is first checked by the middle identity
    R alpha_A(psi Y) L = alpha_{A'}(Y) on the d basis elements Y.  It implies
    psi(X alpha_{A'}(Y) Z) = L X R alpha_A(psi Y) L Z R = psi X alpha_A(psi Y) psi Z
    for every term of the bracket, by associativity alone.  It is sufficient,
    not necessary (where the bracket vanishes every psi intertwines), so when
    it fails, or psi is no sandwich, all d^3 basis triples decide.
    """
    stack = space.basis_arr()
    images = psi(stack)
    middle_images, middle_new = AlphaMap.param(a)(images), AlphaMap.param(a_new)(stack)
    if psi.twist == "id" and not psi.transpose and psi.sign > 0:
        middle = AlphaMap(psi.right, psi.left)(middle_images)
        if kernel.equal(middle, middle_new).all():
            return True
    lhs = psi(_triples(stack, middle_new))
    return bool(kernel.equal(lhs, _triples(images, middle_images)).all())


# -- standard imbedding -----------------------------------------------------


@dataclass
class StandardImbedding:
    system: TripleSystem
    h_pairs: list          # (u, v): the operators R(b_u, b_v) form a basis of h
    h_dim: int
    m_dim: int
    ok: bool


def standard_imbedding(system: TripleSystem) -> StandardImbedding:
    """The Lie algebra h + m, m the triple system and h the span of the inner
    operators R(x, y), with [D, D'] = DD' - D'D, [D, x] = D(x) and
    [x, y] = R(x, y).

    It is a Lie algebra exactly when the system is a Lie triple system: the
    bracket on m is antisymmetric by LT1, Jacobi on m x m x m is LT2, Jacobi
    on h x m x m is LT3, [h, h] lies in h because each D in h is a
    derivation (LT3: [D, R(x, y)] = R(Dx, y) + R(x, Dy)), and the other
    Jacobi components hold for any operators.  So ``ok`` is ``check_lts``'s
    verdict, and h's basis is the pick that decides LT3, made behind the
    Hadamard cover of ``kernel.independent_row_indices`` (``_check_lt3``
    with ``basis``), which makes it a basis over Q.
    """
    with kernel.one_blas_thread():
        if not system.structure().closed:
            raise ValueError("triple system is not closed; no standard imbedding")
        report, basis = _check_lts(system, basis=True)
    return StandardImbedding(system, basis, len(basis), system.dim, report.ok)
