"""The catalog: model matrix spaces, parameter samplers, the family table,
and the four two-involution constructions (proj, siegel, quat1, quat2) with
validated model maps and verified 4x4 tables.

The family table has one row per family of the classification tables, plain
and polarized: its carrier model space (M, Sym, Asym or Herm, with size
letters), its parameter models, its deformation alpha and its symmetric pair.
A row that also names the pair of X' declares the c-dual X', whose bracket is
negated.  Parameters are sampled by the rule of their model space.

A construction is declared as a builder of its sizes with its size letters,
and ``instantiate`` sets it up; families and constructions share one size rule.

All K = R statements are realized over Q, complex ones over Q(i), and
quaternionic ones over the rational quaternions; every identity checked is
Q-rational, so nothing is lost by exactness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .homotope import (AlphaMap, AlphaTriple, PairTriple, ProductSpace, bracket_closure,
                       TripleSystem, check_lts, symmetric_pairs)
from .involutions import JointDecomposition, MatrixInvolution, joint_eigenspaces
from .kernel import Arr, concat
from .matrices import Matrix, Subspace, block_F, block_I, block_Ipq, block_J, inverses
from .scalars import HQ, Q, QI, Scalar, ring_components

# -- model subspaces -------------------------------------------------------


@lru_cache(maxsize=None)
def matrix_space(p: int, q: int, ring) -> Subspace:
    return Subspace.full((p, q, ring))


def sym_space(n: int, ring) -> Subspace:
    return _star_pieces(n, ring, "id").piece((1,))


def asym_space(n: int, ring) -> Subspace:
    return _star_pieces(n, ring, "id").piece((-1,))


def herm_space(n: int, ring, delta: str) -> Subspace:
    """Fixed space of X -> delta(X)^t."""
    return _star_pieces(n, ring, delta).piece((1,))


def aherm_space(n: int, ring, delta: str) -> Subspace:
    return _star_pieces(n, ring, delta).piece((-1,))


@lru_cache(maxsize=None)
def _star_pieces(n: int, ring, delta: str) -> JointDecomposition:
    """The (+1)- and (-1)-eigenspaces of X -> delta(X)^t on M(n, n; ring),
    from its declared action: one decomposition serves both signs."""
    return joint_eigenspaces([MatrixInvolution("anti", delta, n, ring, validate=False)])


# -- seeded exact samplers -------------------------------------------------


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-2, 2), rng.randint(1, 2))


def rand_scalar(ring, rng: random.Random) -> Scalar:
    return Scalar.unflatten(ring, [rand_fraction(rng) for _ in range(ring_components(ring))])


def rand_matrix(p: int, q: int, ring, rng: random.Random) -> Matrix:
    return Matrix.unflatten((p, q, ring), [rand_fraction(rng) for _ in range(p * q * ring_components(ring))])


def rand_stack(count: int, p: int, q: int, ring, rng: random.Random) -> Arr:
    """``count`` draws of ``rand_matrix``, stacked: one (count p) x q draw,
    which reads the random stream as ``count`` p x q draws do."""
    m = rand_matrix(count * p, q, ring, rng)
    return Arr(m.a.reshape(count, p, q, -1), m.den, m.bound, ring)


def invertible_draws(draw, count: int, invert) -> tuple:
    """(draws, inverses): a stack of ``count`` matrices m of ``draw`` whose
    ``invert(m)`` is invertible, in the order drawn, and the stack of the
    inverses of their ``invert(m)``.

    ``draw(k)`` gives a stack of k matrices.  The draws still missing are
    drawn as one stack; those that ``inverses`` accepts are kept, and the
    rest are drawn again.  So the random stream is read as by a loop that
    draws one matrix at a time until ``count`` of them are accepted."""
    kept, need = [], count
    while need:
        m = draw(need)
        inv, ok = inverses(invert(m))
        kept.append((m[ok], inv[ok]))
        need -= int(ok.sum())
    return tuple(concat(part, 0) for part in zip(*kept))


def rand_invertible(n: int, ring, rng: random.Random) -> Matrix:
    m, _ = invertible_draws(lambda k: rand_stack(k, n, n, ring, rng), 1, lambda m: m)
    return Matrix._make(m.a[0], m.den, m.bound, ring)


def sample_in_subspace(space: Subspace, rng: random.Random) -> Matrix:
    return space.from_coordinates([rand_fraction(rng) for _ in range(space.dim)])


class ParamClass:
    """A parameter space (a model subspace) with rank-controlled sampling.

    The model name selects the low-rank rule: M -> u v^t; Sym -> v v^t;
    Asym -> u v^t - v u^t; Herm:<delta> -> v delta(v)^t; iHerm -> i v conj(v)^t;
    piece (an eigenspace piece) -> u v^t projected onto the space.
    """

    def __init__(self, model: str, space: Subspace):
        self.model = model
        self.space = space

    def low_rank(self, rng: random.Random) -> Matrix:
        rows, cols, ring = self.space.ambient
        name, _, delta = self.model.partition(":")
        if name in ("M", "piece"):
            m = rand_matrix(rows, 1, ring, rng) @ rand_matrix(1, cols, ring, rng)
            return m if name == "M" else _project_onto(self.space, m)
        v = rand_matrix(rows, 1, ring, rng)
        if name == "Sym":
            return v @ v.transpose()
        if name == "Asym":
            w = rand_matrix(rows, 1, ring, rng)
            return v @ w.transpose() - w @ v.transpose()
        if name == "Herm":
            return v @ v.dagger(delta)
        if name == "iHerm":
            return (v @ v.dagger("conj")).scalar_mul(Scalar(QI, (0, 1)))
        raise ValueError(f"unknown parameter model {self.model!r}")

    def sample(self, rng: random.Random, style: str) -> Matrix:
        rows, cols, ring = self.space.ambient
        if style == "zero" or self.space.dim == 0:
            return Matrix.zeros(rows, cols, ring)
        if style == "low":
            m = self.low_rank(rng)
            if not self.space.contains(m):
                raise AssertionError(f"low-rank sample left class {self.model}")
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

# A model is a name and its size letters ("M q p", "Sym n", "Herm:qsplit p").
# The name gives the space over the family's ring; the space functions are
# looked up by name when called.
_MODELS = {
    "M": lambda ring, p, q: matrix_space(p, q, ring),
    "Sym": lambda ring, n: sym_space(n, ring),
    "Asym": lambda ring, n: asym_space(n, ring),
    "Herm:conj": lambda ring, n: herm_space(n, ring, "conj"),
    "Herm:qconj": lambda ring, n: herm_space(n, ring, "qconj"),
    "Herm:qsplit": lambda ring, n: herm_space(n, ring, "qsplit"),
    "iHerm": lambda ring, n: aherm_space(n, ring, "conj"),    # i Herm(n, C) = Aherm(n, C)
}

# Each deformation alpha as a function of the parameters (A) or (A, B); a
# polarized alpha acts on the pair (P, M).
_ALPHAS = {
    "A X A": lambda a: AlphaTriple(AlphaMap(a, a)),
    "A conj(X A)": lambda a: AlphaTriple(AlphaMap(a, a.conjugate("conj"), "conj")),
    "A phi(X A)": lambda a: AlphaTriple(AlphaMap(a, a.conjugate("phi"), "phi")),
    "B X^t A": lambda a, b: AlphaTriple(AlphaMap(b, a, transpose=True)),
    "B conj(X)^t A": lambda a, b: AlphaTriple(AlphaMap(b, a, "conj", transpose=True)),
    "B qconj(X)^t A": lambda a, b: AlphaTriple(AlphaMap(b, a, "qconj", transpose=True)),
    "B qsplit(X)^t A": lambda a, b: AlphaTriple(AlphaMap(b, a, "qsplit", transpose=True)),
    "(A P^t B, A^t M^t B^t)": lambda a, b: PairTriple(
        (AlphaMap(a, b, transpose=True), AlphaMap(a.transpose(), b.transpose(), transpose=True))),
    "(A P B, B M A)": lambda a, b: PairTriple((AlphaMap(a, b), AlphaMap(b, a))),
    "(-A^t P A, -A M A^t)": lambda a: PairTriple(
        (AlphaMap(a.transpose(), a, sign=-1), AlphaMap(a, a.transpose(), sign=-1))),
    "(A^t P A, A M A^t)": lambda a: PairTriple((AlphaMap(a.transpose(), a), AlphaMap(a, a.transpose()))),
    "(conj(A)^t P A, A M conj(A)^t)": lambda a: PairTriple(
        (AlphaMap(a.dagger("conj"), a), AlphaMap(a, a.dagger("conj")))),
    "(qconj(A)^t P A, A M qconj(A)^t)": lambda a: PairTriple(
        (AlphaMap(a.dagger("qconj"), a), AlphaMap(a, a.dagger("qconj")))),
    "(qsplit(A)^t P A, A M qsplit(A)^t)": lambda a: PairTriple(
        (AlphaMap(a.dagger("qsplit"), a), AlphaMap(a, a.dagger("qsplit")))),
}

# One row per family of the classification tables: label, ring, space name,
# carrier model (two joined by " x " for a polarized pair space), parameter
# models, alpha, the symmetric pair, and the pair of X' if the row has one.
# X' is the c-dual of X: the same system with the bracket negated.  3.A' has
# its own row: its parameters are Herm(n,C), not iHerm(n,C) as for 3.A.
_TABLE = (
    # table 1: rectangular over K = Q
    ("1.a", Q, "M(p,q;K)", "M p q", "M q p", "A X A", "group case Gl_pq(A,K)", "Gl_pq(A,K[i])/Gl_pq(A,K)"),
    ("1.b", Q, "M(p,q;K)", "M p q", "Sym p, Sym q", "B X^t A", "O_{p+q}(diag(A,B);K)/O_p(A)xO_q(B)", None),
    ("1.c", Q, "M(p,q;K)", "M p q", "Asym p, Asym q", "B X^t A", "Sp(diag(A,B);K)/Sp(A)xSp(B)", None),
    # table 1 antilinear: rectangular over C
    ("1.A", QI, "M(p,q;C)", "M p q", "M q p", "A conj(X A)", "Gl_pq(A;M(2,2;R))/Gl_pq(A;C)", "Gl_pq(A;H)/Gl_pq(A;C)"),
    ("1.B", QI, "M(p,q;C)", "M p q", "Herm:conj p, Herm:conj q", "B conj(X)^t A",
     "U_{p+q}(diag(A,B);C)/U_p(A)xU_q(B)", None),
    # table 1.3: rectangular over H
    ("1.3.a", HQ, "M(p,q;H)", "M p q", "M q p", "A X A", "group case Gl_pq(A,H)", "Gl_pq(A,M(2,2;C))/Gl_pq(A,H)"),
    ("1.3.b", HQ, "M(p,q;H)", "M p q", "Herm:qconj p, Herm:qconj q", "B qconj(X)^t A",
     "U_{p+q}(diag(A,B);H)/U_p(A)xU_q(B)", None),
    ("1.3.c", HQ, "M(p,q;H)", "M p q", "Herm:qsplit p, Herm:qsplit q", "B qsplit(X)^t A",
     "U_{p+q}(diag(A,B);H~)/U_p(A)xU_q(B)", None),
    # table 2: symmetric over K, and Sym(n, C)
    ("2.a", Q, "Sym(n,K)", "Sym n", "Sym n", "A X A", "Gl_n(A;K)/O_n(A;K)", "U_n(A;K[i])/O_n(A;K)"),
    ("2.b", Q, "Sym(n,K)", "Sym n", "Asym n", "A X A", "group space Sp(A;K)", "Sp(A;K[i])/Sp(A;K)"),
    ("2.A", QI, "Sym(n,C)", "Sym n", "Herm:conj n", "A conj(X A)", "U_n(A;H)/U_n(A;C)", "Sp_n((b,a;-a,b))/U_n(b+ia,C)"),
    # table 3: skew over K, and Asym(n, C)
    ("3.a", Q, "Asym(n,K)", "Asym n", "Asym n", "A X A", "Gl_n(A;K)/Sp(A;K)", "U_n(A;K[i])/Sp(A;K)"),
    ("3.b", Q, "Asym(n,K)", "Asym n", "Sym n", "A X A", "group case O_n(A;K)", "O_n(A;K[i])/O_n(A;K)"),
    ("3.A", QI, "Asym(n,C)", "Asym n", "iHerm n", "A conj(X A)", "U_n(A,H~)/U_n(A,C)", None),
    ("3.A'", QI, "Asym(n,C)", "Asym n", "Herm:conj n", "A conj(X A)", "O_2n((a,b;-b,a),R)/U_n(b+ia,C)", None),
    # table 1.1: Herm(n, C)
    ("1.1.a", QI, "Herm(n,C)", "Herm:conj n", "Herm:conj n", "A X A", "Gl_n(A,C)/U_n(A,C)", "group case U_n(A,C)"),
    ("1.1.b", QI, "Herm(n,C)", "Herm:conj n", "Sym n", "A conj(X A)",
     "U_n(A,H~)/O_n(A,C)", "O_2n((a,b;b,-a);R)/O_n(a+ib;C)"),
    ("1.1.c", QI, "Herm(n,C)", "Herm:conj n", "Asym n", "A conj(X A)",
     "Sp_n((a,b;b,-a);R)/Sp(a+ib;C)", "U_n(A,H)/Sp(A,C)"),
    # table 3.1: Herm(n, H)
    ("3.1.a", HQ, "Herm(n,H)", "Herm:qconj n", "Herm:qconj n", "A X A", "Gl_n(A,H)/U_n(A,H)", "U_2n(IA,C)/U_n(A,H)"),
    ("3.1.b", HQ, "Herm(n,H)", "Herm:qconj n", "Herm:qsplit n", "A phi(X A)",
     "group case U_n(A,H~)", "O_2n(IA,C)/U_n(A,H~)"),
    # table 2.2: Herm(n, H~)
    ("2.2.a", HQ, "Herm(n,H~)", "Herm:qsplit n", "Herm:qsplit n", "A X A",
     "Gl_n(A,H)/U_n(A,H~)", "U_2n(IA,C)/U_n(A,H~)"),
    ("2.2.b", HQ, "Herm(n,H~)", "Herm:qsplit n", "Herm:qconj n", "A phi(X A)",
     "group case U_n(A,H)", "Sp_2n(IA,C)/U_n(A,H)"),
    # para-Hermitian table (the p = q versions use a single size n)
    ("pol1-1.a", Q, "M(p,q;K) x M(q,p;K)", "M p q x M q p", "M p q, M p q", "(A P^t B, A^t M^t B^t)",
     "Gl_{2p,2q}(diag(A,B);K)/Gl_pq(A)xGl_pq(B)", None),
    ("pol1-1.b", Q, "M(p,q;K) x M(q,p;K)", "M p q x M q p", "M p p, M q q", "(A P B, B M A)",
     "Gl_{p+q}(diag(A,B);K)/Gl_p(A)xGl_q(B)", None),
    ("pol1-2", Q, "Sym(n,K) x Sym(n,K)", "Sym n x Sym n", "M n n", "(-A^t P A, -A M A^t)",
     "Sp_n((0,A;-A^t,0);K)/Gl_n(A;K)", None),
    ("pol1-3", Q, "Asym(n,K) x Asym(n,K)", "Asym n x Asym n", "M n n", "(A^t P A, A M A^t)",
     "O_2n((0,A;A^t,0);K)/Gl_n(A;K)", None),
    ("pol1-1.1", QI, "Herm(n,C) x Herm(n,C)", "Herm:conj n x Herm:conj n", "M n n",
     "(conj(A)^t P A, A M conj(A)^t)", "U_2n((0,A;conj(A)^t,0);C)/Gl_n(A;C)", None),
    ("pol1-3.1", HQ, "Herm(n,H) x Herm(n,H)", "Herm:qconj n x Herm:qconj n", "M n n",
     "(qconj(A)^t P A, A M qconj(A)^t)", "U_2n((0,A;qconj(A)^t,0);H)/Gl_n(A;H)", None),
    ("pol1-2.2", HQ, "Herm(n,H~) x Herm(n,H~)", "Herm:qsplit n x Herm:qsplit n", "M n n",
     "(qsplit(A)^t P A, A M qsplit(A)^t)", "U_2n((0,A;split(A)^t,0);H~)/Gl_n(A;H)", None),
    # twisted polarized table (rectangular sizes p, q)
    ("pol2-1", Q, "M(p,q;K) x M(p,q;K)", "M p q x M p q", "M q p, M q p", "(A P B, B M A)",
     "Gl(diag(A,B);K)/Gl(A)xGl(B)", None),
    ("pol2-2", Q, "Sym(p,K) x Sym(q,K)", "Sym p x Sym q", "M p q", "(-A^t P A, -A M A^t)",
     "Sp((0,A;-A^t,0);K)/Gl_pq(A;K)", None),
    ("pol2-3", Q, "Asym(p,K) x Asym(q,K)", "Asym p x Asym q", "M p q", "(A^t P A, A M A^t)",
     "O((0,A;A^t,0);K)/Gl_pq(A;K)", None),
    ("pol2-1.1", QI, "Herm(p,C) x Herm(q,C)", "Herm:conj p x Herm:conj q", "M p q",
     "(conj(A)^t P A, A M conj(A)^t)", "U((0,A;conj(A)^t,0);C)/Gl_pq(A;C)", None),
    ("pol2-3.1", HQ, "Herm(p,H) x Herm(q,H)", "Herm:qconj p x Herm:qconj q", "M p q",
     "(qconj(A)^t P A, A M qconj(A)^t)", "U((0,A;qconj(A)^t,0);H)/Gl_pq(A;H)", None),
    ("pol2-2.2", HQ, "Herm(p,H~) x Herm(q,H~)", "Herm:qsplit p x Herm:qsplit q", "M p q",
     "(qsplit(A)^t P A, A M qsplit(A)^t)", "U((0,A;split(A)^t,0);H~)/Gl_pq(A;H)", None),
)


@dataclass
class FamilyDescriptor:
    """One family of the classification tables, read from its row.

    A label ending in a prime is a c-dual: its bracket is the negation of
    the one its alpha gives.  ``pair_name`` is symbolic metadata (the claimed
    symmetric pair); only the algebraic identities are machine-verified.
    """

    label: str
    ring: str
    sizes: str               # "pq" or "n": the size letters of the models
    space_name: str
    pair_name: str
    carrier: tuple           # one model, or two for a polarized pair space
    params: tuple            # the parameter models
    alpha: str               # the key of the deformation in _ALPHAS
    _spaces: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def polarized(self) -> bool:
        return len(self.carrier) == 2

    def _model_space(self, model: str, sizes) -> Subspace:
        """The model space at these sizes; every size-taking method ends here,
        so this is where they meet the size rule (``check_sizes``)."""
        name, *letters = model.split()
        dims = dict(zip(self.sizes, check_sizes(self.sizes, sizes)))
        return _MODELS[name](self.ring, *(dims[s] for s in letters))

    def space(self, sizes):
        # one space per sizes: a space keeps its integer basis
        sizes = tuple(sizes)
        if sizes not in self._spaces:
            spaces = [self._model_space(m, sizes) for m in self.carrier]
            self._spaces[sizes] = ProductSpace(*spaces) if self.polarized else spaces[0]
        return self._spaces[sizes]

    def sample_params(self, sizes, rng, style):
        return [ParamClass(m.split()[0], self._model_space(m, sizes)).sample(rng, style) for m in self.params]

    def system(self, sizes, params) -> TripleSystem:
        product = _ALPHAS[self.alpha](*params)
        return TripleSystem(self.space(sizes), product.negated() if self.label.endswith("'") else product)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "ring": self.ring,
            "sizes": self.sizes,
            "space": self.space_name,
            "pair": self.pair_name,
            "polarized": self.polarized,
        }


def _catalog() -> dict:
    """The families of ``_TABLE``: each row, and X' where the row names its pair."""
    out = {}
    for label, ring, space_name, carrier, params, alpha, pair, dual_pair in _TABLE:
        carrier, params = tuple(carrier.split(" x ")), tuple(params.split(", "))
        sizes = "".join(sorted({s for m in carrier for s in m.split()[1:]}))
        for name, pair_name in ((label, pair), (label + "'", dual_pair)):
            if pair_name:
                out[name] = FamilyDescriptor(name, ring, sizes, space_name, pair_name, carrier, params, alpha)
    return out


_CATALOG = _catalog()


def family(label: str) -> FamilyDescriptor:
    if label not in _CATALOG:
        raise KeyError(f"unknown family label {label!r}")
    return _CATALOG[label]


def family_labels():
    return sorted(_CATALOG)


def check_sizes(letters: str, sizes) -> tuple:
    """The sizes of a family or construction with these size letters ("pq"
    or "n"): one integer >= 1 per letter."""
    sizes = tuple(sizes)
    if len(sizes) != len(letters) or any(s < 1 for s in sizes):
        raise ValueError(f"sizes {','.join(letters)} must be one integer >= 1 each, got {list(sizes)}")
    return sizes


def family_axiom_suite(label: str, sizes, samples: int, seed: int) -> dict:
    """Run the LTS axiom suite (closure, LT1-LT3) over seeded parameters."""
    desc = family(label)
    sizes = check_sizes(desc.sizes, sizes)
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
    name: str
    maps: list  # list of (model Subspace, embedding fn Matrix -> Matrix)

    def image_matrices(self):
        return [emb(b) for model, emb in self.maps for b in model.basis_matrices()]


@dataclass
class ConstructionDescriptor:
    name: str
    sizes: tuple
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
            if span.dim != len(imgs):
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
    the components ``slots`` (of 1, i, j, k): [0, 2] embeds C = R + jR,
    x + iy -> x + jy; [1, 3] its i-multiple, x + iy -> xi + yk."""
    num = np.zeros((m.rows, m.cols, 4), m.a.dtype)
    num[..., slots] = m.a
    return Matrix.from_numerators(HQ, num, m.den)


def quat_complex_embedding(m: Matrix) -> Matrix:
    """M(n,n;H) -> M(2n,2n;C): A0+A1 i+A2 j+A3 k -> [[a, b], [-conj(b), conj(a)]]
    with a = A0 + i A1, b = A2 + i A3.  Multiplicative (tested)."""
    a, b = (Matrix.from_numerators(QI, m.a[..., c:c + 2], m.den) for c in (0, 2))
    return Matrix.block([[a, b], [-b.conjugate("conj"), a.conjugate("conj")]])


def quat_split_embedding(m: Matrix) -> Matrix:
    """Complex realization of M(n,n;H) aligned with the split involution.

    The standard embedding composed with entrywise conjugation by the unit
    j + k (an inner automorphism of H fixing 1, negating i and swapping
    j <-> k: a + bi + cj + dk -> a - bi + dj + ck), chosen so that
    X -> I X^t I^{-1} on the image pulls back to the split adjoint
    X -> qsplit(X)^t on M(n,n;H).
    """
    num = m.a[..., [0, 1, 3, 2]]
    num[..., 1] = -num[..., 1]
    return quat_complex_embedding(Matrix.from_numerators(HQ, num, m.den))


def _block_embed(p, q, pos):
    """Embed a block into the (pos) block of a (p+q) x (p+q) matrix over Q."""
    r0, c0 = {"tl": (0, 0), "br": (p, p), "tr": (0, p), "bl": (p, 0)}[pos]

    def emb(m: Matrix) -> Matrix:
        num = np.zeros((p + q, p + q, 1), m.a.dtype)
        num[r0:r0 + m.rows, c0:c0 + m.cols] = m.a
        return Matrix.from_numerators(Q, num, m.den)

    return emb


# Each construction is a builder of its sizes (declared in _BUILDERS with its
# size letters).  A builder returns the ambient size n and ring, tau and tau~
# as (delta, twist B) of X -> B delta(X)^t B^-1 on M(n, n; ring), the model of
# each piece as {signs: (name, [(model space, embedding), ...])}, and notes.


def _proj(p, q):
    tl, br, tr, bl = (_block_embed(p, q, pos) for pos in ("tl", "br", "tr", "bl"))
    models = {
        (1, 1): ("Sym(p,K) + Sym(q,K)", [(sym_space(p, Q), tl), (sym_space(q, Q), br)]),
        (-1, 1): ("M(q,p;K)", [(matrix_space(q, p, Q), lambda y: tr(y.transpose()) + bl(-y))]),
        (1, -1): ("M(p,q;K)", [(matrix_space(p, q, Q), lambda a: tr(a) + bl(a.transpose()))]),
        (-1, -1): ("Asym(p,K) + Asym(q,K)", [(asym_space(p, Q), tl), (asym_space(q, Q), br)]),
    }
    notes = ["the (-1,-1) piece is Asym(p) + Asym(q); the source text prints "
             "Asym(n) + Asym(n), which contradicts the dimension count"]
    return p + q, Q, [("id", None), ("id", block_Ipq(p, q))], models, notes


def _siegel(n):
    i_mat, f_mat = block_I(n), block_F(n)
    models = {
        (1, 1): ("Sym(n,C)", [(sym_space(n, QI), _realify)]),
        (-1, 1): ("F Herm(n,C)", [(herm_space(n, QI, "conj"), lambda m: f_mat @ _realify(m))]),
        (1, -1): ("I Herm(n,C)", [(herm_space(n, QI, "conj"), lambda m: i_mat @ _realify(m))]),
        (-1, -1): ("Asym(n,C)", [(asym_space(n, QI), _realify)]),
    }
    return 2 * n, Q, [("id", i_mat), ("id", f_mat)], models, []


def _quat1(n):
    c_in_h, ic_in_h = (partial(_embed_in_h, slots=slots) for slots in ([0, 2], [1, 3]))
    models = {
        (1, 1): ("Herm(n,C)", [(herm_space(n, QI, "conj"), c_in_h)]),
        (-1, 1): ("i Sym(n,C)", [(sym_space(n, QI), ic_in_h)]),
        (1, -1): ("i Asym(n,C)", [(asym_space(n, QI), ic_in_h)]),
        (-1, -1): ("Aherm(n,C)", [(aherm_space(n, QI, "conj"), c_in_h)]),
    }
    return n, HQ, [("qconj", None), ("qsplit", None)], models, []


def _quat2(n):
    i_unit = Scalar(QI, (0, 1))

    def i_emb(m):
        return quat_split_embedding(m).scalar_mul(i_unit)

    models = {
        (1, 1): ("Herm(n,H~) = j Aherm(n,H)", [(herm_space(n, HQ, "qsplit"), quat_split_embedding)]),
        (-1, 1): ("i Aherm(n,H~) = i j Herm(n,H)", [(aherm_space(n, HQ, "qsplit"), i_emb)]),
        (1, -1): ("i Herm(n,H~) = i j Aherm(n,H)", [(herm_space(n, HQ, "qsplit"), i_emb)]),
        (-1, -1): ("Aherm(n,H~) = j Herm(n,H)", [(aherm_space(n, HQ, "qsplit"), quat_split_embedding)]),
    }
    return 2 * n, QI, [("id", block_I(n, QI)), ("conj", block_F(n, QI))], models, []


_BUILDERS = {"proj": ("pq", _proj), "siegel": ("n", _siegel),
             "quat1": ("n", _quat1), "quat2": ("n", _quat2)}
CONSTRUCTIONS = tuple(_BUILDERS)


def size_letters(name: str) -> str:
    """The size letters of the construction ``name``: "pq" or "n"."""
    return _BUILDERS[name][0]


def instantiate(name: str, sizes) -> ConstructionDescriptor:
    """The construction ``name`` at these sizes: its two involutions, their
    joint eigenspaces and the model of each piece."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown construction {name!r}")
    letters, build = _BUILDERS[name]
    sizes = check_sizes(letters, sizes)
    n, ring, taus, models, notes = build(*sizes)
    tau, tau_t = (MatrixInvolution("anti", delta, n, ring, twist=b) for delta, b in taus)
    dec = joint_eigenspaces([tau, tau_t])
    return ConstructionDescriptor(name, sizes, tau, tau_t, dec,
                                  {signs: ModelPiece(*models[signs]) for signs in SIGNS}, notes)


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
    square.

    Each sampled parameter A in piece t is checked against the four space
    pieces of its column at once (``symmetric_pairs``): h = V^(-t), the
    closure [h, h]_A in h and the test A in V^t do not depend on the space
    piece, so they are made once per parameter, not once per cell."""
    rng = random.Random(seed)
    cells = {(s, t): {"space": list(s), "param": list(t), "kind":
                      "group-type" if s == tuple(-x for x in t) else "symmetric-pair",
                      "verified": True, "dims": None, "failures": []}
             for s in SIGNS for t in SIGNS}
    for t in SIGNS:
        piece_t = c.piece(t)
        cls = ParamClass("piece", piece_t)
        for style in sample_styles(samples):
            a = cls.sample(rng, style)
            recs = symmetric_pairs(c.decomposition, t, a, SIGNS)
            for s in SIGNS:
                cell = cells[(s, t)]
                system = TripleSystem.from_parameter(c.piece(s), a)
                report = check_lts(system)
                if not report.ok:
                    cell["verified"] = False
                    cell["failures"].append(
                        {"style": style, "axioms": [e["axiom"] for e in report.failing()]})
                rec = recs[s]
                if not rec.verified:
                    cell["verified"] = False
                    cell["failures"].append({"style": style, "pair": rec.failures})
                if cell["dims"] is None:
                    cell["dims"] = {"g": rec.g_dim, "h": rec.h.dim, "m": rec.m.dim,
                                    "group_type": rec.group_type}
            if c.name == "proj":
                _check_proj_middle(c, a, t, cells, style)
    return TableArtifact(c.name, c.sizes, samples, seed, c.dims(),
                         [cells[(s, t)] for s in SIGNS for t in SIGNS], list(c.notes))


@lru_cache(maxsize=None)
def _proj_blocks(p: int, q: int) -> tuple:
    """The spans of the top-right (p x q) and bottom-left (q x p) off-diagonal
    blocks of M(p + q; Q), and its zero subspace: built once per size pair,
    like the model spaces."""
    n = p + q
    return (Subspace.span([Matrix.elementary(n, n, i, p + j, Q) for i in range(p) for j in range(q)]),
            Subspace.span([Matrix.elementary(n, n, p + i, j, Q) for i in range(q) for j in range(p)]),
            Subspace.zero((n, n, Q)))


def _check_proj_middle(c: ConstructionDescriptor, a: Matrix, t, cells, style):
    """For A in a middle piece, the Lie algebra on the anti-fixed space of phi
    splits as a direct product of the two off-diagonal block algebras: each
    block is closed under [.,.]_A and the blocks commute."""
    middle = ((-1, 1), (1, -1))
    if t not in middle:
        return
    tr_space, bl_space, zero = _proj_blocks(*c.sizes)
    ok = (bracket_closure(tr_space, tr_space, tr_space, a) and bracket_closure(bl_space, bl_space, bl_space, a)
          and bracket_closure(tr_space, bl_space, zero, a))
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
