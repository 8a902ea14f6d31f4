"""Differential tests of the batched structure constants and LTS checks
against the Fraction reference in ``structure_reference``, including
parameters whose numerators leave the float64 range, so that the kernel
runs on Python-int ``object`` arrays."""

import json
import random
from fractions import Fraction
from itertools import islice
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from structure_reference import (broken_derivation, constants_product, derivation_residual,
                                 lattice_of_index, matrix_of, operator_rank, reference_bilinear,
                                 reference_bracket_closure, reference_lts, reference_pair_failures,
                                 reference_rref, reference_structure)

from homotopes import homotope, kernel
from homotopes.families import (SIGNS, ParamClass, asym_space, family, family_labels, herm_space,
                                instantiate, matrix_space, rand_matrix, sym_space)
from homotopes.homotope import (AlphaMap, AlphaTriple, GenericTriple, PairTriple, ProductSpace, TripleSystem,
                                _lt3_first, bracket_closure, check_lts, standard_imbedding,
                                symmetric_pair, symmetric_pairs, triple_param)
from homotopes.involutions import JointDecomposition, MatrixInvolution
from homotopes.kernel import Arr, independent_row_indices
from homotopes.matrices import Matrix, Subspace
from homotopes.scalars import HQ, Q, QI, ring_components

# (carrier space, whether a star-symmetrised parameter keeps it closed)
SPACES = [
    (matrix_space(2, 2, Q), False),
    (matrix_space(1, 2, QI), False),
    (matrix_space(1, 1, HQ), False),
    (sym_space(2, Q), True),
    (asym_space(3, Q), True),
    (herm_space(2, QI, "conj"), True),
]
BIG = 2**61 - 1


def fractions(max_den):
    return st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, max_den))


@st.composite
def systems(draw):
    space, symmetrise = draw(st.sampled_from(SPACES))
    rows, cols, ring = space.ambient
    # X is rows x cols, so [X, Y, Z]_A needs A cols x rows
    n = rows * cols * ring_components(ring)
    scale = draw(st.sampled_from([1, Fraction(1, BIG), Fraction(BIG, 3)]))
    vec = [x * scale for x in draw(st.lists(fractions(7), min_size=n, max_size=n))]
    a = Matrix.unflatten((cols, rows, ring), vec)
    if symmetrise and draw(st.booleans()):
        a = a + a.dagger("conj")
    generic = draw(st.booleans())
    return space, a, generic


def product_of(a):
    return lambda x, y, z: triple_param(x, y, z, a)


def system_of(space, a, generic):
    if generic:
        return TripleSystem(space, GenericTriple(product_of(a)))
    return TripleSystem.from_parameter(space, a)


def assert_structure_matches(system, space, product):
    flat, coords, closed, witness = reference_structure(space, product)
    s = system.structure()
    assert (s.closed, s.witness) == (closed, witness)
    d = space.dim
    for (i, j, k), vec in flat.items():
        assert [Fraction(int(x), s.flat.den) for x in s.flat.a[i, j, k]] == list(vec)
        if closed:
            assert [Fraction(int(x), s.coords.den) for x in s.coords.a[i, j, k]] == list(coords[i, j, k])
    return s


@settings(max_examples=40, deadline=None)
@given(systems())
def test_structure_matches_reference(case):
    space, a, generic = case
    assert_structure_matches(system_of(space, a, generic), space, product_of(a))


def _big(ring, rows, cols, seed):
    """A parameter with denominator 2^61 - 1 and numerators near 2^40."""
    n = rows * cols * ring_components(ring)
    vec = [Fraction((seed * 7919 + 104729 * t) % 2**40 - 2**39, BIG) for t in range(n)]
    return Matrix.unflatten((rows, cols, ring), vec)


def test_object_tier_matches_reference():
    """Large-denominator parameters push the bounds past 2^53: the kernel
    takes the object tier and keeps the reference's structure and verdicts,
    closed or not, LTS or not."""
    a2 = _big(Q, 2, 2, 1)
    sym_a = a2 + a2.transpose()
    cases = [
        (matrix_space(2, 2, Q), product_of(a2), True),
        (sym_space(2, Q), product_of(sym_a), True),
        (sym_space(2, Q), product_of(a2), False),
        (matrix_space(1, 2, QI), product_of(_big(QI, 2, 1, 2)), True),
        (matrix_space(2, 2, Q), lambda x, y, z: (x @ a2 @ y - y @ a2 @ x) @ a2 @ z, False),
        (matrix_space(2, 2, Q), lambda x, y, z: x @ a2 @ y @ a2 @ z, False),
    ]
    for space, product, lts in cases:
        system = TripleSystem(space, GenericTriple(product))
        s = assert_structure_matches(system, space, product)
        assert s.flat.a.dtype == object
        if s.closed:
            assert s.coords.a.dtype == object
        report = check_lts(system)
        entries = [(e["axiom"], e["pass"], e["witness"]) for e in report.entries]
        assert entries == reference_lts(space, product)
        assert report.ok == lts
    # the tensor path of a plain homotope takes the same tier
    s = TripleSystem.from_parameter(matrix_space(2, 2, Q), a2).structure()
    assert s.flat.a.dtype == object and s.coords.a.dtype == object
    assert check_lts(TripleSystem.from_parameter(matrix_space(2, 2, Q), a2)).ok


def _smallest_sizes(desc):
    """(1, 2) for the rectangular families, so that transposes show; else the
    smallest n whose space is nonzero."""
    if desc.sizes == "pq":
        return (1, 2)
    return next((n,) for n in (1, 2) if desc.space((n,)).dim)


@pytest.mark.parametrize("label", family_labels())
def test_family_structure_matches_reference(label):
    """Every catalog family, plain or polarized, at its smallest sizes with one
    generic sample: the batched structure (declared alpha, stacked middle
    images) is the reference's over ``system.eval``, one ``Matrix`` product
    at a time.  With its zero sample every middle image vanishes: the zero
    structure, built with no product, and the LTS verdicts it passes at
    once are the reference's."""
    desc = family(label)
    sizes = _smallest_sizes(desc)
    system = desc.system(sizes, desc.sample_params(sizes, random.Random(label), "generic"))
    assert_structure_matches(system, system.space, system.eval)
    zero = desc.system(sizes, desc.sample_params(sizes, random.Random(label), "zero"))
    assert assert_structure_matches(zero, zero.space, zero.eval).vanishes
    assert _lts_entries(zero) == reference_lts(zero.space, zero.eval)


def test_object_tier_twisted_family():
    """1.3.c (qsplit twist and transpose) with parameters over 2^61 - 1 and
    numerators near 2^40: the object tier keeps the reference's structure, and
    the system is an LTS."""
    desc = family("1.3.c")
    params = [p.scale(Fraction(2**40 - 87, BIG))
              for p in desc.sample_params((1, 2), random.Random(13), "generic")]
    system = desc.system((1, 2), params)
    s = assert_structure_matches(system, system.space, system.eval)
    assert s.flat.a.dtype == object and s.coords.a.dtype == object
    assert check_lts(system).ok


def _graded(p, q, seed, dens=(1, 1), spaces=None):
    """A ``PairTriple`` on M(p, q; Q) x M(q, p; Q), or on the pair ``spaces``,
    with alpha_+ = AlphaMap(L1, R1) and alpha_- = AlphaMap(L2, R2) drawn
    independently, L1 and L2 scaled by 1/dens[0] and 1/dens[1]: LT1 and LT2
    hold by the form of the bracket, LT3 mostly fails."""
    rng = random.Random(seed)
    l1, r1 = rand_matrix(p, p, Q, rng).scale(Fraction(1, dens[0])), rand_matrix(q, q, Q, rng)
    l2, r2 = rand_matrix(q, q, Q, rng).scale(Fraction(1, dens[1])), rand_matrix(p, p, Q, rng)
    space = ProductSpace(*(spaces or (matrix_space(p, q, Q), matrix_space(q, p, Q))))
    return TripleSystem(space, PairTriple((AlphaMap(l1, r1), AlphaMap(l2, r2))))


def _family_system(label, sizes, scale=1):
    desc = family(label)
    return desc.system(sizes, [p.scale(scale) for p in desc.sample_params(sizes, random.Random(13), "generic")])


GRADED_CASES = {
    "pol2-3 (1, 2)": lambda: _family_system("pol2-3", (1, 2)),
    "pol2-3 (2, 1)": lambda: _family_system("pol2-3", (2, 1)),
    "middle denominators": lambda: _graded(1, 2, 3, dens=(3, 7)),
    "not closed": lambda: _graded(2, 2, 5, spaces=(sym_space(2, Q), sym_space(2, Q))),
    "object tier": lambda: _family_system("pol2-2.2", (1, 1), Fraction(2**40 - 87, BIG)),
    "empty plus grade": lambda: TripleSystem(ProductSpace(Subspace.zero((1, 2, Q)), matrix_space(2, 1, Q)),
                                             PairTriple()),
}


@pytest.mark.parametrize("case", list(GRADED_CASES))
def test_graded_structure_matches_reference(case):
    """A polarized structure is built by grade, from the two nonzero blocks:
    its products, coordinates, closure verdict and witness are the
    reference's when one grade is empty (pol2-3 with Asym(1) = 0, and a zero
    plus grade beside a minus grade whose middle images are not zero, both
    the zero structure), when the two middle stacks have different
    denominators, when the products leave the space (Sym(2) x Sym(2) under
    a non-symmetric alpha), and on the object tier (pol2-2.2,
    qsplit-Hermitian pairs, with parameters over 2^61 - 1 and numerators
    near 2^40, built like ``test_object_tier_twisted_family``)."""
    system = GRADED_CASES[case]()
    space = system.space
    s = assert_structure_matches(system, space, system.eval)
    assert s.split == space.plus.dim
    assert s.closed == (case != "not closed")
    if case.startswith("pol2-3") or case == "empty plus grade":
        assert 0 in (space.plus.dim, space.minus.dim) and s.vanishes
    if case == "middle denominators":
        bp, bm = space.plus.basis_arr(), space.minus.basis_arr()
        alpha_p, alpha_m = system.product.alphas
        assert alpha_p(bp).den != alpha_m(bm).den
    if case == "object tier":
        assert s.flat.a.dtype == object and s.coords.a.dtype == object
        assert check_lts(system).ok


def _lts_entries(system):
    return [(e["axiom"], e["pass"], e["witness"]) for e in check_lts(system).entries]


def _unit(i, j):
    return Matrix.elementary(2, 2, i, j, Q)


@pytest.mark.parametrize("space, alpha, entries", [
    (matrix_space(2, 2, Q), AlphaMap(_unit(0, 0), _unit(1, 0)),
     [("closure", True, None), ("LT1", True, None), ("LT2", True, None), ("LT3", False, (0, 1, 0, 1, 0))]),
    (sym_space(2, Q), AlphaMap.param(_unit(0, 1)),
     [("closure", False, (0, 1, 2)), ("LT1", True, None), ("LT2", True, None), ("LT3", False, None)]),
], ids=["M(2,2)-E11-X-E21", "Sym(2)-A-E12"])
def test_one_nonzero_middle_image_keeps_the_dense_verdict(space, alpha, entries):
    """Known false: the middle images vanish on every basis element but the
    second (alpha(X) = E11 X E21 on M(2, 2) maps only E12 to E11, and
    alpha(X) = A X A with A = E12 on Sym(2) only E12 + E21 to E12), so the
    product is not zero and takes the dense path: LT3 fails on M(2, 2), and
    on Sym(2) the products leave the space.  The structure, the verdicts
    and the witnesses are the reference's."""
    system = TripleSystem(space, AlphaTriple(alpha))
    assert [bool(z) for z in alpha(space.basis_arr()).is_zero()] == [i != 1 for i in range(space.dim)]
    assert not assert_structure_matches(system, space, system.eval).vanishes
    assert _lts_entries(system) == reference_lts(space, system.eval) == entries


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (1, 3)])
def test_graded_lt3_fails_as_the_reference(p, q):
    """Independent alpha_+ and alpha_- (d = 2 p q <= 6): LT1 and LT2 hold,
    LT3 fails, and the verdicts and the witness are the reference's.  At
    d = 2 the minus grade has one basis pair, so the graded hook is one slab
    of one row."""
    system = _graded(p, q, 11)
    entries = _lts_entries(system)
    assert entries == reference_lts(system.space, system.eval)
    assert [e[0] for e in entries if not e[1]] == ["LT3"]


@pytest.mark.parametrize("p, q", [(2, 2), (1, 5), (2, 3), (3, 3), (3, 4), (3, 6)])
def test_graded_lt3_fails_as_the_plain_hook(monkeypatch, p, q):
    """Independent alpha_+ and alpha_- at d = 2 p q from 8 to 36, on each
    side of ``LT3_ALL_PAIRS_MAX_DIM``: the graded hook (the slabs j >= d+
    over the rows i < d+) gives the verdicts and the witness of the plain
    hook, which reads every slab with the split ignored."""
    system = _graded(p, q, 11)
    assert system.structure().split == p * q
    graded = _lts_entries(system)
    assert [e[0] for e in graded if not e[1]] == ["LT3"]
    plain = homotope._lt3_first
    monkeypatch.setattr(homotope, "_lt3_first",
                        lambda c, ops, bound, hook, split=None: plain(c, ops, bound, hook))
    assert graded == _lts_entries(_graded(p, q, 11))


def _scattered(vp, vm):
    """The dense graded array of the block arrays vp, vm (products or
    coordinates over one denominator), entry by entry: vp at [P, M, P] in
    the first columns and vm at [M, P, M] in the others, each negated with
    its first two axes swapped at [M, P, P] and [P, M, M], zeros elsewhere."""
    s, t, n = len(vp.a), len(vm.a), vp.a.shape[-1]
    d = s + t
    out = np.zeros((d, d, d, n + vm.a.shape[-1]), dtype=object)
    for a, b, c in np.ndindex(s, t, s):
        out[a, s + b, c, :n] = [int(x) for x in vp.a[a, b, c]]
        out[s + b, a, c, :n] = [-int(x) for x in vp.a[a, b, c]]
    for a, b, c in np.ndindex(t, s, t):
        out[s + a, b, s + c, n:] = [int(x) for x in vm.a[a, b, c]]
        out[b, s + a, s + c, n:] = [-int(x) for x in vm.a[a, b, c]]
    return out


GRADED_DENSE = {
    "pol1-1.a (1, 2)": lambda: _family_system("pol1-1.a", (1, 2)),
    "pol2-1.1 (2, 1)": lambda: _family_system("pol2-1.1", (2, 1)),
    "middle denominators": GRADED_CASES["middle denominators"],
    "not closed": GRADED_CASES["not closed"],
    "object tier": GRADED_CASES["object tier"],
}


@pytest.mark.parametrize("case", list(GRADED_DENSE))
def test_graded_flat_is_the_dense_scatter(case):
    """A polarized structure keeps its two blocks; its ``flat``, built when
    read, is the dense products: the blocks and their negated mirrors,
    placed entry by entry, over the blocks' denominator and bound, in the
    dtype of that bound; the dense coordinates of a closed one likewise."""
    st = GRADED_DENSE[case]().structure()
    (fp, cp), (fm, cm) = st.blocks
    assert (fp.den, fp.bound) == (fm.den, fm.bound)
    flat = st.flat
    assert (flat.den, flat.bound) == (fp.den, fp.bound)
    assert flat.a.dtype == kernel.fit(np.zeros(1, np.float32), fp.bound).dtype
    assert np.array_equal(kernel.fit(flat.a, 2**60), _scattered(fp, fm))
    assert st.closed == (case != "not closed")
    if st.closed:
        assert (st.coords.den, st.coords.bound, st.coords.a.dtype) == (cp.den, cp.bound, flat.a.dtype)
        assert np.array_equal(kernel.fit(st.coords.a, 2**60), _scattered(cp, cm))


@pytest.mark.parametrize("case", ["pol1-1.a (1, 2)", "object tier"])
def test_passing_graded_check_never_builds_the_dense_products(monkeypatch, case):
    """LT1 and LT2 of a graded structure are read from its blocks, and its
    LT3 bound from their coordinates: a passing check builds no dense
    products."""
    system = GRADED_DENSE[case]()
    system.structure()

    def refuse(*_):
        raise AssertionError("dense products built")
    monkeypatch.setattr(homotope, "_dense", refuse)
    assert check_lts(system).ok
    with pytest.raises(AssertionError, match="dense products built"):
        system.structure().flat


def _perturbed_product(system, target, delta):
    """system.eval with delta added to the product at the basis triple
    ``target`` (indices) and subtracted at its mirror, the first two
    swapped."""
    index = {b: i for i, b in enumerate(system.space.basis_matrices())}
    mirror = (target[1], target[0], target[2])

    def product(u, v, w):
        x, xp = system.eval(u, v, w)
        sign = {target: 1, mirror: -1}.get((index[u], index[v], index[w]), 0)
        return (x + delta[0].scale(sign), xp + delta[1].scale(sign)) if sign else (x, xp)
    return product


@pytest.mark.parametrize("grade", [0, 1], ids=["plus", "minus"])
def test_graded_lt2_fails_with_the_dense_witness(monkeypatch, grade):
    """Known false: ``kernel.t_tensor`` is made to add the grade's basis
    matrix b_0 to one product of that grade's block at (a, b, c) with
    a != c, which breaks its symmetry in the first and third axes.  LT1
    still holds by the block form and LT2 fails: the check takes the
    witness from the dense products, and every verdict and witness is the
    reference's on the product perturbed the same way, at that triple and
    at its mirror."""
    system = _graded(1, 2, 11)
    s = system.space.plus.dim
    a, b, c = 1, 0, 0
    real = kernel.t_tensor
    calls = []

    def perturbed(basis, middle):
        out = real(basis, middle)
        calls.append(1)
        if len(calls) - 1 != grade:
            return out
        num = kernel.fit(out.a, 2**60).copy()
        num[a, b, c] += (out.den // basis.den) * kernel.fit(basis.a[0], 2**60)
        return Arr(num, out.den, out.bound, out.ring).actual_bound()
    monkeypatch.setattr(kernel, "t_tensor", perturbed)
    target = (a, s + b, c) if grade == 0 else (s + a, b, s + c)
    unit = system.basis()[0 if grade == 0 else s]
    entries = _lts_entries(system)
    assert len(calls) == 2
    assert entries[1] == ("LT1", True, None) and not entries[2][1]
    assert entries == reference_lts(system.space, _perturbed_product(system, target, unit))


@pytest.mark.parametrize("grade", [0, 1], ids=["plus", "minus"])
def test_graded_lt3_bound_reads_both_blocks(monkeypatch, grade):
    """One coordinate of one block raised past every other entry: the LT3
    bound that the check passes to the row pick (d = 12) is the one of the
    dense coordinates, placed entry by entry, and not the one of the other
    block alone."""
    system = _graded(2, 3, 11)
    st = system.structure()
    blocks = [b.coords for b in st.blocks]
    value = 64 * int(np.abs(kernel.fit(st.coords.a, 2**60)).max())
    bound = max(blocks[0].bound, value)
    num = [kernel.fit(x.a, bound).copy() for x in blocks]
    num[grade][0, 0, 0, 0] = value
    blocks = [Arr(n, x.den, bound, x.ring) for n, x in zip(num, blocks)]
    dense = _scattered(*blocks)
    st.blocks = tuple(homotope.Block(b.flat, x) for b, x in zip(st.blocks, blocks))
    st.coords = Arr(kernel.fit(dense, bound), blocks[0].den, bound, blocks[0].ring)
    want = homotope._lt3_bound(st.coords)
    assert homotope._lt3_bound(*blocks) == want != homotope._lt3_bound(blocks[1 - grade])
    pick, covers = kernel.independent_row_indices, []
    monkeypatch.setattr(kernel, "independent_row_indices",
                        lambda rows, cover=None: covers.append(cover) or pick(rows, cover))
    check_lts(system)
    assert covers == [want]


def _pairs(d):
    """The pairs (i, j), i < j, in the order of the half's rows."""
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def _half_scattered(v, d):
    """The dense array of a plain structure's half v (products or
    coordinates over one denominator), entry by entry: v[t, k] at (i, j, k)
    and its negative at (j, i, k) for the t-th pair i < j, zeros at i = j."""
    out = np.zeros((d, d, d, v.a.shape[-1]), dtype=object)
    for t, (i, j) in enumerate(_pairs(d)):
        for k in range(d):
            out[i, j, k] = [int(x) for x in v.a[t, k]]
            out[j, i, k] = [-int(x) for x in v.a[t, k]]
    return out


def _plain_sizes(desc):
    """The first sizes of the criterion-1 grid at which d >= 3, so that
    some basis triple has three different indices."""
    grid = [(1, 2), (2, 1), (2, 2)] if desc.sizes == "pq" else [(1,), (2,), (3,)]
    return next(s for s in grid if desc.space(s).dim >= 3)


def _plain_system(label, sizes, seed):
    desc = family(label)
    return desc.system(sizes, desc.sample_params(sizes, random.Random(seed), "generic"))


# seeds at which the generic sample of every plain family is not zero at
# ``_plain_sizes``: one-parameter families draw a zero parameter now and then
@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("label", [label for label in family_labels() if not label.startswith("pol")])
def test_plain_structure_is_the_half_scattered(label, seed):
    """Every plain family, one generic sample per seed: the structure keeps
    its half i < j (one ``Block``).  Its ``flat``, built when first read,
    and its coordinates are the half and its negated mirror placed entry by
    entry, over the half's denominator and bound, in the dtype of that
    bound; one ``coordinates`` call on the whole dense products gives the
    same coordinates, and its membership flags give the same verdict; and
    the products, coordinates, verdict and witness are the reference's."""
    system = _plain_system(label, _plain_sizes(family(label)), seed)
    st, d = system.structure(), system.dim
    (half,) = st.blocks
    assert st._flat is None and st.split is None and not st.vanishes
    assert half.flat.a.shape[:2] == half.coords.a.shape[:2] == (d * (d - 1) // 2, d)
    flat = st.flat
    assert (flat.den, flat.bound) == (half.flat.den, half.flat.bound)
    assert flat.a.dtype == kernel.fit(np.zeros(1, np.float32), flat.bound).dtype
    assert np.array_equal(kernel.fit(flat.a, 2**60), _half_scattered(half.flat, d))
    coords, member = system.space.flat_coordinates(flat)
    assert st.closed == member.all()
    if st.closed:
        assert (st.coords.den, st.coords.bound, st.coords.a.dtype) == (coords.den, coords.bound, coords.a.dtype)
        assert (half.coords.den, half.coords.bound) == (coords.den, coords.bound)
        assert np.array_equal(st.coords.a, coords.a)
        assert np.array_equal(kernel.fit(st.coords.a, 2**60), _half_scattered(half.coords, d))
    assert_structure_matches(system, system.space, system.eval)


PLAIN_CHECKS = {
    "2.2.b (1)": lambda: _plain_system("2.2.b", (1,), 0),
    "2.A (3)": lambda: _plain_system("2.A", (3,), 0),
    "object tier": lambda: TripleSystem.from_parameter(matrix_space(2, 2, Q), _big(Q, 2, 2, 1)),
}


@pytest.mark.parametrize("case", list(PLAIN_CHECKS))
def test_passing_plain_check_never_builds_the_dense_products(monkeypatch, case):
    """LT1 of a plain structure holds by form, LT2 is read from its dense
    coordinates, and LT3 reads its operators and bound from the half's
    coordinates, on each side of ``LT3_ALL_PAIRS_MAX_DIM`` (d = 3 and 12)
    and on the object tier: a passing check, and the standard imbedding,
    build no dense products."""
    system = PLAIN_CHECKS[case]()
    system.structure()

    def refuse(*_):
        raise AssertionError("dense products built")
    monkeypatch.setattr(homotope, "_dense", refuse)
    assert check_lts(system).ok and standard_imbedding(system).ok
    with pytest.raises(AssertionError, match="dense products built"):
        system.structure().flat


def _plain_perturbed(system, target, delta):
    """system.eval with delta added at the basis triple ``target`` and
    subtracted at its mirror, the first two swapped."""
    index = {b: i for i, b in enumerate(system.basis())}
    mirror = (target[1], target[0], target[2])

    def product(x, y, z):
        sign = {target: 1, mirror: -1}.get((index[x], index[y], index[z]), 0)
        return system.eval(x, y, z) + delta.scale(sign) if sign else system.eval(x, y, z)
    return product


@pytest.mark.parametrize("pair, k, m", [((0, 1), 2, 3), ((2, 3), 0, 1)], ids=["j = i + 1", "last pair"])
@pytest.mark.parametrize("inside", [True, False], ids=["in the space", "out of the space"])
def test_plain_half_perturbed_in_one_entry(monkeypatch, pair, k, m, inside):
    """Known false: ``kernel.t_half`` is made to add one matrix to the
    product of one pair (i, j) at k, at the first pair (0, 1), where
    j = i + 1, and at the last, (2, 3).  The space is spanned by the units
    b_c = E_{0, c+1} of the first row of M(5, 5; Q) (d = 4) with
    alpha(Y) = Y diag(0, 1, 1, 1, 1): the middle images are not zero, but
    every product b_a alpha(b_c) b_e has the factor alpha(b_c)[a + 1, 0] = 0,
    so only the perturbation is nonzero.  The scatter puts its negative at
    (j, i, k), so LT1 still holds by form.  Adding the fourth basis matrix
    b_m keeps the products in the space, and only LT2 fails, at the least
    rotation of (i, j, k), whose cyclic sum holds the changed product; LT3
    holds, since m is none of i, j, k, so no product has b_m as an argument
    and no operator has b_k in its image.  Adding E_10 leaves the space, and
    closure fails at (i, j, k).  Every verdict and witness is the
    reference's on the product perturbed the same way, at that triple and
    at its mirror."""
    space = Subspace.span([Matrix.elementary(5, 5, 0, c, Q) for c in range(1, 5)])
    right = Matrix.from_rows(Q, [[int(r == c > 0) for c in range(5)] for r in range(5)])
    system = TripleSystem(space, AlphaTriple(AlphaMap(None, right)))
    assert not system.product.alpha(space.basis_arr()).is_zero().any()
    t = _pairs(system.dim).index(pair)
    delta = system.basis()[m] if inside else Matrix.elementary(5, 5, 1, 0, Q)
    real, calls = kernel.t_half, []

    def perturbed(basis, middle):
        out = real(basis, middle)
        calls.append(1)
        assert not out.a.any()
        num = kernel.fit(out.a, 2**60)
        num[t, k] += out.den * kernel.fit(delta.a, 2**60)
        return Arr(num, out.den, out.bound, out.ring).actual_bound()
    monkeypatch.setattr(kernel, "t_half", perturbed)
    i, j = pair
    entries = _lts_entries(system)
    assert len(calls) == 1
    if inside:
        assert entries == [("closure", True, None), ("LT1", True, None),
                           ("LT2", False, min((i, j, k), (j, k, i), (k, i, j))), ("LT3", True, None)]
    else:
        assert entries[:2] == [("closure", False, (i, j, k)), ("LT1", True, None)]
    assert entries == reference_lts(space, _plain_perturbed(system, (i, j, k), delta))


def test_zero_sandwich_factor_vanishes_with_no_product(monkeypatch):
    """A zero factor L or R of the sandwich (a zero parameter, and a
    polarized pair whose two alphas each have one) gives the zero
    structure before any middle image is computed: no ``matrix_mul``.  A
    one-entry parameter, and a pair where only one alpha has a zero factor,
    keep the reference's structure, which is not zero."""
    zero, unit = Matrix.zeros(2, 2, Q), _unit(0, 0)
    space = matrix_space(2, 2, Q)
    pairs = ProductSpace(matrix_space(1, 2, Q), matrix_space(2, 1, Q))
    one, two = Matrix.identity(1, Q), Matrix.identity(2, Q)
    vanishing = [TripleSystem.from_parameter(space, zero),
                 TripleSystem(space, AlphaTriple(AlphaMap(unit, zero, "id", True))),
                 TripleSystem(pairs, PairTriple((AlphaMap(Matrix.zeros(1, 1, Q), two),
                                                 AlphaMap(two, Matrix.zeros(1, 1, Q)))))]
    with monkeypatch.context() as patch:
        def refuse(*_):
            raise AssertionError("matrix_mul called")
        patch.setattr(kernel, "matrix_mul", refuse)
        for system in vanishing:
            assert system.structure().vanishes
    for system in vanishing:
        assert _lts_entries(system) == reference_lts(system.space, system.eval)
    kept = [TripleSystem.from_parameter(space, unit),
            TripleSystem(pairs, PairTriple((AlphaMap(Matrix.zeros(1, 1, Q), two), AlphaMap(two, one))))]
    for system in kept:
        assert not assert_structure_matches(system, system.space, system.eval).vanishes


TWISTS = [(Q, "id"), (QI, "id"), (QI, "conj"), (HQ, "id"), (HQ, "qconj"), (HQ, "qsplit"), (HQ, "phi")]


@pytest.mark.parametrize("ring, twist", TWISTS)
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("factors", [True, False])
def test_alpha_stack_matches_matrix_path(ring, twist, transpose, sign, factors):
    """``AlphaMap`` on a stack of 2 x 3 matrices is ``AlphaMap`` applied to
    each ``Matrix`` of it, with rectangular factors L, R or none."""
    rng = random.Random(f"{ring} {twist} {transpose} {sign}")
    rows, cols = (3, 2) if transpose else (2, 3)
    left, right = (rand_matrix(1, rows, ring, rng), rand_matrix(cols, 2, ring, rng)) if factors else (None, None)
    alpha = AlphaMap(left, right, twist, transpose, sign)
    basis = [rand_matrix(2, 3, ring, rng) for _ in range(3)]
    got = alpha(Arr.from_matrices(basis))
    assert [matrix_of(got[t]) for t in range(len(basis))] == [alpha(b) for b in basis]


@st.composite
def bracket_cases(draw):
    """Spans of 1-3 matrices in M(n, n; ring), a parameter, and a target: the
    span of the brackets (closed), a random span (mostly not), or the span
    of the brackets without its last basis vector."""
    ring = draw(st.sampled_from([Q, QI, HQ]))
    n = draw(st.integers(1, 2))
    k = ring_components(ring)

    def span():
        count = draw(st.integers(1, 3))
        comps = st.lists(fractions(5), min_size=n * n * k, max_size=n * n * k)
        return Subspace.span([Matrix.unflatten((n, n, ring), draw(comps)) for _ in range(count)])

    left, right, a = span(), span(), Matrix.unflatten((n, n, ring), draw(
        st.lists(fractions(5), min_size=n * n * k, max_size=n * n * k)))
    brackets = Subspace((n, n, ring), list(reference_bilinear(left, right, a).values()))
    target = draw(st.sampled_from(["brackets", "random", "short"]))
    if target == "random":
        return left, right, span(), a
    if target == "short" and brackets.dim:
        return left, right, Subspace((n, n, ring), brackets.basis[:-1]), a
    return left, right, brackets, a


@settings(max_examples=40, deadline=None)
@given(bracket_cases())
def test_bilinear_tensor_matches_reference(case):
    """``kernel.bilinear_tensor`` is the bracket of every basis pair, and
    ``bracket_closure`` is the reference's verdict, true or false."""
    left, right, target, a = case
    bb = kernel.bilinear_tensor(left.basis_arr(), right.basis_arr(), a)
    for (i, j), value in reference_bilinear(left, right, a).items():
        assert matrix_of(bb[i, j]).flatten() == value
    assert bracket_closure(left, right, target, a) == reference_bracket_closure(left, right, target, a)


def test_bracket_closure_rejects_wrong_target_piece():
    """The transpose splits M(2, 2; Q) into h = Asym(2) and m = Sym(2), and
    with A = 1, [h, m] lies in m, not in h: [J, E_11] = -(E_12 + E_21)."""
    h, m, one = asym_space(2, Q), sym_space(2, Q), Matrix.identity(2, Q)
    assert bracket_closure(h, m, m, one) and bracket_closure(m, m, h, one)
    assert not bracket_closure(h, m, h, one)
    assert not bracket_closure(m, m, m, one)
    assert not reference_bracket_closure(h, m, h, one)


@pytest.mark.parametrize("name, sizes", [("proj", (1, 1)), ("proj", (1, 2)), ("siegel", (1,)), ("siegel", (2,)),
                                         ("quat1", (1,)), ("quat1", (2,)), ("quat2", (1,))], ids=str)
def test_symmetric_pairs_match_reference(name, sizes):
    """One parameter against the four space pieces at once gives, in every
    cell, the failures of the reference: its three closures bracket by
    bracket and its direct sum by a Fraction rank, and those of the one-cell
    ``symmetric_pair``."""
    dec = instantiate(name, sizes).decomposition
    rng = random.Random(5)
    for t in SIGNS:
        param = ParamClass("piece", dec.piece(t))
        for style in ("zero", "low", "generic"):
            a = param.sample(rng, style)
            recs = symmetric_pairs(dec, t, a, SIGNS)
            assert list(recs) == list(SIGNS)
            for s in SIGNS:
                want = reference_pair_failures(dec, s, t, a)
                assert recs[s].failures == symmetric_pair(dec, s, t, a).failures == want
                assert recs[s].verified == (not want)
                assert recs[s].group_type == (s == tuple(-x for x in t))


def test_symmetric_pairs_fail_on_swapped_pieces():
    """proj(1, 2) with its pieces (1, 1) and (1, -1) swapped is not the
    decomposition of its involutions: a known-false input on which named
    cells fail, one parameter at a time and one cell at a time alike, as the
    reference says, with each of the three closures failing somewhere."""
    c = instantiate("proj", (1, 2))
    pieces = dict(c.decomposition.pieces)
    pieces[(1, 1)], pieces[(1, -1)] = pieces[(1, -1)], pieces[(1, 1)]
    dec = JointDecomposition(c.decomposition.involutions, pieces)
    rng = random.Random(1)
    failed = {}
    for t in SIGNS:
        a = ParamClass("piece", dec.piece(t)).sample(rng, "generic")
        recs = symmetric_pairs(dec, t, a, SIGNS)
        for s in SIGNS:
            want = reference_pair_failures(dec, s, t, a)
            assert recs[s].failures == symmetric_pair(dec, s, t, a).failures == want
            failed[(s, t)] = want
    # A in the swapped piece (1, 1) (the old (1, -1)): h = V^(-1, -1) is
    # still closed, but the space pieces (1, 1) and (1, -1) break the pair
    assert failed[((1, 1), (1, 1))] == failed[((1, -1), (1, 1))] == ["[h,m] in m", "[m,m] in h"]
    assert failed[((-1, 1), (-1, 1))] == ["[h,h] in h", "[h,m] in m", "[m,m] in h"]


def test_symmetric_pairs_reject_a_parameter_outside_its_piece():
    """A nonzero parameter of piece (1, 1) is not in piece (1, -1): both the
    per-parameter and the per-cell path refuse it."""
    dec = instantiate("proj", (1, 2)).decomposition
    a = ParamClass("piece", dec.piece((1, 1))).sample(random.Random(2), "generic")
    with pytest.raises(ValueError, match="declared joint eigenspace"):
        symmetric_pairs(dec, (1, -1), a, SIGNS)
    with pytest.raises(ValueError, match="declared joint eigenspace"):
        symmetric_pair(dec, (1, 1), (1, -1), a)
    assert symmetric_pairs(dec, (1, 1), a, SIGNS)[(1, 1)].verified


def test_symmetric_pairs_reject_a_decomposition_that_is_not_direct():
    """Sym(2) and span{1} overlap in 1 (dims 3 + 1 = 4), so they are not a
    direct sum: both the per-parameter and the per-cell path refuse the
    decomposition, for a parameter that lies in its piece."""
    one = Matrix.identity(2, Q)
    pieces = {(1,): sym_space(2, Q), (-1,): Subspace.span([one])}
    dec = JointDecomposition([MatrixInvolution.transpose_inv(2, Q)], pieces)
    assert not dec.check_direct_sum()
    for t in pieces:
        assert dec.piece(t).contains(one)
        with pytest.raises(ValueError, match="not a direct sum"):
            symmetric_pairs(dec, t, one, list(pieces))
        with pytest.raises(ValueError, match="not a direct sum"):
            symmetric_pair(dec, (1,), t, one)


def _assert_lt3_alone_fails(width, scale, first, second, reference=True):
    space = matrix_space(1, width, Q)
    product = broken_derivation(width, scale, first, second)
    report = check_lts(TripleSystem(space, GenericTriple(product)))
    entries = [(e["axiom"], e["pass"], e["witness"]) for e in report.entries]
    if reference:
        assert entries == reference_lts(space, product)
    assert [e["axiom"] for e in report.failing()] == ["LT3"]
    f, s = first, second
    assert report.failing()[0]["witness"] == (min(f, s), max(f, s)) + min((f, s, f), (s, f, f))


@pytest.mark.parametrize("width, scale", [(2, 1), (3, 1), (3, Fraction(2**60, 7))])
def test_lt3_fails_where_lt1_lt2_hold(width, scale):
    """Closed, LT1 and LT2 hold, LT3 fails: the verdicts and the witness are
    the reference's (the last case runs on the ``object`` tier)."""
    _assert_lt3_alone_fails(width, scale, 0, 1)


@pytest.mark.parametrize("first, second", [(1, 0), (2, 1), (2, 4), (4, 3)])
def test_lt3_failure_in_each_hook_slab(first, second):
    """On five basis vectors, the only nonzero LT3 residual entry with
    i < j, i <= k lies in slab i = min(first, second): in the first, a
    middle, and the last slab (i = d - 2), at k = i and at k = j."""
    _assert_lt3_alone_fails(5, 1, first, second)


@pytest.mark.parametrize("width", [homotope.LT3_ALL_PAIRS_MAX_DIM, homotope.LT3_ALL_PAIRS_MAX_DIM + 1])
@pytest.mark.parametrize("first, second", [(0, 1), (-1, -2)])
def test_lt3_alone_fails_on_each_side_of_the_size_rule(monkeypatch, width, first, second):
    """Only LT3 fails, at the largest d where every operator is checked
    (no row pick) and at the smallest where a picked basis is: the verdicts
    and the witness are those ``broken_derivation`` states (the reference
    takes minutes at these d)."""
    pick, calls = kernel.independent_row_indices, []
    monkeypatch.setattr(kernel, "independent_row_indices",
                        lambda rows, cover=None: calls.append(1) or pick(rows, cover))
    _assert_lt3_alone_fails(width, 1, first % width, second % width, reference=False)
    assert len(calls) == (width > homotope.LT3_ALL_PAIRS_MAX_DIM)


def test_lt3_scan_finishes_the_batch_of_its_first_nonzero_slab():
    """Known false: the sum of ``broken_derivation`` on (0, 3) and on (1, 2)
    over 1 x 4 rows, whose supports are disjoint, so that LT1 and LT2 hold
    and the nonzero operators are R(e_0, e_3) and R(e_1, e_2), each failing
    as it does alone: at (0, 3, 0) and (3, 0, 0), resp. (1, 2, 1) and
    (2, 1, 1).  One batch holds both.  With the hook, operator 0 fails only
    in the last slab, j = 3, and operator 1 in an earlier one, j = 2; over
    every triple with the two swapped, operator 0 fails in the slabs 1 and 2
    and operator 1 in slab 0.  Either way the scan answers with operator 0
    and its first triple, and ``check_lts`` reports the reference's witness,
    which names R(e_0, e_3)."""
    space = matrix_space(1, 4, Q)
    outer, inner = broken_derivation(4, 1, 0, 3), broken_derivation(4, 1, 1, 2)

    def product(x, y, z):
        return outer(x, y, z) + inner(x, y, z)

    system = TripleSystem(space, GenericTriple(product))
    c = system.structure().coords.a
    _, ops = homotope._inner_operators(c, True)
    ops = ops[ops.reshape(len(ops), 16).any(axis=1)]
    bound = homotope._lt3_bound(system.structure().coords)
    assert len(ops) == 2
    assert _lt3_first(c, ops, bound, hook=True) == (0, (0, 3, 0))
    assert _lt3_first(c, ops[::-1], bound, hook=False) == (0, (1, 2, 1))
    entries = _lts_entries(system)
    assert entries == reference_lts(space, product)
    assert entries[3] == ("LT3", False, (0, 3, 0, 3, 0))


def test_lt3_reads_every_triple_without_lt2():
    """[x, y, z] = (x_1 y_3 - x_3 y_1) z_0 e_0 + (x_2 y_3 - x_3 y_2) z_1 e_1:
    LT1 holds and LT2 fails, and the LT3 residuals vanish on every triple with
    i < j, i <= k but not at (1, 3, 0), so the hook alone would pass it."""
    product = constants_product({(1, 3, 0, 0): 1, (3, 1, 0, 0): -1, (2, 3, 1, 1): 1, (3, 2, 1, 1): -1}, 4)
    space = matrix_space(1, 4, Q)
    report = check_lts(TripleSystem(space, GenericTriple(product)))
    entries = [(e["axiom"], e["pass"], e["witness"]) for e in report.entries]
    assert entries == reference_lts(space, product)
    assert [e["axiom"] for e in report.failing()] == ["LT2", "LT3"]
    assert report.failing()[1]["witness"] == (2, 3, 1, 3, 0)


def test_lt3_witness_without_lt1_is_the_first_ordered_pair():
    """Known false: [x, y, z] = x_1 y_0 z_0 e_1 on 1 x 2 row vectors.  LT1
    fails, so LT3 checks every ordered pair, and the one nonzero operator,
    R(e_1, e_0): e_0 -> e_1, is no derivation: its residual is -e_1 at
    (0, 0, 0).  The witness names that pair, (1, 0), though 1 > 0."""
    space, product = matrix_space(1, 2, Q), constants_product({(1, 0, 0, 1): 1}, 2)
    entries = _lts_entries(TripleSystem(space, GenericTriple(product)))
    assert entries == reference_lts(space, product)
    assert entries[1][:2] == ("LT1", False) and entries[3] == ("LT3", False, (1, 0, 0, 0, 0))


def test_witness_json_names_indices_and_basis_matrices():
    """Known false: the JSON of a failing LTS report, rendered against its
    system, gives each witness's basis indices and basis matrices; LT3 fails
    for ``broken_derivation`` on 1 x 3 rows at (0, 1, 0, 1, 0)."""
    system = TripleSystem(matrix_space(1, 3, Q), GenericTriple(broken_derivation(3, 1)))
    unit = [{"rows": 1, "cols": 3, "ring": "Q", "entries": [["1" if w == i else "0" for w in range(3)]]}
            for i in range(3)]
    assert json.loads(json.dumps(check_lts(system).to_json(system))) == [
        {"axiom": "closure", "pass": True, "witness": None},
        {"axiom": "LT1", "pass": True, "witness": None},
        {"axiom": "LT2", "pass": True, "witness": None},
        {"axiom": "LT3", "pass": False, "witness": {"indices": [0, 1, 0, 1, 0],
                                                    "matrices": [unit[i] for i in (0, 1, 0, 1, 0)]}},
    ]


def test_polarized_witness_json_renders_plus_and_minus():
    """Known false: a polarized system's witness renders each basis element
    as its pair of blocks, the other grade's block zero; LT3 fails for
    independent alphas on M(1, 2) x M(2, 1), and ``to_json()`` without the
    system gives the indices alone."""
    system = _graded(1, 2, 5)
    report = check_lts(system)
    (failed,) = report.failing()
    assert failed["axiom"] == "LT3"
    (rendered,) = [e["witness"] for e in report.to_json(system) if not e["pass"]]
    assert rendered["indices"] == list(failed["witness"]) == [0, 2, 0, 2, 0]
    plus, minus = system.space.plus.basis_matrices(), system.space.minus.basis_matrices()
    zero_plus, zero_minus = Matrix.zeros(1, 2, Q).to_json(), Matrix.zeros(2, 1, Q).to_json()
    expect = [{"plus": plus[i].to_json(), "minus": zero_minus} if i < len(plus)
              else {"plus": zero_plus, "minus": minus[i - len(plus)].to_json()} for i in rendered["indices"]]
    assert rendered["matrices"] == expect
    assert [e["witness"] for e in report.to_json() if not e["pass"]] == [{"indices": [0, 2, 0, 2, 0]}]


def _pick_prime(k: int) -> int:
    """The first prime the row pick tries on k rows or columns."""
    return next(kernel._primes_below(kernel._modulus_limit(k)))


def _operator_constants(ops: dict, x: int, targets) -> dict:
    """Structure constants under which each R(e_u, e_v) of ``ops`` maps e_x
    to the combination ``ops[u, v]`` of the ``targets`` (and every other e_w
    to 0), and R(e_v, e_u) = -R(e_u, e_v)."""
    constants = {}
    for (u, v), row in ops.items():
        for w, value in zip(targets, row):
            constants[u, v, x, w], constants[v, u, x, w] = value, -value
    return constants


def test_lt3_pick_certified_by_the_residual_bound(monkeypatch):
    """An operator dependent modulo the pick prime p and independent over Q,
    whose residual is zero.  On e_0, ..., e_8, R(e_0, e_1), R(e_0, e_2),
    R(e_0, e_3) and R(e_1, e_2) map e_4 to the rows of ``lattice_of_index``
    (base 256) on e_5, ..., e_8, and every other operator is 0.  Each is a
    derivation: no bracket takes an argument among e_5, ..., e_8, and none
    has a value at e_4.  The residual bound, at most 4 * 256 * 1020, is
    below p, so the pick modulo p, three operators, needs no other prime:
    LT3 checks those three and passes.  h, picked behind the Hadamard
    cover, has all four operators, their rank over Q.  (LT2 fails, so LT3
    reads every triple.)"""
    p = _pick_prime(4)
    rows = lattice_of_index(p, 256, 4)
    constants = _operator_constants(dict(zip([(0, 1), (0, 2), (0, 3), (1, 2)], rows)), 4, range(5, 9))
    space, product = matrix_space(1, 9, Q), constants_product(constants, 9)
    system = TripleSystem(space, GenericTriple(product))
    assert homotope._lt3_bound(system.structure().coords) < p
    pick, picks = kernel.independent_row_indices, []
    monkeypatch.setattr(kernel, "independent_row_indices",
                        lambda rows, cover=None: picks.append(pick(rows, cover)) or picks[-1])
    entries = _lts_entries(system)
    assert entries == reference_lts(space, product)
    assert entries[3] == ("LT3", True, None) and len(picks) == 1 and len(picks[0]) == 3
    emb = standard_imbedding(system)
    assert emb.h_dim == len(reference_rref(rows)[0]) == operator_rank(system) == 4


def test_lt3_pick_past_p_rejects_an_operator_it_missed():
    """Known false: an operator dependent modulo the pick prime p and
    independent over Q, whose residual is a nonzero multiple of p.  On
    e_0, ..., e_8, R(e_0, e_1) and R(e_0, e_2) map e_3 to the rows (b, -1)
    and (d_0, d_1) of ``lattice_of_index`` (base b = 2^13, p = d_0 + d_1 b)
    on e_4, e_5, and [e_4, e_6, e_7] = e_8, [e_5, e_6, e_7] = b e_8 (so
    R(e_4, e_6) and R(e_5, e_6) are multiples of e_7 -> e_8), antisymmetric
    in the first two arguments.  Each operator but R(e_0, e_2) is a
    derivation; R(e_0, e_2) has the residual -(d_0 + d_1 b) e_8 = -p e_8 at
    (3, 6, 7).  The residual bound lies between p and p q, q the next prime,
    so the certificate checks q, where R(e_0, e_2) is no combination of the
    two operators picked modulo p, and the pick modulo q takes all three:
    LT3 fails, with the reference's witness."""
    p, q = islice(kernel._primes_below(kernel._modulus_limit(3)), 2)
    assert p == _pick_prime(3)
    base = 2**13
    (lead, digits) = lattice_of_index(p, base, 2)
    constants = _operator_constants({(0, 1): lead, (0, 2): digits}, 3, (4, 5))
    for w, f in ((4, 1), (5, base)):
        constants[w, 6, 7, 8], constants[6, w, 7, 8] = f, -f
    space, product = matrix_space(1, 9, Q), constants_product(constants, 9)
    system = TripleSystem(space, GenericTriple(product))
    assert p < homotope._lt3_bound(system.structure().coords) < p * q
    entries = _lts_entries(system)
    assert entries == reference_lts(space, product)
    assert entries[3] == ("LT3", False, (0, 2, 3, 6, 7))
    emb = standard_imbedding(system)
    assert not emb.ok and emb.h_dim == operator_rank(system) == 3


# scales of the structure constants that put the flattened products in each
# tier: float32, float64, float64 with 3 * bound past 2^53 (so LT1 and LT2
# run on Python ints), and ``object``; None scales max |c| to just below 2^52
TIER_SCALES = [(1, np.float32), (2**30, np.float64), (None, np.float64), (2**60, object)]


@st.composite
def lt1_lt2_systems(draw):
    """Integer structure constants c = 3 A - S on 1 x d row vectors, A the
    (i, j)-antisymmetrisation of a random tensor and S its cyclic sum, so
    that LT1 and LT2 hold (``_lt1_lt2_part``); then none, one entry, or an
    entry and its (i, j)-mirror perturbed, so that both, LT1, or only LT2
    fail at a drawn triple; scaled into a tier of ``TIER_SCALES``."""
    d = draw(st.integers(2, 4))
    t = draw(st.lists(st.integers(-3, 3), min_size=d**4, max_size=d**4))

    def a(i, j, k, m):
        return t[((i * d + j) * d + k) * d + m] - t[((j * d + i) * d + k) * d + m]
    c = {(i, j, k, m): 3 * a(i, j, k, m) - a(i, j, k, m) - a(j, k, i, m) - a(k, i, j, m)
         for i, j, k, m in np.ndindex(d, d, d, d)}
    kind = draw(st.sampled_from(["none", "entry", "mirrored"]))
    if kind != "none":
        i, j, k, m = (draw(st.integers(0, d - 1)) for _ in range(4))
        delta = draw(st.sampled_from([1, -2]))
        c[i, j, k, m] += delta
        if kind == "mirrored":
            c[j, i, k, m] -= delta
    scale, dtype = draw(st.sampled_from(TIER_SCALES))
    top = max(map(abs, c.values()))
    if scale is None:
        scale = 2**52 // max(top, 1)
    return d, {key: value * scale for key, value in c.items() if value}, dtype


@settings(max_examples=40, deadline=None)
@given(lt1_lt2_systems(), st.integers(1, 3))
def test_lt1_lt2_blocks_match_reference(case, slabs):
    """LT1 and LT2, checked a block of slabs i at a time (here blocks of
    one to three slabs), give the reference's verdicts and witnesses in
    every tier of the flattened products, including float64 products whose
    sums need Python ints."""
    d, constants, dtype = case
    space, product = matrix_space(1, d, Q), constants_product(constants, d)
    system = TripleSystem(space, GenericTriple(product))
    flat = system.structure().flat
    if constants:
        assert flat.a.dtype == dtype
    if dtype == np.float64 and flat.bound > 2**50:
        assert 3 * flat.bound >= 2**53
    with pytest.MonkeyPatch.context() as patch:
        # d x d products of d entries per slab
        patch.setattr(homotope, "LT12_BLOCK", slabs * d**3)
        assert _lts_entries(system) == reference_lts(space, product)


def _homotope_coords(space, a):
    """The structure constants of the A-homotope on ``space`` as Fractions."""
    s = TripleSystem.from_parameter(space, a).structure()
    d = space.dim
    return {(i, j, k): [Fraction(int(x), s.coords.den) for x in s.coords.a[i, j, k]]
            for i in range(d) for j in range(d) for k in range(d)}


@st.composite
def homotopes(draw):
    """A small closed A-homotope (an LTS): its space and structure constants."""
    space, symmetrise = draw(st.sampled_from(SPACES[:5]))
    rows, cols, ring = space.ambient
    n = rows * cols * ring_components(ring)
    a = Matrix.unflatten((cols, rows, ring), draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    if symmetrise:
        a = a + a.dagger("conj")
    return space, _homotope_coords(space, a)


def _lt1_lt2_part(d, u, v, w, m, delta):
    """delta e_m placed at (u, v, w), projected onto the tensors that are
    antisymmetric in (i, j) with zero cyclic sum: P = A - S/3, with A the
    (i, j)-antisymmetrisation and S the cyclic sum of A (totally
    antisymmetric, so the cyclic sum of S/3 is S)."""
    def a(i, j, k):
        return delta * (((i, j, k) == (u, v, w)) - ((j, i, k) == (u, v, w)))
    out = {}
    for i, j, k in np.ndindex(d, d, d):
        value = a(i, j, k) - Fraction(a(i, j, k) + a(j, k, i) + a(k, i, j), 3)
        if value:
            out[i, j, k] = value
    return out


@settings(max_examples=25, deadline=None)
@given(homotopes(), st.data())
def test_hook_check_matches_reference_on_perturbed_lts(base, data):
    """An LTS whose structure constants are perturbed in one entry, projected
    so that LT1 and LT2 still hold: ``check_lts`` checks LT3 on the (2, 1)
    hook only, and its verdicts and witness are the reference's, which checks
    every triple."""
    space, c = base
    d = space.dim
    u, v = sorted(data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)))
    w, m = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    delta = data.draw(st.sampled_from([1, -3, Fraction(3, 2)]))
    for key, value in _lt1_lt2_part(d, u, v, w, m, delta).items():
        c[key] = c[key][:m] + [c[key][m] + value] + c[key][m + 1:]

    product = constants_product({(i, j, k, m): value for (i, j, k), vec in c.items()
                                 for m, value in enumerate(vec) if value}, d)
    flat_space = matrix_space(1, d, Q)
    report = check_lts(TripleSystem(flat_space, GenericTriple(product)))
    entries = [(e["axiom"], e["pass"], e["witness"]) for e in report.entries]
    assert entries[:3] == [("closure", True, None), ("LT1", True, None), ("LT2", True, None)]
    assert entries == reference_lts(flat_space, product)


@settings(max_examples=25, deadline=None)
@given(homotopes(), st.data())
def test_residual_slabs_match_reference(base, data):
    """The LT3 residual slabs of a stack of more than d operators: every
    R(u, v) of an LTS (derivations) with one operator R(u, v) + delta E_wm
    inserted at a drawn position.  With the hook and over every triple they
    report a nonzero residual exactly when the reference finds one on some
    triple, and then at the inserted operator; every other operator alone
    passes, and the scan of the inserted operator alone over every triple
    finds the reference's first nonzero triple."""
    space, c = base
    d = space.dim
    ops = [[c[u, v, w] for w in range(d)] for u in range(d) for v in range(d)]
    u, v, w, m = (data.draw(st.integers(0, d - 1)) for _ in range(4))
    delta = data.draw(st.sampled_from([0, 1, Fraction(-1, 2)]))
    e = [list(row) for row in ops[u * d + v]]
    e[w][m] += delta
    at = data.draw(st.sampled_from([0, d, len(ops)]))
    ops.insert(at, e)
    den = lcm(*(x.denominator for vec in c.values() for x in vec),
              *(x.denominator for op in ops for row in op for x in row))
    cc = np.array([[[[int(x * den) for x in c[i, j, k]] for k in range(d)] for j in range(d)]
                   for i in range(d)], dtype=np.float64)
    stack = np.array([[[int(x * den) for x in row] for row in op] for op in ops], dtype=np.float64)
    bound = 4 * d * int(max(np.abs(cc).max(), np.abs(stack).max())) ** 2
    triples = list(np.ndindex(d, d, d))
    first = next((t for t in triples if any(derivation_residual(c, d, e, *t))), None)
    hooked, every = (_lt3_first(cc, stack, bound, hook) for hook in (True, False))
    assert (hooked is None) == (first is None) == (every is None)
    assert first is None or hooked[0] == every[0] == at
    assert all(_lt3_first(cc, stack[t:t + 1], bound, hook=True) is None for t in range(len(stack)) if t != at)
    assert _lt3_first(cc, stack[at:at + 1], bound, hook=False) == (None if first is None else (0, first))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=12))
def test_row_selection_same_in_every_tier(rows):
    """The LT3 row selection picks the same rows whether the coordinates are
    float32, float64 or Python ints: the rows scaled by 1, 2^30 and 2^60 fall
    in each tier of ``kernel.fit`` (which the selection applies to twice their
    largest entry), and scaling by a power of 2 changes no pick modulo an odd
    prime."""
    picks = []
    for scale, dtype in ((1, np.float32), (2**30, np.float64), (2**60, object)):
        scaled = np.array([[x * scale for x in row] for row in rows], dtype=dtype)
        if scaled.any():
            assert kernel.fit(scaled, 2 * int(np.abs(scaled).max())).dtype == dtype
        picks.append(independent_row_indices(scaled))
    assert picks[0] == picks[1] == picks[2] == independent_row_indices(np.array(rows, dtype=object))
