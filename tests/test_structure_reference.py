"""Differential tests of the batched structure constants and LTS checks
against the Fraction reference in ``structure_reference``, including
parameters whose numerators leave the float64 range, so that the kernel
runs on Python-int ``object`` arrays."""

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from structure_reference import (broken_derivation, derivation_residual, matrix_of,
                                 reference_bilinear, reference_bracket_closure,
                                 reference_lts, reference_structure)

from homotopes import homotope, kernel
from homotopes.families import (asym_space, family, family_labels, herm_space, matrix_space,
                                rand_matrix, sym_space)
from homotopes.homotope import (AlphaMap, GenericTriple, TripleSystem, _lt3_first_nonzero,
                                bracket_closure, check_lts, triple_param)
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
    at a time."""
    desc = family(label)
    sizes = _smallest_sizes(desc)
    system = desc.system(sizes, desc.sample_params(sizes, random.Random(label), "generic"))
    assert_structure_matches(system, system.space, system.eval)


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
    monkeypatch.setattr(kernel, "independent_row_indices", lambda rows: calls.append(1) or pick(rows))
    _assert_lt3_alone_fails(width, 1, first % width, second % width, reference=False)
    assert len(calls) == (width > homotope.LT3_ALL_PAIRS_MAX_DIM)


def test_lt3_reads_every_triple_without_lt2():
    """[x, y, z] = (x_1 y_3 - x_3 y_1) z_0 e_0 + (x_2 y_3 - x_3 y_2) z_1 e_1:
    LT1 holds and LT2 fails, and the LT3 residuals vanish on every triple with
    i < j, i <= k but not at (1, 3, 0), so the hook alone would pass it."""
    def product(x, y, z):
        xs, ys, zs = x.flatten(), y.flatten(), z.flatten()
        return Matrix.unflatten((1, 4, Q), [(xs[1] * ys[3] - xs[3] * ys[1]) * zs[0],
                                            (xs[2] * ys[3] - xs[3] * ys[2]) * zs[1], 0, 0])
    space = matrix_space(1, 4, Q)
    report = check_lts(TripleSystem(space, GenericTriple(product)))
    entries = [(e["axiom"], e["pass"], e["witness"]) for e in report.entries]
    assert entries == reference_lts(space, product)
    assert [e["axiom"] for e in report.failing()] == ["LT2", "LT3"]
    assert report.failing()[1]["witness"] == (2, 3, 1, 3, 0)


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

    def product(x, y, z):
        xs, ys, zs = x.flatten(), y.flatten(), z.flatten()
        out = [Fraction(0)] * d
        for (i, j, k), vec in c.items():
            coef = xs[i] * ys[j] * zs[k]
            if coef:
                out = [o + coef * t for o, t in zip(out, vec)]
        return Matrix.unflatten((1, d, Q), out)

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
    inserted at a drawn position.  With the hook they report a nonzero
    residual exactly when the reference finds one on some triple, at the
    inserted operator and at a hook triple where the reference's residual is
    nonzero; over every triple, at the reference's first nonzero triple."""
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
    hook = _lt3_first_nonzero(cc, stack, bound, hook=True)
    assert (hook is None) == (first is None)
    if hook is not None:
        t, i, j, k = hook
        assert t == at and i < j and i <= k and any(derivation_residual(c, d, e, i, j, k))
        assert _lt3_first_nonzero(cc, stack, bound, hook=False) == (at,) + first


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
