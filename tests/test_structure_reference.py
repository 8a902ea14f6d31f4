"""Differential tests of the batched structure constants and LTS checks
against the Fraction reference in ``structure_reference``, including
parameters whose numerators leave the float64 range, so that the kernel
runs on Python-int ``object`` arrays."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from structure_reference import reference_lts, reference_structure

from homotopes.families import asym_space, herm_space, matrix_space, sym_space
from homotopes.homotope import GenericTriple, TripleSystem, check_lts, triple_param
from homotopes.kernel import independent_row_indices
from homotopes.matrices import Matrix
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
            assert [s.c(i, j, k, m) for m in range(d)] == list(coords[i, j, k])
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


def _broken_derivation(width, scale):
    """[x, y, z] = scale (x_0 y_1 - x_1 y_0) z_0 e_0 on 1 x width row vectors:
    antisymmetric in x, y, with zero cyclic sum, but R(e_0, e_1) (e_0 -> e_0,
    every other e_w -> 0) is no derivation, since
    R [e_0, e_1, e_0] = e_0 and 2 [e_0, e_1, e_0] = 2 e_0."""
    def product(x, y, z):
        xs, ys, zs = x.flatten(), y.flatten(), z.flatten()
        value = scale * (xs[0] * ys[1] - xs[1] * ys[0]) * zs[0]
        return Matrix.unflatten((1, width, Q), [value] + [0] * (width - 1))
    return product


@pytest.mark.parametrize("width, scale", [(2, 1), (3, 1), (3, Fraction(2**60, 7))])
def test_lt3_fails_where_lt1_lt2_hold(width, scale):
    """Closed, LT1 and LT2 hold, LT3 fails: the verdicts and the witness are
    the reference's (the last case runs on the ``object`` tier)."""
    space = matrix_space(1, width, Q)
    product = _broken_derivation(width, scale)
    report = check_lts(TripleSystem(space, GenericTriple(product)))
    entries = [(e["axiom"], e["pass"], e["witness"]) for e in report.entries]
    assert entries == reference_lts(space, product)
    assert [e["axiom"] for e in report.failing()] == ["LT3"]
    assert report.failing()[0]["witness"] == (0, 1, 0, 1, 0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=12))
def test_row_selection_same_in_both_tiers(rows):
    """The LT3 row selection picks the same rows whether the coordinates are
    float64 or Python ints."""
    floats = np.array(rows, dtype=np.float64)
    ints = np.array(rows, dtype=object)
    assert independent_row_indices(ints) == independent_row_indices(floats)
