"""Differential tests of every ``Matrix`` operation on integer numerators
against the ``Scalar``/``Fraction`` references of ``structure_reference``,
over Q, Q(i), HQ and the truncated series rings over each: equal values,
equal hashes, equal flattenings and JSON bytes, and lowest terms (a zero
result has denominator 1)."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from structure_reference import (reference_matrix_dagger, reference_matrix_difference,
                                 reference_matrix_inverse, reference_matrix_product,
                                 reference_matrix_scalar_mul, reference_matrix_scale,
                                 reference_matrix_sum, reference_matrix_transpose)

from homotopes.matrices import Matrix
from homotopes.scalars import HQ, Q, QI, Scalar, SeriesRing, is_series, ring_components

BASES = (Q, QI, HQ)
RINGS = BASES + tuple(SeriesRing(b) for b in BASES)
INVOLUTIONS = {Q: ("id", "conj"), QI: ("id", "conj"), HQ: ("id", "qconj", "qsplit")}

# small numerators cancel often; large ones pass 2^64
numerators = st.one_of(st.integers(-2, 2), st.integers(-2**80, 2**80))
# 1, and composite denominators with a factor past 2^64
denominators = st.sampled_from([1, 6, 12, 3 * 2**65])


@st.composite
def matrices(draw, ring, rows, cols):
    """A matrix built through the ``Scalar`` constructor, its components
    numerators over one drawn denominator."""
    k = ring_components(ring)
    den = draw(denominators)
    comps = [Fraction(n, den) for n in draw(st.lists(numerators, min_size=rows * cols * k,
                                                      max_size=rows * cols * k))]
    if draw(st.booleans()):
        # every entry a rational multiple of the first, so that results cancel
        comps = [comps[p * k] * c for p in range(rows * cols) for c in comps[:k]]
    return Matrix(rows, cols, ring, [Scalar.unflatten(ring, comps[p * k:(p + 1) * k])
                                     for p in range(rows * cols)])


def _json(m):
    try:
        return json.dumps(m.to_json()).encode()
    except ValueError as exc:  # series rings have no text format
        return str(exc)


def assert_same(got, want):
    assert got == want and not got != want
    assert hash(got) == hash(want)
    assert got.flatten() == want.flatten()
    assert got.entries == want.entries
    assert _json(got) == _json(want) and repr(got) == repr(want)
    zero = all(e.is_zero() for e in want.entries)
    assert got.is_zero() == zero
    if zero:
        assert got.den == 1
    else:
        assert got != got.scale(Fraction(1, 3))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), st.data())
def test_matrix_ops_match_reference(ring, data):
    p, q, r = (data.draw(st.integers(1, 3)) for _ in range(3))
    x, y = data.draw(matrices(ring, p, q)), data.draw(matrices(ring, p, q))
    z = data.draw(matrices(ring, q, r))
    assert_same(x + y, reference_matrix_sum(x, y))
    assert_same(x - y, reference_matrix_difference(x, y))
    assert_same(x - x, reference_matrix_difference(x, x))
    assert_same(x + -x, Matrix.zeros(p, q, ring))
    assert_same(x @ z, reference_matrix_product(x, z))
    assert_same(x @ Matrix.zeros(q, r, ring), Matrix.zeros(p, r, ring))
    assert_same(x.transpose(), reference_matrix_transpose(x))
    for delta in INVOLUTIONS[ring.base if is_series(ring) else ring]:
        assert_same(x.dagger(delta), reference_matrix_dagger(x, delta))
    factor = data.draw(st.sampled_from([Fraction(0), Fraction(-1), Fraction(2, 3), Fraction(2**70, 7)]))
    assert_same(x.scale(factor), reference_matrix_scale(x, factor))
    s = z[0, 0]
    assert_same(x.scalar_mul(s), reference_matrix_scalar_mul(x, s))
    assert_same(Matrix.unflatten((p, q, ring), x.flatten()), x)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RINGS), st.data())
def test_inverse_matches_reference(ring, data):
    """Over the base rings against ``reference_inverse``; over a series ring
    X is invertible exactly when its constant term is, and then X X^-1 = 1
    by the reference product."""
    n = data.draw(st.integers(1, 3))
    x = data.draw(matrices(ring, n, n))
    if data.draw(st.booleans()):
        # rank at most n - 1 over the ring
        x = x @ Matrix.from_rows(ring, [[int(i == j and j < n - 1) for j in range(n)] for i in range(n)])
    if is_series(ring):
        k = ring_components(ring.base)
        constant = Matrix.from_numerators(ring.base, x.a[..., :k], x.den)
        try:
            reference_matrix_inverse(constant)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            return
        assert_same(reference_matrix_product(x, x.inverse()), Matrix.identity(n, ring))
        return
    try:
        want = reference_matrix_inverse(x)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert_same(x.inverse(), want)


def test_equality_reads_the_denominator():
    one = Matrix.identity(2, Q)
    assert one.scale(Fraction(1, 3)) != one and one.scale(Fraction(1, 3)).a.tolist() == one.a.tolist()
    assert hash(Matrix.zeros(2, 2, QI).scale(Fraction(1, 5))) == hash(Matrix.zeros(2, 2, QI))
