"""Differential tests of the fraction-free linear algebra in ``matrices``
(``rref``, subspace coordinates and membership, ``from_coordinates``,
``Matrix.inverse`` and ``inverses`` over a stack) against the ``Fraction``
and ``Scalar`` references in ``structure_reference``: zero and duplicate rows,
mixed denominators, entries past 2^53, vectors one basis element off a span,
and nonzero singular matrices, over Q, Q(i) and the quaternions; and the
certificate of a guessed inverse, on wrong guesses and singular matrices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from structure_reference import (matrix_of, reference_basis, reference_coordinates,
                                 reference_inverse, reference_rref)

from homotopes import matrices
from homotopes.families import rand_matrix
from homotopes.homotope import ProductSpace
from homotopes.kernel import Arr, equal
from homotopes.matrices import Matrix, Subspace, inverses, rref
from homotopes.scalars import HQ, Q, QI, Scalar, ring_components, series_ring

HUGE = [2**53 + 1, -(2**61 - 1), 3 * 2**70]


def entries(huge: bool):
    small = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 7]))
    if not huge:
        return small
    return st.one_of(small, st.builds(Fraction, st.sampled_from(HUGE), st.sampled_from([1, 5, 2**40])))


@st.composite
def row_lists(draw, width=None):
    """Rows with zero rows, duplicates and combinations of a few base rows,
    with mixed denominators and, in some draws, entries past 2^53."""
    width = width or draw(st.integers(1, 6))
    entry = entries(draw(st.booleans()))
    base = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["base", "combination", "duplicate", "zero"]))
        if kind == "duplicate" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "zero":
            rows.append([Fraction(0)] * width)
        elif kind == "base":
            rows.append(draw(st.sampled_from(base)))
        else:
            coef = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
            rows.append([sum(c * b[t] for c, b in zip(coef, base)) for t in range(width)])
    return rows


@settings(max_examples=300, deadline=None)
@given(row_lists())
def test_rref_matches_reference(rows):
    assert rref(rows) == reference_rref(rows)


@st.composite
def spaces(draw, ambient=None, ring=None):
    """A subspace of (p x q) matrices over Q, Q(i) or HQ (or of ``ambient``)
    spanned by rows that may be zero or dependent."""
    if ambient is None:
        ring = ring or draw(st.sampled_from([Q, QI, HQ]))
        ambient = (draw(st.integers(1, 2)), draw(st.integers(1, 2)), ring)
    p, q, ring = ambient
    return Subspace(ambient, draw(row_lists(p * q * ring_components(ring))))


@st.composite
def probes(draw, width: int, basis):
    """A member of the span of ``basis`` (Fraction rows), and the same
    member one unit vector off, which may or may not leave the span."""
    coef = draw(st.lists(entries(draw(st.booleans())), min_size=len(basis), max_size=len(basis)))
    member = [sum((c * b[t] for c, b in zip(coef, basis)), Fraction(0)) for t in range(width)]
    off = list(member)
    off[draw(st.integers(0, width - 1))] += 1
    return member, off


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coordinates_and_membership_match_reference(data):
    space = data.draw(spaces())
    basis, pivots = reference_basis(space)
    assert (list(space.basis), list(space.pivots)) == (basis, pivots)
    for vec in data.draw(probes(space.ambient_dim, basis)):
        expect = reference_coordinates(basis, pivots, vec)
        assert space.coordinates_vector(vec) == expect
        m = Matrix.unflatten(space.ambient, vec)
        assert space.contains(m) == (expect is not None)
        if expect is not None:
            assert space.from_coordinates(expect) == m
    other = data.draw(spaces(space.ambient) | st.just(space.sum(space)))
    assert space.contains_subspace(other) == all(reference_coordinates(basis, pivots, v) is not None
                                                 for v in other.basis)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pair_coordinates_match_reference(data):
    plus = data.draw(spaces())
    minus = data.draw(spaces(ring=plus.ambient[2]))
    pair = ProductSpace(plus, minus)
    basis, pivots = reference_basis(pair)
    n1 = plus.ambient_dim
    for vec in data.draw(probes(pair.ambient_dim, basis)):
        u = (Matrix.unflatten(plus.ambient, vec[:n1]), Matrix.unflatten(minus.ambient, vec[n1:]))
        expect = reference_coordinates(basis, pivots, vec)
        assert pair.coordinates_pair(u) == expect
        assert pair.contains(u) == (expect is not None)


@st.composite
def square_matrices(draw, shape=None):
    """Square matrices over Q, Q(i) and HQ, or of this (ring, n); in some
    draws the last row is a left multiple of the first (a nonzero singular
    matrix)."""
    ring, n = shape or (draw(st.sampled_from([Q, QI, HQ])), draw(st.integers(1, 3)))
    k = ring_components(ring)
    entry = entries(draw(st.booleans()))
    scalars = st.lists(entry, min_size=k, max_size=k).map(lambda c: Scalar(ring, c))
    rows = draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        c = draw(scalars)
        rows[-1] = [c * x for x in rows[0]]
    return Matrix.from_rows(ring, rows)


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_inverse_matches_reference(m):
    try:
        expect = reference_inverse(m)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            m.inverse()
        return
    assert m.inverse() == expect


@settings(max_examples=100, deadline=None)
@given(square_matrices(), st.data())
def test_stacked_inverses_match_reference(first, data):
    """``inverses`` over a stack of invertible and singular matrices: the
    reference inverse of each invertible one, and a False mask and a zero
    inverse at each singular one."""
    mats = [first] + data.draw(st.lists(square_matrices((first.ring, first.rows)), max_size=3))
    inv, ok = inverses(Arr.from_matrices(mats))
    assert type(inv) is Arr and ok.shape == (len(mats),)
    for t, m in enumerate(mats):
        try:
            expect = reference_inverse(m)
        except ZeroDivisionError:
            assert not ok[t] and inv[t].is_zero()
            continue
        assert ok[t] and matrix_of(inv[t]) == expect


@pytest.mark.parametrize("ring", [Q, QI, HQ, series_ring(QI)], ids=str)
def test_guessed_inverses_are_certified_per_matrix(ring, monkeypatch):
    """Known false: a guess wrong in one entry of one matrix of the stack is
    rejected for that matrix only (one elimination), and a singular matrix
    (its rows equal) stays singular whatever the guess; the result equals the
    guess-free ``inverses`` by value, mask included; one matrix gives a
    ``Matrix``, and a guess of another shape is refused."""
    rng = random.Random(3)
    x0, x1, r = (rand_matrix(2, 2, ring, rng) for _ in range(3))
    singular = Matrix._make(r.a[[0, 0]], r.den, r.bound, ring)
    x = Arr.from_matrices([x0, x1, singular])
    expect, expect_ok = inverses(x)
    assert expect_ok.tolist() == [True, True, False]
    eliminated = []
    echelon = matrices._echelon
    monkeypatch.setattr(matrices, "_echelon", lambda *args: eliminated.append(1) or echelon(*args))
    wrong = expect[0] + Matrix.elementary(2, 2, 1, 0, ring)
    for guess, eliminations in [([wrong, expect[1], expect[1]], 2),
                                ([expect[0], expect[1], Matrix.identity(2, ring)], 1),
                                ([expect[0], expect[1], expect[0]], 1)]:
        eliminated.clear()
        inv, ok = inverses(x, Arr.from_matrices(guess))
        assert len(eliminated) == eliminations
        assert ok.tolist() == expect_ok.tolist() and equal(inv, expect).all()
    inv, ok = inverses(x0, wrong)
    assert type(inv) is Matrix and ok and inv == x0.inverse()
    with pytest.raises(ValueError, match="shape"):
        inverses(x, expect[0])
