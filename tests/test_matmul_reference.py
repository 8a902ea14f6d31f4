"""Differential tests of the integer-numerator matrix product and of the
kernel's batched products (``matrix_mul``, ``t_tensor``, ``t_half``) against a reference
product that multiplies Scalar entries one at a time
(``reference_matrix_product``), and of the integer basis a Subspace
caches."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from structure_reference import matrix_of, reference_matrix_product
from test_tiers import tier

from homotopes import kernel
from homotopes.families import herm_space, sym_space
from homotopes.kernel import Arr
from homotopes.matrices import Matrix, Subspace
from homotopes.scalars import HQ, Q, QI, ring_components


# large, mostly coprime denominators, so the common denominator of an
# operand is a product of several of them
fractions = st.builds(
    Fraction,
    st.integers(-10**12, 10**12),
    st.one_of(st.integers(1, 12), st.integers(1, 10**9), st.sampled_from([2**61 - 1, 10**9 + 7, 3**20])),
)


@st.composite
def matrix_pairs(draw):
    ring = draw(st.sampled_from([Q, QI, HQ]))
    rows, shared, cols = (draw(st.integers(1, 4)) for _ in range(3))
    k = ring_components(ring)

    def matrix(r, c):
        comps = draw(st.lists(fractions, min_size=r * c * k, max_size=r * c * k))
        return Matrix.unflatten((r, c, ring), comps)

    return matrix(rows, shared), matrix(shared, cols)


@settings(max_examples=300, deadline=None)
@given(matrix_pairs())
def test_matmul_matches_reference(pair):
    x, y = pair
    assert x @ y == reference_matrix_product(x, y)


def test_matmul_matches_reference_on_units():
    """Every product of two basis units, so each sign of the quaternion table shows."""
    for ring in (QI, HQ):
        k = ring_components(ring)
        units = [Matrix.unflatten((1, 1, ring), [int(c == a) for c in range(k)]) for a in range(k)]
        for u in units:
            for v in units:
                assert u @ v == reference_matrix_product(u, v)


@st.composite
def kernel_stacks(draw, rings=(Q, QI, HQ), tiers=(False, True)):
    """A ring, a tier, and a function drawing stacks of n matrices rows x cols
    over it with negative entries and a common denominator 1 or 3: in the
    upper tier every numerator has magnitude at least 2^27, so that every
    product bound passes 2^53."""
    ring = draw(st.sampled_from(rings))
    big = draw(st.sampled_from(tiers))
    k = ring_components(ring)
    small = st.integers(-2**12, 2**12)
    # prime to 3, so that no numerator shrinks over the common denominator
    large = st.integers(2**27, 2**40).map(lambda v: 3 * v + 1).flatmap(lambda v: st.sampled_from([v, -v]))
    den = draw(st.sampled_from([1, 3]))

    def stack(n, rows, cols):
        size = rows * cols * k
        return [Matrix.unflatten((rows, cols, ring), [Fraction(v, den) for v in draw(
            st.lists(large if big else small, min_size=size, max_size=size))]) for _ in range(n)]

    return ring, big, stack


def _assert_tier(arr, big):
    """The dtype is exactly the tier of the bound (``test_tiers.tier``).  The
    lower tier never draws ``object``; the upper tier draws it unless the
    products cancel below 2^53, since a result's bound is its actual maximum
    (x = [v, v] times y = [v, -v]^t is 0, in float32)."""
    assert arr.a.dtype == tier(arr.bound)
    top = int(np.abs(arr.a).max(initial=0))
    assert (tier(arr.bound) is object) == (big and top >= 2**53)


@settings(max_examples=80, deadline=None)
@given(kernel_stacks(), st.data())
def test_kernel_matrix_mul_matches_reference(case, data):
    """``kernel.matrix_mul`` on stacks of rectangular matrices, and with a
    single right factor broadcast over the stack, in every tier."""
    ring, big, stack = case
    n, p, q, r = (data.draw(st.integers(1, 3)) for _ in range(4))
    xs, ys = stack(n, p, q), stack(n, q, r)
    broadcast = data.draw(st.booleans())
    y = ys[0] if broadcast else Arr.from_matrices(ys)
    out = kernel.matrix_mul(Arr.from_matrices(xs), y)
    _assert_tier(out, big)
    for t, x in enumerate(xs):
        assert matrix_of(out[t]) == reference_matrix_product(x, ys[0] if broadcast else ys[t])


@settings(max_examples=60, deadline=None)
@given(kernel_stacks(), st.data())
def test_matrix_times_stack_is_the_stack_of_products(case, data):
    """A ``Matrix`` to the left of a stack (``Matrix @ Arr``, as the group
    law X + Y - XAY writes it for a single X) gives the stack of the
    per-matrix products, and ``rows``/``cols`` read the matrix axes of a
    stack."""
    ring, big, stack = case
    n, p, q, r = (data.draw(st.integers(1, 3)) for _ in range(4))
    x, ys = stack(1, p, q)[0], stack(n, q, r)
    right = Arr.from_matrices(ys)
    assert (right.rows, right.cols) == (q, r)
    out = x @ right
    assert type(out) is Arr and out.a.shape[0] == n and (out.rows, out.cols) == (p, r)
    _assert_tier(out, big)
    for t, y in enumerate(ys):
        assert matrix_of(out[t]) == reference_matrix_product(x, y)


def test_equality_and_zero_per_matrix_of_a_stack():
    """Known false: ``kernel.equal`` and ``Arr.is_zero`` decide each matrix of
    a stack on its own, also over different denominators, and a sum
    broadcasts a matrix over a stack."""
    for ring in (Q, QI, HQ):
        k = ring_components(ring)
        ms = [Matrix.unflatten((2, 3, ring), [Fraction(t + c, 2) for c in range(6 * k)]) for t in range(3)]
        stack = Arr.from_matrices(ms)
        bumped = ms[1] + Matrix.elementary(2, 3, 1, 2, ring).scale(Fraction(1, 7))
        other = Arr.from_matrices([ms[0], bumped, ms[2]])
        assert other.den != stack.den
        assert kernel.equal(stack, other).tolist() == [True, False, True]
        assert kernel.equal(stack, ms[1]).tolist() == [False, True, False]
        assert (stack - other).is_zero().tolist() == [True, False, True]
        assert (stack - ms[2]).is_zero().tolist() == [False, False, True]
        assert kernel.equal(ms[0], ms[0]) and not ms[0].is_zero()
        with pytest.raises(ValueError):
            stack + Matrix.zeros(3, 2, ring)


@settings(max_examples=40, deadline=None)
@given(kernel_stacks(), st.data())
def test_kernel_t_tensor_matches_reference(case, data):
    """TT[i, j, k] = b_i w_j b_k + b_k w_j b_i for p x q basis and q x p middle
    stacks, in every tier, square (d basis and d middle matrices) or
    rectangular (e != d middle matrices, as a polarized system pairs one
    grade's basis with the other grade's middle images)."""
    _, big, stack = case
    d, p, q = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    e = data.draw(st.sampled_from([d, d % 3 + 1]))
    bs, ws = stack(d, p, q), stack(e, q, p)
    tt = kernel.t_tensor(Arr.from_matrices(bs), Arr.from_matrices(ws))
    assert tt.a.shape[:3] == (d, e, d)
    _assert_tier(tt, big)
    for i, j, k in np.ndindex(d, e, d):
        expect = reference_matrix_product(reference_matrix_product(bs[i], ws[j]), bs[k]) \
            + reference_matrix_product(reference_matrix_product(bs[k], ws[j]), bs[i])
        assert matrix_of(tt[i, j, k]) == expect


@pytest.mark.parametrize("big", [False, True], ids=["float", "object"])
@pytest.mark.parametrize("ring", [Q, QI, HQ])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_kernel_t_half_matches_reference(ring, big, data):
    """F[t, k] = T(b_i, w_j, b_k) - T(b_j, w_i, b_k) for the t-th pair
    i < j, for p x q basis and q x p middle stacks with p != q and d >= 2
    (so that there is a pair), over each ring and in each tier."""
    _, _, stack = data.draw(kernel_stacks((ring,), (big,)))
    d, p = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 2))
    q = data.draw(st.integers(1, 3).filter(lambda v: v != p))
    bs, ws = stack(d, p, q), stack(d, q, p)
    half = kernel.t_half(Arr.from_matrices(bs), Arr.from_matrices(ws))
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    assert half.a.shape == (len(pairs), d, p, q, ring_components(ring))
    _assert_tier(half, big)

    def t(x, w, z):
        return reference_matrix_product(reference_matrix_product(x, w), z) \
            + reference_matrix_product(reference_matrix_product(z, w), x)
    for (s, (i, j)), k in itertools.product(enumerate(pairs), range(d)):
        assert matrix_of(half[s, k]) == t(bs[i], ws[j], bs[k]) - t(bs[j], ws[i], bs[k])


class TestSubspaceCache:
    def test_basis_matrices_is_a_fresh_list(self):
        space = Subspace.span([Matrix.from_rows(Q, [[1, 2], [3, 4]]), Matrix.identity(2, Q)])
        first = space.basis_matrices()
        expected = list(first)
        first.clear()
        first_again = space.basis_matrices()
        assert first_again == expected
        first_again.append(Matrix.zeros(2, 2, Q))
        assert space.basis_matrices() == expected
        assert [m.flatten() for m in space.basis_matrices()] == list(space.basis)

    def test_integer_basis_equals_basis(self):
        spaces = [sym_space(3, Q), herm_space(2, QI, "conj"), herm_space(2, HQ, "qsplit"),
                  Subspace.span([Matrix.from_rows(Q, [[Fraction(1, 3), Fraction(2, 7)], [5, Fraction(-1, 2)]])])]
        for space in spaces:
            arr = space.basis_arr()
            assert arr.a.shape == (space.dim,) + space.ambient[:2] + (ring_components(space.ambient[2]),)
            rows = [tuple(Fraction(int(v), arr.den) for v in row) for row in arr.a.reshape(space.dim, -1)]
            assert rows == list(space.basis)
