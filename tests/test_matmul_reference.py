"""Differential tests of the integer-numerator matrix product and of the
kernel's batched products (``matrix_mul``, ``t_tensor``) against a reference
product that multiplies Scalar entries one at a time
(``reference_matrix_product``), and of the integer basis a Subspace
caches."""

from fractions import Fraction

import numpy as np
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
def kernel_stacks(draw):
    """A ring, a tier, and a function drawing stacks of n matrices rows x cols
    over it with negative entries and a common denominator 1 or 3: in the
    upper tier every numerator has magnitude at least 2^27, so that every
    product bound passes 2^53."""
    ring = draw(st.sampled_from([Q, QI, HQ]))
    big = draw(st.booleans())
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


@settings(max_examples=40, deadline=None)
@given(kernel_stacks(), st.data())
def test_kernel_t_tensor_matches_reference(case, data):
    """TT[i, j, k] = b_i w_j b_k + b_k w_j b_i for p x q basis and q x p middle
    stacks, in every tier."""
    _, big, stack = case
    d, p, q = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    bs, ws = stack(d, p, q), stack(d, q, p)
    tt = kernel.t_tensor(Arr.from_matrices(bs), Arr.from_matrices(ws))
    _assert_tier(tt, big)
    for i, j, k in np.ndindex(d, d, d):
        expect = reference_matrix_product(reference_matrix_product(bs[i], ws[j]), bs[k]) \
            + reference_matrix_product(reference_matrix_product(bs[k], ws[j]), bs[i])
        assert matrix_of(tt[i, j, k]) == expect


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
            b = space.basis_int()
            assert space.basis_int() is b
            rows = [tuple(Fraction(int(v), b.den) for v in row) for row in b.a]
            assert rows == list(space.basis)
            arr = space.basis_arr()
            assert arr.a.shape == (space.dim,) + space.ambient[:2] + (ring_components(space.ambient[2]),)
            assert (arr.a.reshape(space.dim, -1) == b.a).all() and arr.den == b.den
