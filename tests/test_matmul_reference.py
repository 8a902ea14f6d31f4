"""Differential tests of the integer-numerator matrix product against a
reference product that multiplies Scalar entries one at a time, and of the
integer basis a Subspace caches."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from homotopes.families import herm_space, sym_space
from homotopes.matrices import Matrix, Subspace
from homotopes.scalars import HQ, Q, QI, Scalar, ring_components


def reference_matmul(x: Matrix, y: Matrix) -> Matrix:
    """The textbook triple loop over Scalar ring operations."""
    out = []
    for i in range(x.rows):
        for j in range(y.cols):
            acc = Scalar.zero(x.ring)
            for k in range(x.cols):
                acc = acc + x[i, k] * y[k, j]
            out.append(acc)
    return Matrix(x.rows, y.cols, x.ring, out)


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
    assert x @ y == reference_matmul(x, y)


def test_matmul_matches_reference_on_units():
    """Every product of two basis units, so each sign of the quaternion table shows."""
    for ring in (QI, HQ):
        k = ring_components(ring)
        units = [Matrix.unflatten((1, 1, ring), [int(c == a) for c in range(k)]) for a in range(k)]
        for u in units:
            for v in units:
                assert u @ v == reference_matmul(u, v)


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
            rows = [tuple(Fraction(int(v), b.den) for v in row) for row in b.num]
            assert rows == list(space.basis)
            assert b.pivots == space.pivots
            arr = space.basis_arr()
            assert arr.a.shape == (space.dim,) + space.ambient[:2] + (ring_components(space.ambient[2]),)
            assert (arr.a.reshape(space.dim, -1) == b.num).all() and arr.den == b.den
