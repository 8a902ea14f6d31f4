"""Unit tests for exact matrices, block matrices and rational subspaces."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotopes.families import rand_matrix, sym_space
from homotopes.matrices import (Matrix, Subspace, block_F, block_I, block_Ipq,
                                block_J, rref)
from homotopes.scalars import HQ, Q, QI, Scalar, gaussian, quaternion


class TestMatrixAlgebra:
    def setup_method(self):
        self.rng = random.Random(1)

    def test_identity(self):
        for ring in (Q, QI, HQ):
            e = Matrix.identity(3, ring)
            m = rand_matrix(3, 3, ring, self.rng)
            assert e @ m == m and m @ e == m

    def test_associativity(self):
        a = rand_matrix(2, 3, HQ, self.rng)
        b = rand_matrix(3, 2, HQ, self.rng)
        c = rand_matrix(2, 2, HQ, self.rng)
        assert (a @ b) @ c == a @ (b @ c)

    def test_inverse_roundtrip(self):
        for ring in (Q, QI, HQ):
            while True:
                m = rand_matrix(3, 3, ring, self.rng)
                try:
                    inv = m.inverse()
                    break
                except ZeroDivisionError:
                    continue
            assert m @ inv == Matrix.identity(3, ring)
            assert inv @ m == Matrix.identity(3, ring)

    def test_singular_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            Matrix.zeros(2, 2, Q).inverse()

    def test_rank_one_quaternion_inverse_raises(self):
        u = Matrix.from_rows(HQ, [[quaternion(1, 2, 0, -1)], [quaternion(0, 1, 3, 1)]])
        v = Matrix.from_rows(HQ, [[quaternion(2, 0, 1, 1)], [quaternion(-1, 1, 1, 0)]])
        with pytest.raises(ZeroDivisionError):
            (u @ v.transpose()).inverse()

    def test_non_square_inverse_raises(self):
        with pytest.raises(ValueError):
            rand_matrix(2, 3, Q, self.rng).inverse()

    def test_dagger_antimultiplicative(self):
        a = rand_matrix(2, 2, QI, self.rng)
        b = rand_matrix(2, 2, QI, self.rng)
        assert (a @ b).dagger("conj") == b.dagger("conj") @ a.dagger("conj")
        a = rand_matrix(2, 2, HQ, self.rng)
        b = rand_matrix(2, 2, HQ, self.rng)
        for delta in ("qconj", "qsplit"):
            assert (a @ b).dagger(delta) == b.dagger(delta) @ a.dagger(delta)

    def test_json_roundtrip(self):
        for ring in (Q, QI, HQ):
            m = rand_matrix(2, 3, ring, self.rng)
            assert Matrix.from_json(m.to_json()) == m

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rand_matrix(2, 2, Q, self.rng) @ rand_matrix(3, 3, Q, self.rng)


class TestBlockMatrices:
    def test_ipq_is_involution(self):
        m = block_Ipq(1, 2)
        assert m @ m == Matrix.identity(3, Q)

    def test_block_i_is_involution(self):
        m = block_I(2)
        assert m @ m == Matrix.identity(4, Q)
        assert m == block_J(2) @ block_F(2)

    def test_block_j_squares_to_minus_one(self):
        m = block_J(2)
        assert m @ m == Matrix.identity(4, Q).scale(Fraction(-1))

    def test_block_f_is_involution(self):
        m = block_F(2)
        assert m @ m == Matrix.identity(4, Q)


class TestRref:
    def test_known_rank(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)],
                [Fraction(0), Fraction(1)]]
        basis, pivots = rref(rows)
        assert len(basis) == 2 and pivots == [0, 1]


class TestSubspace:
    def setup_method(self):
        self.rng = random.Random(2)

    def test_span_and_contains(self):
        a = rand_matrix(2, 2, Q, self.rng)
        b = rand_matrix(2, 2, Q, self.rng)
        sp = Subspace.span([a, b, a + b])
        assert sp.dim <= 2
        assert sp.contains(a - b)
        assert sp.contains(a.scale(Fraction(7, 3)))

    def test_coordinates_roundtrip(self):
        sp = sym_space(3, Q)
        m = rand_matrix(3, 3, Q, self.rng)
        m = m + m.transpose()
        coords = sp.coordinates(m)
        assert coords is not None
        assert sp.from_coordinates(coords) == m

    def test_zero_and_full(self):
        amb = (2, 2, QI)
        assert Subspace.zero(amb).dim == 0
        assert Subspace.full(amb).dim == 8  # 2 Q-coordinates per entry

    def test_membership_respects_ring_structure(self):
        i = gaussian(0, 1)
        m = Matrix.identity(2, QI)
        sp = Subspace.span([m])
        # Q-span, not QI-span: i*m is not a rational multiple of m
        assert not sp.contains(m.scalar_mul(i))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(["Q", "QI", "HQ", "1/0", "1/2", "i", "x", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["rows", "cols", "ring", "entries"]), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_from_json_rejects_bad_input_with_value_error(data):
    """Any JSON value either parses to a matrix or raises ValueError (which
    the command line reports as a one-line error with exit code 2)."""
    try:
        m = Matrix.from_json(data)
    except ValueError:
        return
    assert Matrix.from_json(m.to_json()) == m


@pytest.mark.parametrize("entries", [[], "1", [[1]], [["1"], "2"]], ids=["empty", "string", "number", "ragged-string"])
def test_from_json_rejects_entries_that_are_not_rows_of_strings(entries):
    with pytest.raises(ValueError, match="non-empty list of rows of strings"):
        Matrix.from_json({"rows": 1, "cols": 1, "ring": "Q", "entries": entries})
