"""Unit tests for exact parameter normal forms and their induced triple-system
isomorphisms."""

import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from homotopes.families import (asym_space, herm_space, matrix_space,
                                rand_matrix, sample_in_subspace, sym_space)
from homotopes.matrices import Matrix, block_J
from homotopes.normalforms import (_is_01_diagonal, _is_reduced_diagonal,
                                   _is_standard_skew, intertwiner_check,
                                   normal_form)
from homotopes.scalars import HQ, Q, QI, series_ring


class TestRectangular:
    def setup_method(self):
        self.rng = random.Random(21)

    def test_full_rank(self):
        for ring in (Q, QI):
            a = rand_matrix(2, 3, ring, self.rng)
            nf = normal_form(a, "rectangular")
            assert nf.verified
            assert nf.witness["g1"] @ a @ nf.witness["g2"] == nf.normal

    def test_rank_deficient(self):
        u = rand_matrix(3, 1, Q, self.rng)
        v = rand_matrix(1, 3, Q, self.rng)
        nf = normal_form(u @ v, "rectangular")
        assert nf.verified
        diag = [nf.normal[i, i] for i in range(3)]
        assert sum(0 if d.is_zero() else 1 for d in diag) == 1

    def test_zero(self):
        nf = normal_form(Matrix.zeros(2, 2, Q), "rectangular")
        assert nf.verified and nf.normal.is_zero()

    def test_intertwiner(self):
        a = rand_matrix(2, 3, Q, self.rng)
        nf = normal_form(a, "rectangular")
        assert intertwiner_check(nf, matrix_space(3, 2, Q))

    def test_intertwiner_large_witness(self):
        """Witness entries large enough that the batched check leaves the
        float64 range."""
        a = rand_matrix(2, 3, QI, random.Random(2))
        nf = normal_form(a, "rectangular")
        assert nf.verified
        assert intertwiner_check(nf, matrix_space(3, 2, QI))

    def test_entries_past_the_float_range(self):
        """Numerators past 2^53 run the elimination on ``object`` arrays."""
        big = Fraction(2**70 + 1, 3)
        a = Matrix.unflatten((2, 3, QI), [big, 1, 2, 0, -big, 5, 7, big, 0, 1, 3, -2])
        nf = normal_form(a, "rectangular")
        assert nf.verified and nf.witness["g1"] @ a @ nf.witness["g2"] == nf.normal
        skew = Matrix.from_rows(Q, [[0, big, 1], [-big, 0, 2], [-1, -2, 0]])
        assert normal_form(skew, "skew").verified

    def test_quaternion(self):
        a = rand_matrix(2, 3, HQ, self.rng)
        nf = normal_form(a, "rectangular")
        assert nf.verified and intertwiner_check(nf, matrix_space(3, 2, HQ))

    def test_zero_first_row(self):
        """The pivot lies below the first row, so a row swap brings it up."""
        a = Matrix.from_rows(Q, [[0, 0, 0], [0, 2, 1]])
        nf = normal_form(a, "rectangular")
        assert nf.verified and nf.normal == Matrix.elementary(2, 3, 0, 0, Q)
        assert nf.witness["g1"] @ a @ nf.witness["g2"] == nf.normal
        assert intertwiner_check(nf, matrix_space(3, 2, Q))


class TestCongruence:
    def setup_method(self):
        self.rng = random.Random(22)

    def test_symmetric(self):
        a = sample_in_subspace(sym_space(3, Q), self.rng)
        nf = normal_form(a, "symmetric")
        assert nf.verified
        g = nf.witness["g"]
        assert g @ a @ g.transpose() == nf.normal
        assert len(nf.signs) == 3

    def test_hermitian(self):
        a = sample_in_subspace(herm_space(3, QI, "conj"), self.rng)
        nf = normal_form(a, "hermitian")
        assert nf.verified
        g = nf.witness["g"]
        assert g @ a @ g.dagger("conj") == nf.normal

    def test_squarefree_diagonal(self):
        a = Matrix.diag(Q, [Fraction(4), Fraction(18), Fraction(-8, 9)])
        nf = normal_form(a, "symmetric")
        assert nf.verified
        assert [nf.normal[i, i].flatten()[0] for i in range(3)] == [1, 2, -2]
        assert nf.signs == (1, 1, -1)

    def test_squarefree_part_of_a_large_square(self):
        """3 (2^19 - 1)^2 reduces to 3: the square of a prime past the cube
        root of the entry is found without trial division up to it."""
        p = 2**19 - 1
        nf = normal_form(Matrix.from_rows(Q, [[3 * p * p]]), "symmetric")
        assert nf.verified
        assert nf.normal == Matrix.from_rows(Q, [[3]])
        assert nf.witness["g"] == Matrix.from_rows(Q, [[Fraction(1, p)]])

    def test_squarefree_part_past_the_trial_limit_raises(self):
        """(2^61 - 1)^2 (2^89 - 1) has no factor below 2^20 and is too large
        to settle by then: ValueError, not an unbounded trial division."""
        big = (2**61 - 1)**2 * (2**89 - 1)
        with pytest.raises(ValueError, match="too large"):
            normal_form(Matrix.from_rows(Q, [[big]]), "symmetric")

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            normal_form(Matrix.from_rows(Q, [[0, 1], [0, 0]]), "symmetric")

    def test_symmetric_rejects_gaussian_rationals(self):
        """The reduction reads the diagonal as rational; over Q(i) it is not."""
        a = Matrix.from_json({"rows": 2, "cols": 2, "ring": "QI",
                              "entries": [["0", "1+i"], ["1+i", "1"]]})
        with pytest.raises(ValueError, match="over Q"):
            normal_form(a, "symmetric")

    def test_intertwiner(self):
        a = sample_in_subspace(sym_space(2, Q), self.rng)
        nf = normal_form(a, "symmetric")
        assert intertwiner_check(nf, sym_space(2, Q))


class TestSkew:
    def setup_method(self):
        self.rng = random.Random(23)

    def test_standard_blocks(self):
        a = sample_in_subspace(asym_space(4, Q), self.rng)
        nf = normal_form(a, "skew")
        assert nf.verified
        g = nf.witness["g"]
        assert g @ a @ g.transpose() == nf.normal

    def test_odd_size_has_kernel(self):
        a = sample_in_subspace(asym_space(3, Q), self.rng)
        nf = normal_form(a, "skew")
        assert nf.verified
        # rank of a generic 3x3 skew form is 2: last row/col of the normal
        # form must vanish
        assert all(nf.normal[2, j].is_zero() for j in range(3))
        assert all(nf.normal[j, 2].is_zero() for j in range(3))

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            normal_form(Matrix.identity(2, Q), "skew")

    def test_rejects_quaternions(self):
        a = sample_in_subspace(asym_space(3, HQ), self.rng)
        with pytest.raises(ValueError, match="quaternions"):
            normal_form(a, "skew")

    def test_intertwiner(self):
        a = sample_in_subspace(asym_space(4, Q), self.rng)
        nf = normal_form(a, "skew")
        assert intertwiner_check(nf, asym_space(4, Q))

    def test_zero_first_row(self):
        """The first pivot, at (1, 3), lies below the first row: row and
        column swaps bring it to (0, 1)."""
        a = Matrix.from_rows(Q, [[0, 0, 0, 0], [0, 0, 0, 3], [0, 0, 0, 0], [0, -3, 0, 0]])
        nf = normal_form(a, "skew")
        want = Matrix.elementary(4, 4, 0, 1, Q) - Matrix.elementary(4, 4, 1, 0, Q)
        assert nf.verified and nf.normal == want
        g = nf.witness["g"]
        assert g @ a @ g.transpose() == nf.normal
        assert intertwiner_check(nf, asym_space(4, Q))


@pytest.mark.parametrize("kind", ["rectangular", "symmetric", "skew", "hermitian"])
def test_series_input_is_rejected_by_its_ring(kind):
    """A series ring is no division ring: every kind rejects it by name,
    before the elimination could invert a unit series pivot."""
    ring = series_ring(Q)
    a = {"rectangular": Matrix.identity(1, ring), "skew": block_J(1, ring)}.get(kind, Matrix.identity(2, ring))
    with pytest.raises(ValueError, match=re.escape(str(ring))):
        normal_form(a, kind)


def _qi(text):
    return Matrix.from_json({"rows": 1, "cols": 1, "ring": "QI", "entries": [[text]]})


@pytest.mark.parametrize("predicate, nf, arg, expected", [
    pytest.param(_is_01_diagonal, Matrix.diag(Q, [1, 1, 0]), 2, True, id="01-rank-2"),
    pytest.param(_is_01_diagonal, Matrix.from_rows(Q, [[1, 1], [0, 0]]), 1, False, id="01-off-diagonal"),
    pytest.param(_is_01_diagonal, Matrix.diag(Q, [1, 1, 0]), 3, False, id="01-rank-too-high"),
    pytest.param(_is_01_diagonal, Matrix.diag(Q, [1, 1, 0]), 1, False, id="01-rank-too-low"),
    pytest.param(_is_01_diagonal, Matrix.diag(Q, [4]), 1, False, id="01-diag-4"),
    pytest.param(_is_reduced_diagonal, Matrix.diag(Q, [2, -6, 0]), (1, -1, 0), True, id="reduced"),
    pytest.param(_is_reduced_diagonal, Matrix.from_rows(Q, [[1, 1], [0, 1]]), (1, 1), False,
                 id="reduced-off-diagonal"),
    pytest.param(_is_reduced_diagonal, Matrix.diag(Q, [4]), (1,), False, id="reduced-diag-4"),
    pytest.param(_is_reduced_diagonal, Matrix.diag(Q, [Fraction(1, 2)]), (1,), False, id="reduced-diag-half"),
    pytest.param(_is_reduced_diagonal, _qi("1+i"), (1,), False, id="reduced-i-part"),
    pytest.param(_is_reduced_diagonal, Matrix.diag(Q, [2, -3]), (1, 1), False, id="reduced-sign-mismatch"),
    pytest.param(_is_reduced_diagonal, Matrix.diag(Q, [2, 0]), (1, 1), False, id="reduced-signed-zero"),
    pytest.param(_is_standard_skew, block_J(1, Q), 1, True, id="skew-J"),
    pytest.param(_is_standard_skew, block_J(1, Q).scale(2), 1, False, id="skew-2J"),
    pytest.param(_is_standard_skew, block_J(1, Q), 0, False, id="skew-blocks-too-few"),
    pytest.param(_is_standard_skew, Matrix.from_rows(Q, [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]]), 1, False,
                 id="skew-off-block"),
])
def test_shape_predicates(predicate, nf, arg, expected):
    """Each verified shape check accepts its shape and rejects a wrong one."""
    assert predicate(nf, arg) is expected


def test_unknown_kind():
    with pytest.raises(ValueError):
        normal_form(Matrix.identity(2, Q), "mystery")


@pytest.mark.parametrize("kind, space, name", [
    ("rectangular", matrix_space(3, 2, Q), "g1"),
    ("symmetric", sym_space(3, Q), "g"),
    ("hermitian", herm_space(2, QI, "conj"), "g"),
    ("skew", asym_space(4, Q), "g"),
])
def test_corrupted_witness_does_not_intertwine(kind, space, name):
    """The witness scaled by 2 scales psi by 2 (or 4) and the bracket's
    image by its cube: a known-false input to ``intertwiner_check``."""
    rng = random.Random(24)
    a = rand_matrix(2, 3, Q, rng) if kind == "rectangular" else sample_in_subspace(space, rng)
    nf = normal_form(a, kind)
    assert nf.verified and intertwiner_check(nf, space)
    corrupted = replace(nf, witness={**nf.witness, name: nf.witness[name].scale(2)})
    assert not intertwiner_check(corrupted, space)
