"""Unit tests for declarative involutions and joint eigenspace decompositions."""

from fractions import Fraction

import pytest
from structure_reference import reference_rref

from homotopes import kernel
from homotopes.families import instantiate, sym_space
from homotopes.involutions import (JointDecomposition, MatrixInvolution, commute,
                                   joint_eigenspaces)
from homotopes.matrices import Matrix, Subspace, block_F, block_I, block_Ipq, block_J
from homotopes.scalars import HQ, Q, QI, Scalar, ring_components


def action_rows(tau):
    """The matrix of tau acting on flattened Q-coordinates, as Fraction rows."""
    n, ring = tau.n, tau.ring
    k = ring_components(ring)
    dim = n * n * k
    cols = []
    for idx in range(dim):
        vec = [Fraction(0)] * dim
        vec[idx] = Fraction(1)
        m = Matrix.unflatten((n, n, ring), vec)
        cols.append(list(tau(m).flatten()))
    # rows of the action matrix: entry [r][c] = coefficient r of tau(e_c)
    return [[cols[c][r] for c in range(dim)] for r in range(dim)]


def eigen_dim_oracle(taus, signs):
    """dim of the joint sign eigenspace via an independent nullspace solve:
    the number of columns minus the rank of the stacked tau - s rows."""
    rows = []
    dim = None
    for tau, s in zip(taus, signs):
        act = action_rows(tau)
        dim = len(act)
        for r in range(dim):
            row = list(act[r])
            row[r] -= Fraction(s)
            rows.append(row)
    return dim - len(reference_rref(rows)[0])


class TestValidation:
    def test_good_involutions(self):
        MatrixInvolution.transpose_inv(2, Q)
        MatrixInvolution.transpose_inv(2, QI, "conj")
        MatrixInvolution.transpose_inv(2, HQ, "qconj")
        MatrixInvolution.transpose_inv(2, HQ, "qsplit")

    def test_twist_must_be_compatible(self):
        bad = Matrix.from_rows(Q, [[1, 1], [0, 1]])
        with pytest.raises(ValueError):
            MatrixInvolution("anti", "id", 2, Q, twist=bad)

    def test_wrong_kind_rejected(self):
        # plain entrywise quaternion conjugation without transpose is not an
        # algebra automorphism
        with pytest.raises(ValueError):
            MatrixInvolution("auto", "qconj", 2, HQ)

    def test_unknown_delta(self):
        with pytest.raises(ValueError):
            MatrixInvolution("anti", "mystery", 2, Q)


class TestCommutation:
    def test_transpose_and_twisted_commute(self):
        tau = MatrixInvolution.transpose_inv(3, Q)
        tau_t = MatrixInvolution("anti", "id", 3, Q, twist=block_Ipq(1, 2))
        assert commute(tau, tau_t)

    def test_quaternionic_pair_commutes(self):
        tau = MatrixInvolution.transpose_inv(2, HQ, "qconj")
        tau_t = MatrixInvolution.transpose_inv(2, HQ, "qsplit")
        assert commute(tau, tau_t)

    def test_noncommuting_rejected_in_joint(self):
        tau = MatrixInvolution.transpose_inv(2, Q)
        other = MatrixInvolution("anti", "id", 2, Q,
                                 twist=Matrix.diag(Q, [1, -1]) @ block_J(1))
        if not tau.commutes_with(other):
            with pytest.raises(ValueError):
                joint_eigenspaces([tau, other])


class TestEigenspaces:
    def test_single_involution_sym_asym(self):
        tau = MatrixInvolution.transpose_inv(3, Q)
        dec = joint_eigenspaces([tau])
        assert dec.piece((1,)).dim == 6
        assert dec.piece((-1,)).dim == 3

    def test_direct_sum(self):
        tau = MatrixInvolution.transpose_inv(2, HQ, "qconj")
        tau_t = MatrixInvolution.transpose_inv(2, HQ, "qsplit")
        dec = joint_eigenspaces([tau, tau_t])
        assert dec.check_direct_sum()

    def test_direct_sum_rejects_overlapping_pieces(self):
        """Sym(2) and span{1}: dimensions 3 + 1 = 4, but 1 lies in both."""
        pieces = {(1,): sym_space(2, Q), (-1,): Subspace.span([Matrix.identity(2, Q)])}
        dec = JointDecomposition([MatrixInvolution.transpose_inv(2, Q)], pieces)
        assert sum(dec.dims().values()) == 4
        assert not dec.check_direct_sum()

    def test_direct_sum_rejects_dependent_pieces(self):
        """E11, E12, E21 and E11 + E12 + E21: dimensions 1 + 1 + 1 + 1 = 4 and
        every two pieces meet in 0, but together they span only 3."""
        e11, e12, e21 = (Matrix.elementary(2, 2, i, j, Q) for i, j in ((0, 0), (0, 1), (1, 0)))
        lines = [Subspace.span([m]) for m in (e11, e12, e21, e11 + e12 + e21)]
        tau = MatrixInvolution.transpose_inv(2, Q)
        dec = JointDecomposition([tau, tau], dict(zip([(1, 1), (-1, 1), (1, -1), (-1, -1)], lines)))
        assert sum(dec.dims().values()) == 4
        assert not dec.check_direct_sum()

    def test_dims_match_nullspace_oracle(self):
        cases = [
            [MatrixInvolution.transpose_inv(3, Q)],
            [MatrixInvolution.transpose_inv(2, QI, "conj")],
            [MatrixInvolution.transpose_inv(2, HQ, "qconj"),
             MatrixInvolution.transpose_inv(2, HQ, "qsplit")],
            [MatrixInvolution("anti", "id", 4, Q, twist=block_I(2)),
             MatrixInvolution("anti", "id", 4, Q, twist=block_F(2))],
        ]
        for taus in cases:
            dec = joint_eigenspaces(taus)
            for signs, piece in dec.pieces.items():
                assert piece.dim == eigen_dim_oracle(taus, signs)

    def test_piece_of(self):
        tau = MatrixInvolution.transpose_inv(2, Q)
        dec = joint_eigenspaces([tau])
        sym = Matrix.from_rows(Q, [[1, 2], [2, 5]])
        skw = Matrix.from_rows(Q, [[0, 1], [-1, 0]])
        assert dec.piece_of(sym) == (1,)
        assert dec.piece_of(skw) == (-1,)
        assert dec.piece_of(sym + skw) is None

    def test_pieces_are_eigenspaces(self):
        tau = MatrixInvolution.transpose_inv(2, QI, "conj")
        dec = joint_eigenspaces([tau])
        for signs, piece in dec.pieces.items():
            for b in piece.basis_matrices():
                assert tau(b) == b.scale(Fraction(signs[0]))


def test_noncommuting_transposes_are_detected():
    """The transposes twisted by diag(1, -1) and by [[1, 1], [1, -1]] are
    both valid involutions of M(2, Q), but they do not commute: a
    known-false input to ``commutes_with`` and ``joint_eigenspaces``."""
    tau = MatrixInvolution("anti", "id", 2, Q, twist=Matrix.diag(Q, [1, -1]))
    sigma = MatrixInvolution("anti", "id", 2, Q, twist=Matrix.from_rows(Q, [[1, 1], [1, -1]]))
    assert not tau.commutes_with(sigma)
    assert not commute(sigma, tau)
    with pytest.raises(ValueError, match="commute"):
        joint_eigenspaces([tau, sigma])


@pytest.mark.parametrize("name, sizes", [("proj", (1, 2)), ("proj", (2, 2)), ("siegel", (2,)),
                                         ("siegel", (3,)), ("quat1", (2,)), ("quat1", (3,)),
                                         ("quat2", (1,)), ("quat2", (2,))])
def test_action_matches_matrix_path(name, sizes):
    """``action`` (one batched sandwich of the declared form) equals the
    action matrix built from ``__call__``, one ``Matrix`` per unit matrix,
    for both involutions of each construction."""
    c = instantiate(name, sizes)
    for tau in (c.tau, c.tau_tilde):
        act = tau.action()
        rows = [[Fraction(v, act.den) for v in row] for row in kernel.int_rows(act.a[..., 0])]
        assert rows == action_rows(tau)
