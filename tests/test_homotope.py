"""Unit tests for the deformed products, LTS axiom checks and the standard
imbedding."""

import random
from fractions import Fraction

import pytest
from structure_reference import broken_derivation, reference_rref, reference_structure

from homotopes import homotope
from homotopes.families import (asym_space, matrix_space, rand_invertible,
                                rand_matrix, sample_in_subspace, sym_space)
from homotopes.homotope import (AlphaMap, AlphaTriple, GenericTriple,
                                TripleSystem, bracket_param, cdual, check_closure,
                                check_lts, gamma_intertwines, hom_sxt,
                                hom_sxt_check, intertwines, standard_imbedding,
                                triple_param)
from homotopes.involutions import MatrixInvolution, joint_eigenspaces
from homotopes.matrices import Matrix
from homotopes.scalars import Q, QI, Scalar


class TestProducts:
    def setup_method(self):
        self.rng = random.Random(5)

    def test_bracket_definition(self):
        x, y = (rand_matrix(2, 3, Q, self.rng) for _ in range(2))
        a = rand_matrix(3, 2, Q, self.rng)
        assert bracket_param(x, y, a) == x @ a @ y - y @ a @ x

    def test_bracket_antisymmetric(self):
        x, y = (rand_matrix(2, 2, QI, self.rng) for _ in range(2))
        a = rand_matrix(2, 2, QI, self.rng)
        assert bracket_param(x, y, a) == -bracket_param(y, x, a)

    def test_triple_definition(self):
        x, y, z = (rand_matrix(2, 3, Q, self.rng) for _ in range(3))
        a = rand_matrix(3, 2, Q, self.rng)
        w = (x @ (a @ y @ a) @ z + z @ (a @ y @ a) @ x
             - y @ (a @ x @ a) @ z - z @ (a @ x @ a) @ y)
        assert triple_param(x, y, z, a) == w

    def test_scaling_law(self):
        x, y, z = (rand_matrix(2, 2, Q, self.rng) for _ in range(3))
        a = rand_matrix(2, 2, Q, self.rng)
        for r in (Fraction(-1), Fraction(2), Fraction(1, 3)):
            assert (triple_param(x, y, z, a.scale(r))
                    == triple_param(x, y, z, a).scale(r * r))

    def test_cdual_negates(self):
        sp = matrix_space(2, 2, Q)
        a = rand_matrix(2, 2, Q, self.rng)
        sysm = TripleSystem.from_parameter(sp, a)
        cd = cdual(sysm)
        b = sp.basis_matrices()
        assert all(cd.eval(x, y, z) == -sysm.eval(x, y, z)
                   for x in b[:2] for y in b[:2] for z in b[:2])


class TestCheckLts:
    def setup_method(self):
        self.rng = random.Random(6)

    def test_passes_on_homotope(self):
        sp = matrix_space(2, 2, Q)
        a = rand_matrix(2, 2, Q, self.rng)
        assert check_lts(TripleSystem.from_parameter(sp, a)).ok

    def test_passes_with_zero_parameter(self):
        sp = matrix_space(2, 3, Q)
        assert check_lts(TripleSystem.from_parameter(sp, Matrix.zeros(3, 2, Q))).ok

    def test_fails_on_non_lts(self):
        """A product violating LT2 must be rejected with a witness."""
        sp = matrix_space(2, 2, Q)

        def bad(x, y, z):
            return (x @ y - y @ x) @ z

        report = check_lts(TripleSystem(sp, GenericTriple(bad)))
        assert not report.ok
        assert any(e["axiom"] in ("LT2", "LT3") for e in report.failing())

    def test_fails_on_asymmetric_product(self):
        sp = matrix_space(2, 2, Q)
        a = rand_matrix(2, 2, Q, self.rng)

        def bad(x, y, z):
            return x @ a @ y @ a @ z

        report = check_lts(TripleSystem(sp, GenericTriple(bad)))
        assert not report.ok
        assert any(e["axiom"] == "LT1" for e in report.failing())

    def test_closure_fails_off_carrier(self):
        """Sym(2) with a generic non-symmetric parameter is not closed."""
        sp = sym_space(2, Q)
        a = Matrix.from_rows(Q, [[0, 1], [0, 0]])
        assert not check_closure(sp, lambda x, y, z: triple_param(x, y, z, a))

    def test_kernel_and_exact_structure_agree(self):
        sp = sym_space(2, Q)
        a = sample_in_subspace(sp, self.rng)
        k = TripleSystem.from_parameter(sp, a).structure()
        _, coords, closed, _ = reference_structure(sp, lambda x, y, z: triple_param(x, y, z, a))
        assert k.closed == closed
        assert all([Fraction(int(x), k.coords.den) for x in k.coords.a[i, j, kk]] == list(co)
                   for (i, j, kk), co in coords.items())


class TestHomomorphisms:
    def setup_method(self):
        self.rng = random.Random(7)

    def test_sxt_intertwines(self):
        for _ in range(5):
            s, t, a, x, y = (rand_matrix(2, 2, QI, self.rng) for _ in range(5))
            assert hom_sxt_check(s, t, a, x, y)

    def test_sxt_rectangular(self):
        s = rand_matrix(2, 2, Q, self.rng)
        t = rand_matrix(3, 3, Q, self.rng)
        a = rand_matrix(3, 2, Q, self.rng)
        x, y = (rand_matrix(2, 3, Q, self.rng) for _ in range(2))
        assert hom_sxt_check(s, t, a, x, y)

    def test_sxt_check_rejects_a_scaled_homomorphism(self, monkeypatch):
        """[SXT, SYT]_A = S [X, Y]_{TAS} T holds for all inputs, so a false
        case needs a corrupted map: X -> 2 SXT scales the left side by 4,
        which differs once the bracket is nonzero."""
        s, t, a, x, y = (rand_matrix(2, 2, Q, self.rng) for _ in range(5))
        assert not (s @ bracket_param(x, y, t @ a @ s) @ t).is_zero()
        assert hom_sxt_check(s, t, a, x, y)
        sxt = homotope.hom_sxt
        monkeypatch.setattr(homotope, "hom_sxt", lambda *args: sxt(*args).scale(2))
        assert not hom_sxt_check(s, t, a, x, y)

    def test_gamma_action(self):
        tau = MatrixInvolution.transpose_inv(2, Q)
        dec = joint_eigenspaces([tau])
        a = sample_in_subspace(dec.piece((1,)), self.rng)
        g = rand_invertible(2, Q, self.rng)
        assert gamma_intertwines(g, a, tau, matrix_space(2, 2, Q))

    def test_gamma_intertwines_rejects_a_corrupted_action(self, monkeypatch):
        """psi(X) = tau(g) X g intertwines the systems of g A tau(g) and A for
        every invertible g (it is an S X T homomorphism), so a false case
        needs a corrupted action: the image parameter, or psi, scaled by 2."""
        tau = MatrixInvolution.transpose_inv(2, Q)
        a = Matrix.from_rows(Q, [[1, 0], [0, 2]])
        g = Matrix.from_rows(Q, [[1, 1], [0, 1]])
        space = matrix_space(2, 2, Q)
        assert gamma_intertwines(g, a, tau, space)
        act = homotope.gamma_act
        for corrupt in (lambda a_new, psi: (a_new.scale(2), psi),
                        lambda a_new, psi: (a_new, AlphaMap(psi.left, psi.right.scale(2)))):
            monkeypatch.setattr(homotope, "gamma_act", lambda *args, c=corrupt: c(*act(*args)))
            assert not gamma_intertwines(g, a, tau, space)

    def test_identity_does_not_intertwine_different_parameters(self):
        basis = matrix_space(2, 2, Q).basis_matrices()
        a = rand_invertible(2, Q, self.rng)
        identity = AlphaMap(None, None)
        assert intertwines(identity, basis, a, a)
        assert not intertwines(identity, basis, a.scale(Fraction(2)), a)
        assert not intertwines(identity, basis, rand_matrix(2, 2, Q, self.rng), a)


def _operator_rank(system):
    """The Fraction rank of the inner operators R(b_u, b_v), all pairs."""
    st, d = system.structure(), system.dim
    return len(reference_rref([[Fraction(int(x), st.coords.den) for x in st.coords.a[u, v].ravel()]
                     for u in range(d) for v in range(d)])[0])


class TestStandardImbedding:
    def test_ok_for_homotope(self):
        rng = random.Random(8)
        for sp in (sym_space(2, Q), matrix_space(2, 2, Q), asym_space(3, Q)):
            a = sample_in_subspace(sp, rng) if sp.dim == 3 else rand_matrix(2, 2, Q, rng)
            system = TripleSystem.from_parameter(sp, a)
            emb = standard_imbedding(system)
            assert emb.ok
            assert emb.m_dim == sp.dim
            # h is spanned by the picked R(b_u, b_v) and has the dimension of
            # the span of all of them
            assert emb.h_dim == len(emb.h_pairs) == _operator_rank(system) > 0
            assert all(u < v for u, v in emb.h_pairs)

    def test_fails_without_lt1(self):
        """Closed, LT2 and LT3 hold but [x, y] = R(x, y) is not antisymmetric."""
        def product(x, y, z):
            xs, ys, zs = x.flatten(), y.flatten(), z.flatten()
            return Matrix.unflatten((1, 2, Q), [xs[1] * ys[0] * zs[1] - ys[1] * zs[0] * xs[1], 0])
        system = TripleSystem(matrix_space(1, 2, Q), GenericTriple(product))
        assert [e["axiom"] for e in check_lts(system).failing()] == ["LT1"]
        emb = standard_imbedding(system)
        assert not emb.ok
        assert emb.h_dim == _operator_rank(system)

    def test_fails_where_only_lt3_fails(self):
        system = TripleSystem(matrix_space(1, 3, Q), GenericTriple(broken_derivation(3, 1)))
        emb = standard_imbedding(system)
        assert not emb.ok
        assert emb.h_pairs == [(0, 1)] and emb.h_dim == _operator_rank(system) == 1

    def test_rejects_unclosed(self):
        sp = sym_space(2, Q)
        a = Matrix.from_rows(Q, [[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            standard_imbedding(TripleSystem.from_parameter(sp, a))
