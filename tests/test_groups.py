"""Unit tests for the deformed group law, unitary/symplectic analogues and the
tangent/linearization checks."""

import random
from fractions import Fraction

import pytest

from homotopes import groups, matrices
from homotopes.families import aherm_space, rand_matrix, sample_in_subspace
from homotopes.groups import (GroupElement, cayley_element, g_identity, g_inv,
                              g_mul, group_axiom_suite, hom_check,
                              is_quasi_invertible, membership, quasi_inverse_witness,
                              rand_skew_invertible, rand_symmetric_invertible, series_lift,
                              star_from_delta, tangent_check, tangent_suite, u_defect,
                              u_linearization_check, unitary_suite)
from homotopes.matrices import Matrix
from homotopes.kernel import equal
from homotopes.scalars import HQ, Q, QI, series_ring


class TestGroupLaw:
    def setup_method(self):
        self.rng = random.Random(12)

    def test_flat_case_is_addition(self):
        x, y = (rand_matrix(2, 2, Q, self.rng) for _ in range(2))
        a = Matrix.zeros(2, 2, Q)
        assert g_mul(x, y, a) == x + y
        assert g_inv(x, a) == -x

    def test_axiom_suites(self):
        for p, q, ring in [(2, 2, Q), (1, 2, QI), (2, 1, HQ)]:
            assert group_axiom_suite(p, q, ring, 6, 0)["pass"]

    def test_quasi_inverse_needs_invertibility(self):
        a = Matrix.identity(2, Q)
        x = Matrix.identity(2, Q)  # 1 - XA = 0 is singular
        assert not is_quasi_invertible(x, a)
        with pytest.raises(ZeroDivisionError):
            g_inv(x, a)

    def test_group_element_wrapper(self):
        a = rand_matrix(2, 2, Q, self.rng)
        x = rand_matrix(2, 2, Q, self.rng)
        while not is_quasi_invertible(x, a):
            x = rand_matrix(2, 2, Q, self.rng)
        g = GroupElement(x, a)
        e = GroupElement(g_identity(2, 2, Q), a)
        assert g * g.inv() == e

    def test_one_minus_ax_homomorphism(self):
        for _ in range(5):
            a = rand_matrix(2, 2, QI, self.rng)
            x, y = (rand_matrix(2, 2, QI, self.rng) for _ in range(2))
            assert hom_check(x, y, a)


class TestWitnesses:
    """The witnesses (1 - XA)^{-1} that the group law gives are right, so
    their certificates accept them and no elimination runs; each equals the
    eliminated witness.  Over HQ, where the order W_Y W_X matters."""

    def setup_method(self):
        self.rng = random.Random(19)

    def _count(self, monkeypatch) -> list:
        calls = []
        echelon = matrices._echelon
        monkeypatch.setattr(matrices, "_echelon", lambda *args: calls.append(1) or echelon(*args))
        return calls

    def test_products_and_inverses(self, monkeypatch):
        a = rand_matrix(2, 2, HQ, self.rng)
        g, h = (GroupElement(rand_matrix(2, 2, HQ, self.rng), a) for _ in range(2))
        calls = self._count(monkeypatch)
        gh, g_inv_ = g * h, g.inv()
        assert not calls
        for elem in (gh, g_inv_):
            assert elem.witness == quasi_inverse_witness(elem.x, a)
        assert (g * g_inv_).x == g_identity(2, 2, HQ)

    def test_cayley_points(self, monkeypatch):
        star = star_from_delta("qsplit")
        a = rand_symmetric_invertible(2, HQ, "qsplit", self.rng)
        x, witness = groups._cayley(a.inverse(), star, self.rng, False, 3)
        calls = self._count(monkeypatch)
        assert equal(GroupElement(x, a, witness).witness, witness).all() and not calls
        assert equal(witness, quasi_inverse_witness(x, a)).all()

    def test_tangent_lifts(self, monkeypatch):
        sring = series_ring(QI)
        a, x = rand_matrix(2, 2, QI, self.rng), rand_matrix(2, 2, QI, self.rng)
        tx, aa = series_lift(x, sring, "t"), series_lift(a, sring)
        calls = self._count(monkeypatch)
        inv = g_inv(tx, aa)
        assert not calls
        assert inv == -(quasi_inverse_witness(tx, aa) @ tx)


class TestUnitary:
    def test_suites(self):
        for n, ring, delta in [(2, Q, "id"), (2, QI, "conj"),
                               (2, HQ, "qconj"), (2, HQ, "qsplit")]:
            assert unitary_suite(n, ring, delta, 5, 0)["pass"]

    def test_odd_skew_parameters(self):
        """Over Q(i) with delta "id" an odd skew matrix is singular, as over
        Q: the sampler refuses it and the suite skips S_A.  With "conj" the
        odd star-skew matrices include invertible ones, and S_A runs."""
        for ring in (Q, QI):
            with pytest.raises(ValueError, match="odd dimension"):
                rand_skew_invertible(3, ring, "id", random.Random(0))
        report = unitary_suite(3, QI, "id", 2, 0)
        assert report["pass"] and [r["kind"] for r in report["results"]] == ["U"]
        report = unitary_suite(3, QI, "conj", 2, 0)
        assert report["pass"] and [r["kind"] for r in report["results"]] == ["U", "S"]

    def test_membership_defect(self):
        rng = random.Random(13)
        star = star_from_delta("conj")
        a = rand_symmetric_invertible(2, QI, "conj", rng)
        x = cayley_element(a, star, rng, symmetric=False)
        assert u_defect(x, a, star).is_zero()
        assert membership(x, a, "U", star)


class TestTangent:
    def test_suite(self):
        assert tangent_suite(2, 2, Q, 5, 0)["pass"]
        assert tangent_suite(2, 1, QI, 4, 0)["pass"]

    def test_single(self):
        rng = random.Random(14)
        a = rand_matrix(3, 2, Q, rng)
        x, y = (rand_matrix(2, 3, Q, rng) for _ in range(2))
        ok, _ = tangent_check(x, y, a)
        assert ok

    def test_u_linearization(self):
        rng = random.Random(15)
        for delta, ring in [("id", Q), ("conj", QI), ("qconj", HQ)]:
            a = rand_symmetric_invertible(2, ring, delta, rng)
            x = rand_matrix(2, 2, ring, rng)
            assert u_linearization_check(x, a, delta)

    def test_u_linearization_rejects_a_wrong_defect(self, monkeypatch):
        """On an anti-hermitian X the defect of tX vanishes to first order, so
        the check holds; with the defect replaced by star(X) - X, which is
        -2tX there, it must not."""
        rng = random.Random(16)
        a = rand_symmetric_invertible(2, QI, "conj", rng)
        x = sample_in_subspace(aherm_space(2, QI, "conj"), rng)
        assert not x.is_zero() and u_linearization_check(x, a, "conj")
        monkeypatch.setattr(groups, "u_defect", lambda x, a, star: star(x) - x)
        assert not u_linearization_check(x, a, "conj")


class TestKnownFalse:
    """Inputs on which each verdict must come out False."""

    def test_membership_rejects_a_nonzero_defect(self):
        """X = diag(1/2, 0) is quasi-invertible for A = 1, but its unitary
        defect X^t + X - X^t X is diag(3/4, 0)."""
        x, a = Matrix.diag(Q, [Fraction(1, 2), 0]), Matrix.identity(2, Q)
        star = star_from_delta("id")
        assert is_quasi_invertible(x, a)
        assert u_defect(x, a, star) == Matrix.diag(Q, [Fraction(3, 4), 0])
        assert not membership(x, a, "U", star)

    def test_hom_check_rejects_a_wrong_product(self, monkeypatch):
        rng = random.Random(17)
        x, y, a = (rand_matrix(2, 2, Q, rng) for _ in range(3))
        assert hom_check(x, y, a)
        monkeypatch.setattr(groups, "g_mul", lambda x, y, a: x + y - y @ a @ x)
        assert not hom_check(x, y, a)

    def test_tangent_check_rejects_a_wrong_inverse(self, monkeypatch):
        rng = random.Random(18)
        x, y, a = (rand_matrix(2, 2, Q, rng) for _ in range(3))
        assert tangent_check(x, y, a)[0]
        monkeypatch.setattr(groups, "g_inv", lambda x, a: quasi_inverse_witness(x, a) @ x)
        assert not tangent_check(x, y, a)[0]
