"""Unit tests for the deformed products, LTS axiom checks and the standard
imbedding."""

import contextlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from structure_reference import (broken_derivation, constants_product, operator_rank,
                                 reference_intertwines, reference_structure)

from homotopes import homotope, kernel
from homotopes.families import (asym_space, family, family_axiom_suite, herm_space,
                                matrix_space, rand_invertible, rand_matrix,
                                sample_in_subspace, sym_space)
from homotopes.homotope import (AlphaMap, AlphaTriple, GenericTriple, PairTriple,
                                ProductSpace, TripleSystem, bracket_param, cdual,
                                check_closure, check_lts, gamma_act, gamma_intertwines,
                                hom_sxt, hom_sxt_check, intertwines, standard_imbedding,
                                triple_param)
from homotopes.involutions import MatrixInvolution, joint_eigenspaces
from homotopes.kernel import Arr
from homotopes.matrices import Matrix, Subspace
from homotopes.scalars import HQ, Q, QI, Scalar


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

    @pytest.mark.parametrize("case", ["polarized", "polarized with alphas", "generic"])
    def test_cdual_negates_the_structure(self, case):
        """The c-dual negates the flattened products and their coordinates
        exactly, over the same denominator, and its bracket: a polarized
        system without alphas (whose negation is the identity maps
        negated), one with alphas, and a generic product."""
        rng = random.Random(9)
        if case == "generic":
            space = sym_space(2, Q)
            a = sample_in_subspace(space, rng)
            system = TripleSystem(space, GenericTriple(lambda x, y, z: triple_param(x, y, z, a)))
        elif case == "polarized":
            system = TripleSystem(ProductSpace(matrix_space(1, 2, Q), matrix_space(2, 1, Q)), PairTriple())
        else:
            desc = family("pol1-1.a")
            system = desc.system((1, 2), desc.sample_params((1, 2), rng, "generic"))
        dual = cdual(system)
        st, st_dual = system.structure(), dual.structure()
        assert st.closed and st_dual.closed and st.flat.a.any()
        for x, y in ((st.flat, st_dual.flat), (st.coords, st_dual.coords)):
            assert x.den == y.den and np.array_equal(y.a, -x.a)
        b = system.basis()
        value, dual_value = system.eval(b[0], b[-1], b[0]), dual.eval(b[0], b[-1], b[0])
        assert dual_value == (tuple(-v for v in value) if isinstance(value, tuple) else -value)


def _as_fractions(arr, index):
    return [Fraction(int(v), arr.den) for v in arr.a[index]]


class TestGenericTriple:
    """``GenericTriple`` calls its product once, on the basis stacks."""

    @pytest.mark.parametrize("space", [matrix_space(1, 1, Q), sym_space(2, Q), matrix_space(2, 2, QI),
                                       matrix_space(2, 2, HQ)], ids=["d1", "d3", "d8", "d16"])
    def test_one_call_per_structure(self, space):
        """One call at every d, with the values the plain homotope's tensor
        path computes, and none more for the LTS check."""
        p, q, ring = space.ambient
        a = rand_matrix(q, p, ring, random.Random(space.dim))
        calls = []
        system = TripleSystem(space, GenericTriple(lambda x, y, z: calls.append(1) or triple_param(x, y, z, a)))
        got, want = system.structure(), TripleSystem.from_parameter(space, a).structure()
        check_lts(system)
        assert len(calls) == 1
        assert (got.closed, got.witness) == (want.closed, want.witness)
        pairs = [(got.flat, want.flat)] + ([(got.coords, want.coords)] if got.closed else [])
        for x, y in pairs:
            assert x.a.shape == y.a.shape
            assert np.array_equal(kernel.fit(x.a, 1 << 60) * y.den, kernel.fit(y.a, 1 << 60) * x.den)

    @pytest.mark.parametrize("reads", ["x and z", "x", "nothing"])
    def test_a_product_need_not_read_every_argument(self, reads):
        """The products' stack is broadcast to (d, d, d): a product that reads
        only some of its arguments gives the reference's structure."""
        space = sym_space(2, Q)
        a = Matrix.from_rows(Q, [[1, 2], [0, -1]])
        product = {"x and z": lambda x, y, z: x @ a @ z, "x": lambda x, y, z: x.scale(3),
                   "nothing": lambda x, y, z: Matrix.identity(2, Q)}[reads]
        flat, coords, closed, witness = reference_structure(space, product)
        st = TripleSystem(space, GenericTriple(product)).structure()
        assert (st.closed, st.witness) == (closed, witness)
        assert closed == (reads != "x and z")
        for t in np.ndindex((space.dim,) * 3):
            assert _as_fractions(st.flat, t) == list(flat[t])
            if closed:
                assert _as_fractions(st.coords, t) == list(coords[t])


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

    def test_closure_of_a_pair_space_takes_a_pair_triple(self):
        """On a ``ProductSpace`` the ``PairTriple`` object decides closure;
        its ``eval`` as a callable is refused with a one-line ValueError."""
        space = ProductSpace(matrix_space(1, 2, Q), matrix_space(2, 1, Q))
        assert check_closure(space, PairTriple())
        with pytest.raises(ValueError, match="PairTriple") as refused:
            check_closure(space, PairTriple().eval)
        assert "\n" not in str(refused.value)

    @pytest.mark.parametrize("call", [
        lambda space: check_closure(space, GenericTriple(PairTriple().eval)),
        lambda space: check_lts(TripleSystem(space, AlphaTriple(AlphaMap(None, None)))),
    ], ids=["check_closure-GenericTriple", "check_lts-AlphaTriple"])
    def test_pair_space_refuses_every_other_product(self, call):
        """A ``ProductSpace`` with a product object other than ``PairTriple``
        is refused with a one-line ValueError, by closure and LTS check."""
        space = ProductSpace(matrix_space(1, 2, Q), matrix_space(2, 1, Q))
        with pytest.raises(ValueError, match="PairTriple") as refused:
            call(space)
        assert "\n" not in str(refused.value)

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

    def test_gamma_act_rejects_g_not_fixed_by_phi(self):
        """Known false: over HQ phi negates i and k, so g = i is not fixed by
        it and g = j is.  The action of i raises; that of j is g A tau(g)."""
        tau = MatrixInvolution.transpose_inv(1, HQ, "qconj")
        a = Matrix.identity(1, HQ)
        i, j = (Matrix.from_rows(HQ, [[Scalar(HQ, parts)]]) for parts in ((0, 1, 0, 0), (0, 0, 1, 0)))

        def phi(m):
            return m.conjugate("phi")

        with pytest.raises(ValueError, match="not fixed"):
            gamma_act(i, a, tau, phi)
        with pytest.raises(ValueError, match="not fixed"):
            gamma_intertwines(i, a, tau, matrix_space(1, 1, HQ), phi)
        assert gamma_act(j, a, tau, phi)[0] == j @ a @ tau(j)
        assert gamma_intertwines(j, a, tau, matrix_space(1, 1, HQ), phi)

    def test_the_zero_space_intertwines_vacuously(self):
        """The identity does not intertwine A' = 2A with A on M(2, 2), but the
        zero space has no basis triple, so there every psi intertwines: a
        plain sandwich, and a twisted and transposed one, which only the d^3
        check can decide."""
        a = rand_invertible(2, QI, self.rng)
        assert not intertwines(AlphaMap(None, None), matrix_space(2, 2, QI), a.scale(2), a)
        for psi in (AlphaMap(None, None), AlphaMap(a, a, "conj", transpose=True)):
            assert intertwines(psi, Subspace.zero((2, 2, QI)), a.scale(2), a)

    def test_identity_does_not_intertwine_different_parameters(self):
        space = matrix_space(2, 2, Q)
        a = rand_invertible(2, Q, self.rng)
        identity = AlphaMap(None, None)
        assert intertwines(identity, space, a, a)
        assert not intertwines(identity, space, a.scale(Fraction(2)), a)
        assert not intertwines(identity, space, rand_matrix(2, 2, Q, self.rng), a)


    def test_middle_identity_settles_a_sandwich(self, monkeypatch):
        """psi(X) = tau(g) X g satisfies R alpha_A(psi Y) L = alpha_{A'}(Y) on
        every basis element, so no basis triple is evaluated."""
        tau = MatrixInvolution.transpose_inv(2, Q)
        a = Matrix.from_rows(Q, [[1, 0], [0, 2]])
        a_new, psi = gamma_act(Matrix.from_rows(Q, [[1, 1], [0, 1]]), a, tau)
        calls = []
        triples = homotope._triples
        monkeypatch.setattr(homotope, "_triples", lambda *args: calls.append(args) or triples(*args))
        assert intertwines(psi, matrix_space(2, 2, Q), a_new, a)
        assert calls == []

    def test_fallback_decides_where_the_bracket_vanishes(self, monkeypatch):
        """Known true where the middle identity fails: on a 1-dimensional
        space [X, X, X] = 0, so every psi intertwines, also the identity from
        A' = 2A to A, whose middle identity A X A = 4 A X A is false.  The
        d^3 check decides."""
        space = matrix_space(1, 1, Q)
        basis = space.basis_matrices()
        a = Matrix.from_rows(Q, [[1]])
        identity = AlphaMap(None, None)
        assert AlphaMap.param(a)(basis[0]) != AlphaMap.param(a.scale(2))(basis[0])
        calls = []
        triples = homotope._triples
        monkeypatch.setattr(homotope, "_triples", lambda *args: calls.append(args) or triples(*args))
        assert intertwines(identity, space, a.scale(2), a)
        assert calls
        assert reference_intertwines(identity, basis, a.scale(2), a)

    def test_a_negated_sandwich_is_not_settled_by_the_middle_identity(self):
        """Known false: psi(X) = -L X R from A' = i R A L to A.  Here
        R alpha_A(psi Y) L = -M Y M = alpha_{A'}(Y) (M = R A L), but psi
        reverses the sign of every bracket, so only a plain sandwich may be
        settled by that identity."""
        rng = random.Random(3)
        left, right, a = rand_matrix(1, 1, QI, rng), rand_matrix(2, 2, QI, rng), rand_matrix(2, 1, QI, rng)
        psi = AlphaMap(left, right, sign=-1)
        a_new = (right @ a @ left).scalar_mul(Scalar(QI, (0, 1)))
        space = matrix_space(1, 2, QI)
        stack = space.basis_arr()
        middle = AlphaMap(right, left)(AlphaMap.param(a)(psi(stack)))
        assert not np.any((middle - AlphaMap.param(a_new)(stack)).a)
        assert not reference_intertwines(psi, space.basis_matrices(), a_new, a)
        assert not intertwines(psi, space, a_new, a)

    def test_verdicts_match_the_triple_by_triple_reference(self):
        """Random sandwiches (some twisted or transposed, so that only the
        d^3 check applies) and image parameters R A L (the middle identity
        holds), -R A L (so does it), 2 R A L and random ones: the verdict
        is the reference's, and both verdicts occur."""
        rng = random.Random(11)
        spaces = [matrix_space(1, 1, Q), matrix_space(1, 2, Q), matrix_space(2, 2, Q),
                  matrix_space(1, 2, QI), sym_space(2, Q), asym_space(2, Q), asym_space(3, Q),
                  herm_space(2, QI, "conj")]
        verdicts = []
        for _ in range(40):
            space = rng.choice(spaces)
            p, q, ring = space.ambient
            left, right = rand_matrix(p, p, ring, rng), rand_matrix(q, q, ring, rng)
            twist = rng.choice(["id", "id", "conj"]) if ring == QI else "id"
            psi = AlphaMap(left, right, twist, transpose=p == q and rng.random() < 0.2)
            a = rand_matrix(q, p, ring, rng)
            a_new = rng.choice([right @ a @ left, -(right @ a @ left), (right @ a @ left).scale(2),
                                rand_matrix(q, p, ring, rng)])
            verdict = intertwines(psi, space, a_new, a)
            assert verdict == reference_intertwines(psi, space.basis_matrices(), a_new, a), \
                (space, psi.twist, psi.transpose)
            verdicts.append(verdict)
        assert True in verdicts and False in verdicts


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
            assert emb.h_dim == len(emb.h_pairs) == operator_rank(system) > 0
            assert all(u < v for u, v in emb.h_pairs)

    def test_fails_without_lt1(self):
        """Closed, LT2 and LT3 hold but [x, y] = R(x, y) is not antisymmetric:
        [x, y, z] = (x_1 y_0 z_1 - x_1 y_1 z_0) e_0."""
        product = constants_product({(1, 0, 1, 0): 1, (1, 1, 0, 0): -1}, 2)
        system = TripleSystem(matrix_space(1, 2, Q), GenericTriple(product))
        assert [e["axiom"] for e in check_lts(system).failing()] == ["LT1"]
        emb = standard_imbedding(system)
        assert not emb.ok
        assert emb.h_dim == operator_rank(system)

    def test_fails_where_only_lt3_fails(self):
        system = TripleSystem(matrix_space(1, 3, Q), GenericTriple(broken_derivation(3, 1)))
        emb = standard_imbedding(system)
        assert not emb.ok
        assert emb.h_pairs == [(0, 1)] and emb.h_dim == operator_rank(system) == 1

    def test_rejects_unclosed(self):
        sp = sym_space(2, Q)
        a = Matrix.from_rows(Q, [[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            standard_imbedding(TripleSystem.from_parameter(sp, a))

    @pytest.mark.parametrize("label, sizes", [("2.2.b", (3,)), ("2.2.b", (1,))])
    def test_picks_once(self, monkeypatch, label, sizes):
        """h is picked once, behind the Hadamard cover, among the pairs
        ``_inner_operators`` lists with LT1, on each side of
        ``LT3_ALL_PAIRS_MAX_DIM``: at 2.2.b(3) (d = 21) and at 2.2.b(1)
        (d = 3, where ``check_lts`` alone checks every operator with no
        pick).  That one pick decides LT3, and its pairs are h_pairs."""
        desc = family(label)
        system = desc.system(sizes, desc.sample_params(sizes, random.Random(3), "generic"))
        assert (system.dim > homotope.LT3_ALL_PAIRS_MAX_DIM) == (sizes == (3,))
        pick, picks = kernel.independent_row_indices, []
        monkeypatch.setattr(kernel, "independent_row_indices",
                            lambda rows, cover=None: picks.append((cover, pick(rows, cover))) or picks[-1][1])
        emb = standard_imbedding(system)
        assert emb.ok and [cover for cover, _ in picks] == [None]
        pairs, ops = homotope._inner_operators(system.structure().coords.a, True)
        picked = [tuple(pairs[t].tolist()) for t in picks[0][1]]
        assert picked == [tuple(pairs[t].tolist()) for t in pick(ops.reshape(len(ops), system.dim**2))]
        assert emb.h_pairs == picked and emb.h_dim == len(picked)
        assert "pairs" not in str(check_lts(system).to_json(system))


class _FakeBlas:
    """The thread-count functions of a stand-in BLAS at ``threads``."""

    def __init__(self, threads):
        self.threads = threads

    def api(self):
        return (lambda: self.threads), self.set

    def set(self, threads):
        self.threads = threads


def _lts_fixtures():
    """Fresh systems (structure constants are cached) of the pass and fail
    cases above: homotopes, an LT2 and an LT1 failure, an unclosed one, and
    one where only LT3 fails."""
    a = rand_matrix(2, 2, Q, random.Random(6))
    return [
        TripleSystem.from_parameter(matrix_space(2, 2, Q), a),
        TripleSystem.from_parameter(matrix_space(2, 3, Q), Matrix.zeros(3, 2, Q)),
        TripleSystem(matrix_space(2, 2, Q), GenericTriple(lambda x, y, z: (x @ y - y @ x) @ z)),
        TripleSystem(matrix_space(2, 2, Q), GenericTriple(lambda x, y, z: x @ a @ y @ a @ z)),
        TripleSystem.from_parameter(sym_space(2, Q), Matrix.from_rows(Q, [[0, 1], [0, 0]])),
        TripleSystem(matrix_space(1, 3, Q), GenericTriple(broken_derivation(3, 1))),
    ]


class TestLtsBlasThreads:
    """``check_lts`` runs its BLAS on one thread and gives the caller's
    thread count back."""

    def test_one_thread_inside_and_the_count_restored_after(self, monkeypatch):
        fake = _FakeBlas(3)
        monkeypatch.setattr(kernel, "_blas_threads_api", fake.api)
        seen = []
        body = homotope._check_lts
        monkeypatch.setattr(homotope, "_check_lts", lambda system: seen.append(fake.threads) or body(system))
        assert check_lts(_lts_fixtures()[0]).ok
        assert seen == [1] and fake.threads == 3

    def test_the_count_is_restored_when_the_check_raises(self, monkeypatch):
        fake = _FakeBlas(3)
        monkeypatch.setattr(kernel, "_blas_threads_api", fake.api)

        def fail(*args):
            raise RuntimeError("inside the scope")

        monkeypatch.setattr(homotope, "_check_lt3", fail)
        with pytest.raises(RuntimeError, match="inside the scope"):
            check_lts(_lts_fixtures()[0])
        assert fake.threads == 3

    def test_no_blas_found_is_a_no_op(self, monkeypatch):
        want = [check_lts(system).entries for system in _lts_fixtures()]
        monkeypatch.setattr(kernel, "_blas_threads_api", lambda: None)
        assert [check_lts(system).entries for system in _lts_fixtures()] == want

    def test_reports_do_not_depend_on_the_scope(self, monkeypatch):
        """Every verdict and witness, pass and fail, with the scope stubbed
        out: the bounds make each GEMM exact in any summation order."""
        want = [check_lts(system).entries for system in _lts_fixtures()]
        assert [e["pass"] for entries in want for e in entries].count(False) >= 5
        monkeypatch.setattr(kernel, "one_blas_thread", contextlib.nullcontext)
        assert [check_lts(system).entries for system in _lts_fixtures()] == want

    def test_the_loaded_blas_gets_its_count_back(self):
        """The process's own OpenBLAS, where one is found: the count the
        caller set is back after ``check_lts`` and after a raising
        ``standard_imbedding``."""
        api = kernel._blas_threads_api()
        get, put = api if api is not None else (lambda: None, lambda threads: None)
        original = get()
        try:
            put(2)
            before = get()
            assert check_lts(_lts_fixtures()[0]).ok
            assert get() == before
            with pytest.raises(ValueError):
                standard_imbedding(_lts_fixtures()[4])
            assert get() == before
        finally:
            put(original)


@pytest.mark.parametrize("top, dtype", [(2**10, np.float32), (2**23, np.float32),
                                        (2**30, np.float64), (2**52, np.float64), (2**60, object)])
def test_lt3_bound_is_the_formula(top, dtype):
    """4 max|c| L, L the largest sum of |c[i, j, k, :]|, equals the formula
    in Python ints in each tier of the coordinates ``kernel.coordinates``
    returns (at 2^23 the row sums pass 2^24).  Known false for row sums in
    float64 past 2^53: at 2^52 the float64 coordinates hold the row
    [2^52, 2^52 - 1, 2], so L = 2^53 + 1, which a float64 sum rounds to
    2^53; every other entry is then below 2^22."""
    rng, d = random.Random(top), 3
    nums = [rng.randint(-top, top) for _ in range(d**4)]
    nums[5] = top
    if top == 2**52:
        nums = [x >> 30 for x in nums[:3]] + [top, top - 1, 2] + [x >> 30 for x in nums[6:]]
    space = matrix_space(1, d, Q)
    flat = Arr(np.array(nums, dtype=object).reshape(d, d, d, d), 1, top, Q).actual_bound()
    coords, member = space.flat_coordinates(flat)
    assert member.all() and coords.a.dtype == dtype
    rows = [nums[t:t + d] for t in range(0, d**4, d)]
    assert homotope._lt3_bound(coords) == 4 * top * max(sum(map(abs, row)) for row in rows)


@pytest.mark.parametrize("seed", [42, 7])
def test_lts_working_set(seed):
    """Known false for the old LT3 path, which traced 17 MB here: the axiom
    suite of 2.2.b(3) (d = 21, 210 operators) stays under 8 MB of traced
    allocations once its carrier is cached.  The certificate holds one
    prime's residues at a time, and LT1 and LT2 free their tensors before
    LT3 runs."""
    family_axiom_suite("2.2.b", (3,), 5, seed)
    tracemalloc.start()
    try:
        assert family_axiom_suite("2.2.b", (3,), 5, seed)["pass"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
