"""Unit tests for the family catalog, the two-involution constructions and the
verified 4x4 tables."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from structure_reference import reference_pair_failures, reference_rref

from homotopes import matrices
from homotopes.families import (CONSTRUCTIONS, SIGNS, ParamClass, _check_proj_middle, family,
                                family_axiom_suite, family_labels,
                                hermquat_check, herm_space, instantiate,
                                quat_complex_embedding, quat_split_embedding,
                                rand_matrix, rand_scalar,
                                sample_styles, size_letters, sym_space, verify_table)
from homotopes.homotope import AlphaMap, AlphaTriple, TripleSystem, check_lts
from homotopes.involutions import JointDecomposition
from homotopes.matrices import Matrix
from homotopes.scalars import HQ, Q, QI, quaternion, series_ring


@pytest.mark.parametrize("ring", [Q, QI, HQ, series_ring(Q), series_ring(HQ)], ids=str)
def test_rand_matrix_draws_as_the_entrywise_construction(ring):
    """``rand_matrix`` draws the numerators directly: the same matrices, from
    the same ``random.Random`` calls, as one ``rand_scalar`` per entry."""
    rng, old = random.Random(7), random.Random(7)
    for p, q in ((1, 1), (2, 3), (3, 2)):
        want = Matrix(p, q, ring, [rand_scalar(ring, old) for _ in range(p * q)])
        assert rand_matrix(p, q, ring, rng) == want
    assert rng.getstate() == old.getstate()


class TestCatalog:
    def test_all_labels_present(self):
        labels = family_labels()
        assert len(labels) == 50
        for expected in ("1.a", "1.B", "1.3.c", "2.b'", "2.A'", "3.b'", "3.A'",
                         "1.1.c'", "3.1.b'", "2.2.b'", "pol1-2.2", "pol2-3.1"):
            assert expected in labels

    def test_descriptor_json(self):
        for label in family_labels():
            data = family(label).to_json()
            assert data["label"] == label
            assert data["ring"] in ("Q", "QI", "HQ")
            assert data["sizes"] in ("pq", "n")

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            family("9.z")

    def test_sample_styles_include_rank_deficient(self):
        styles = list(sample_styles(20))
        assert len(styles) == 20
        assert styles[0] == "zero"
        assert styles.count("low") >= 3
        assert styles.count("generic") >= 10


PRIMED = [label for label in family_labels() if label.endswith("'")]


@pytest.mark.parametrize("label", PRIMED)
def test_primed_family_is_the_c_dual(label):
    """X' is X with the bracket negated (3.A' too, whose parameters are
    Herm(n,C) where those of 3.A are iHerm(n,C)): on generic parameters drawn
    from X', at the smallest sizes where the bracket of X is nonzero, the
    structure constants of X' are those of X negated."""
    dual, twin = family(label), family(label[:-1])
    grid = [(p, q) for q in (1, 2, 3) for p in (1, 2, 3)] if dual.sizes == "pq" else [(1,), (2,), (3,)]
    for sizes in grid:
        params = dual.sample_params(sizes, random.Random(label), "generic")
        plain = twin.system(sizes, params).structure().flat
        if plain.a.any():
            negated = dual.system(sizes, params).structure().flat
            assert negated.den == plain.den and np.array_equal(negated.a, -plain.a)
            return
    pytest.fail(f"the bracket of {label[:-1]} is zero at every size")


class TestAxiomSuites:
    """Fast spot checks; the full grid runs in the acceptance gate."""

    @pytest.mark.parametrize("label,sizes", [
        ("1.a", (2, 2)), ("1.b", (2, 2)), ("1.A", (1, 2)), ("1.3.a", (2, 1)),
        ("2.a", (2,)), ("2.A", (2,)), ("3.b'", (2,)), ("3.A", (2,)),
        ("1.1.b", (2,)), ("3.1.b", (2,)), ("2.2.b'", (2,)),
        ("pol1-1.a", (2, 2)), ("pol2-2.2", (1, 1)),
    ])
    def test_family_passes(self, label, sizes):
        report = family_axiom_suite(label, sizes, 6, 3)
        assert report["pass"], report

    def test_zero_parameter_always_flat(self):
        report = family_axiom_suite("2.a", (2,), 1, 0)  # style 0 is "zero"
        assert report["pass"]
        assert report["results"][0]["rank_style"] == "zero"

    @pytest.mark.parametrize("label,sizes", [("2.a", (0,)), ("2.a", (2, 7)), ("1.a", (2,)), ("1.a", (1, -1))])
    def test_bad_sizes(self, label, sizes):
        """One size >= 1 per size letter of the family, as for instantiate."""
        with pytest.raises(ValueError, match="sizes"):
            family_axiom_suite(label, sizes, 1, 0)

    @pytest.mark.parametrize("label,sizes", [("2.a", (2, 5)), ("1.a", (2,))])
    def test_descriptor_methods_apply_the_size_rule(self, label, sizes):
        """Known false: ``space``, ``sample_params`` and ``system`` take the
        size rule of ``family_axiom_suite``.  Without it 2.a at (2, 5) built
        and cached Sym(2, Q), and 1.a at (2,) raised ``KeyError: 'q'``."""
        desc = family(label)
        params = desc.sample_params((2,) * len(desc.sizes), random.Random(0), "generic")
        for call in (lambda: desc.space(sizes), lambda: desc.system(sizes, params),
                     lambda: desc.sample_params(sizes, random.Random(0), "generic")):
            with pytest.raises(ValueError, match="sizes"):
                call()
        assert tuple(sizes) not in desc._spaces

    def test_wrong_alpha_rejected(self):
        """Sanity: check_lts is not vacuous on these carriers.  Inserting a
        conjugate-transposed parameter into the symmetric carrier breaks
        closure/LT axioms for generic A."""
        rng = random.Random(1)
        space = sym_space(2, QI)
        desc = family("2.A")
        a = desc.sample_params((2,), rng, "generic")[0]
        bad = AlphaTriple(AlphaMap(a, a))
        report = check_lts(TripleSystem(space, bad))
        assert not report.ok


class TestConstructions:
    def test_models_validate(self):
        for name, sizes in [("proj", (1, 2)), ("siegel", (2,)),
                            ("quat1", (2,)), ("quat2", (1,))]:
            c = instantiate(name, sizes)
            assert c.validate_models() == []
            assert c.decomposition.check_direct_sum()

    def test_quat1_dims(self):
        c = instantiate("quat1", (1,))
        assert [c.dims()[s] for s in SIGNS] == [1, 2, 0, 1]

    def test_quat2_closed_form_dims(self):
        for n in (1, 2):
            c = instantiate("quat2", (n,))
            assert ([c.dims()[s] for s in SIGNS]
                    == [2 * n * n + n, 2 * n * n - n, 2 * n * n + n, 2 * n * n - n])

    def test_proj_dims(self):
        c = instantiate("proj", (1, 1))
        assert [c.dims()[s] for s in SIGNS] == [2, 1, 1, 0]

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            instantiate("proj", (0, 2))
        with pytest.raises(ValueError):
            instantiate("quat2", (0,))
        with pytest.raises(ValueError):
            instantiate("mystery", (1,))
        for name, sizes in (("proj", (2,)), ("siegel", (1, 1)), ("quat1", ())):
            with pytest.raises(ValueError, match="sizes"):
                instantiate(name, sizes)

    def test_size_letters(self):
        assert [size_letters(name) for name in CONSTRUCTIONS] == ["pq", "n", "n", "n"]

    def test_swapped_models_are_rejected(self):
        """proj(1, 1) with the models of its two middle pieces swapped: each
        maps onto the other piece, a known-false input to validate_models."""
        c = instantiate("proj", (1, 1))
        c.models[(1, -1)], c.models[(-1, 1)] = c.models[(-1, 1)], c.models[(1, -1)]
        assert sorted(signs for signs, _ in c.validate_models()) == [(-1, 1), (1, -1)]

    def test_quat_split_embedding_is_conjugation_by_j_plus_k(self):
        """The component gather equals the standard embedding of u X u^-1,
        u = j + k, taken with two Scalar products per entry."""
        u, u_inv = quaternion(0, 0, 1, 1), quaternion(0, 0, Fraction(-1, 2), Fraction(-1, 2))
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 3)
            x = rand_matrix(n, n, HQ, rng)
            conjugated = Matrix(n, n, HQ, [u * e * u_inv for e in x.entries])
            assert quat_split_embedding(x) == quat_complex_embedding(conjugated)


class TestTables:
    def test_proj_table_verifies(self):
        art = verify_table(instantiate("proj", (1, 1)), 3, 5)
        assert art.verified
        assert len(art.cells) == 16

    def test_table_eliminates_once_per_decomposition(self, monkeypatch):
        """With its caches warm, a table eliminates once: the decomposition's
        direct sum (all the piece bases together), not a sum h + m per cell.
        Each cell's dim g is the Fraction rank of the bases of h and m."""
        for name, sizes in (("proj", (2, 2)), ("siegel", (3,)), ("quat1", (3,)), ("quat2", (2,))):
            verify_table(instantiate(name, sizes), 2, 42)  # the model spaces and proj blocks
            c = instantiate(name, sizes)
            calls = []
            echelon = matrices._echelon
            monkeypatch.setattr(matrices, "_echelon", lambda *args: calls.append(args) or echelon(*args))
            art = verify_table(c, 2, 42)
            monkeypatch.undo()
            assert len(calls) == 1, name
            for cell in art.cells:
                h, m = c.piece(tuple(-x for x in cell["param"])), c.piece(tuple(cell["space"]))
                assert cell["dims"]["g"] == len(reference_rref(h.basis + m.basis)[1])

    def test_table_fails_on_swapped_pieces(self):
        """proj(1, 2) with its pieces (1, 1) and (1, -1) swapped is still a
        direct sum, but not the decomposition of its involutions: the table
        does not verify, its pair failures are the reference's for the same
        draws (t, then style), and its markdown marks the failing cells FAIL.
        The direct-product splitting, which has no reference here, fails
        only on the diagonal of the middle square."""
        c = instantiate("proj", (1, 2))
        pieces = dict(c.decomposition.pieces)
        pieces[(1, 1)], pieces[(1, -1)] = pieces[(1, -1)], pieces[(1, 1)]
        bad = dataclasses.replace(c, decomposition=JointDecomposition(c.decomposition.involutions, pieces))
        samples, seed = 5, 3
        art = verify_table(bad, samples, seed)
        assert not art.verified
        rng, want = random.Random(seed), {}
        for t in SIGNS:
            param = ParamClass("piece", bad.piece(t))
            for style in sample_styles(samples):
                a = param.sample(rng, style)
                for s in SIGNS:
                    failures = reference_pair_failures(bad.decomposition, s, t, a)
                    if failures:
                        want.setdefault((s, t), []).append({"style": style, "pair": failures})
        splitting = ["direct-product splitting"]
        marks = {}
        for cell in art.cells:
            key = (tuple(cell["space"]), tuple(cell["param"]))
            pairs = [f for f in cell["failures"] if "pair" in f]
            assert [f for f in pairs if f["pair"] != splitting] == want.get(key, [])
            if any(f["pair"] == splitting for f in pairs):
                assert key in (((-1, 1), (-1, 1)), ((1, -1), (1, -1)))
            assert cell["verified"] == (not cell["failures"])
            marks[key] = "ok" if cell["verified"] else "FAIL"
        assert set(marks.values()) == {"ok", "FAIL"}
        rows = [line.strip("| ").split(" | ") for line in art.to_markdown().splitlines() if line.startswith("| (")]
        assert [r[0] for r in rows] == [str(s) for s in SIGNS]
        assert [[text.rsplit(": ", 1)[1] for text in r[1:]] for r in rows] == [
            [marks[(s, t)] for t in SIGNS] for s in SIGNS]

    def test_proj_middle_splitting_rejects_a_non_middle_parameter(self):
        """For A = 1 the two off-diagonal blocks of proj(1, 1) do not commute
        under [., .]_A ([E12, E21]_A = E11 - E22): a known-false input to the
        direct-product splitting of the middle square."""
        c = instantiate("proj", (1, 1))
        cells = {(s, t): {"verified": True, "failures": []} for s in SIGNS for t in SIGNS}
        _check_proj_middle(c, Matrix.identity(2, Q), (1, -1), cells, "generic")
        assert cells[((1, -1), (1, -1))]["verified"] is False

    def test_table_json_and_markdown(self):
        art = verify_table(instantiate("siegel", (1,)), 2, 5)
        data = art.to_json()
        assert data["verified"] is True
        md = art.to_markdown()
        assert md.startswith("#") and "|" in md


class TestHermQuat:
    def test_identity(self):
        for n in (1, 2):
            assert hermquat_check(n)

    def test_identity_fails_with_i_for_j(self, monkeypatch):
        """i Herm(n,H) is not Aherm(n,H~): multiplying by i where the check
        multiplies by j must give False."""
        i, j = quaternion(0, 1), quaternion(0, 0, 1)
        scalar_mul = Matrix.scalar_mul
        monkeypatch.setattr(Matrix, "scalar_mul",
                            lambda m, s: scalar_mul(m, i if s == j else s))
        for n in (1, 2):
            assert not hermquat_check(n)

    def test_hermitian_dims(self):
        for n in (1, 2, 3):
            assert herm_space(n, HQ, "qconj").dim == 2 * n * n - n
            assert herm_space(n, HQ, "qsplit").dim == 2 * n * n + n
