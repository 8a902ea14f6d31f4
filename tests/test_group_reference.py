"""Differential tests of the group suites, which evaluate each identity once
over the stack of their samples, against the same suites one sample at a
time (``structure_reference``): byte-identical JSON over Q, Q(i) and the
quaternions, at the sizes of criterion 7, with every base involution as the
delta of the unitary suite, and on known-false inputs (a monkeypatched group
operation), where both must fail on the same samples."""

import json

import pytest
from structure_reference import (reference_group_axiom_suite, reference_tangent_suite,
                                 reference_unitary_suite)

from homotopes import groups
from homotopes.scalars import CONJ_SIGNS, HQ, Q, QI

SEEDS = range(5)

# (p, q, ring, samples): criterion 7's group and tangent suites, and the
# tangent suite over Q(i) and the quaternions
GROUP_CASES = [(1, 1, Q, 20), (2, 2, Q, 20), (3, 3, Q, 20), (1, 2, QI, 20), (2, 1, HQ, 10)]
TANGENT_CASES = [(1, 1, Q, 20), (2, 2, Q, 20), (3, 3, Q, 20), (2, 1, QI, 10), (1, 1, HQ, 10)]
# (n, ring, delta, samples): criterion 7's sizes, with every delta of each
# ring that gives an antiautomorphism X -> delta(X)^t.  Over the quaternions,
# "id" and "phi" are automorphisms, so the suite rejects them
# (``test_unitary_suite_rejects_the_hq_automorphisms``).
ALL_UNITARY_CASES = [(n, ring, delta, 20 if n < 3 else 10)
                     for ring, delta in CONJ_SIGNS for n in ((2, 3) if ring in (Q, QI) else (1, 2))]
NO_STAR_CASES = [args for args in ALL_UNITARY_CASES if args[1] == HQ and args[2] in ("id", "phi")]
UNITARY_CASES = [args for args in ALL_UNITARY_CASES if args not in NO_STAR_CASES]

def _json(report) -> str:
    return json.dumps(report)


def _assert_same(suite, reference, args, seed):
    assert _json(suite(*args, seed)) == _json(reference(*args, seed))


@pytest.mark.parametrize("args", GROUP_CASES, ids=str)
def test_group_axiom_suite_matches_reference(args):
    for seed in SEEDS:
        _assert_same(groups.group_axiom_suite, reference_group_axiom_suite, args, seed)


@pytest.mark.parametrize("args", TANGENT_CASES, ids=str)
def test_tangent_suite_matches_reference(args):
    for seed in SEEDS:
        _assert_same(groups.tangent_suite, reference_tangent_suite, args, seed)


@pytest.mark.parametrize("args", UNITARY_CASES, ids=str)
def test_unitary_suite_matches_reference(args):
    for seed in SEEDS:
        _assert_same(groups.unitary_suite, reference_unitary_suite, args, seed)


@pytest.mark.parametrize("args", NO_STAR_CASES, ids=str)
def test_unitary_suite_rejects_the_hq_automorphisms(args):
    """Known false: no U_A for a delta that is no antiautomorphism.  At
    n = 1 the "id"-skew quaternions are all 0, so a sampler would draw an
    invertible skew parameter forever; the suite raises before it draws."""
    with pytest.raises(ValueError, match="no antiautomorphism"):
        groups.unitary_suite(*args, 0)


def _failing_samples(report) -> list:
    return [r["sample"] for r in report["results"] if not r["pass"]]


def test_wrong_product_fails_on_the_same_samples(monkeypatch):
    """Known false: X *_A Y with the product reversed, X + Y - YAX, is the
    opposite group law, so identity, inverses and associativity still hold,
    but 1 - A(X * Y) = (1 - AX)(1 - AY) fails wherever AX and AY do not
    commute: never at the first sample, whose A is 0, and at 23 of the 25
    others here."""
    monkeypatch.setattr(groups, "g_mul", lambda x, y, a: x + y - y @ a @ x)
    failing = []
    for seed in SEEDS:
        report = groups.group_axiom_suite(2, 2, Q, 6, seed)
        assert _json(report) == _json(reference_group_axiom_suite(2, 2, Q, 6, seed))
        failing += _failing_samples(report)
        assert all(r["checks"]["identity"] and r["checks"]["associativity"]
                   and r["pass"] == r["checks"]["hom_1_minus_AX"] for r in report["results"])
    assert len(failing) == 23 and 0 not in failing


def test_wrong_inverse_fails_on_the_same_samples(monkeypatch):
    """Known false: j_A(X) with its sign dropped, (1 - XA)^{-1} X, leaves a
    nonzero linear term in the commutator of tX and sY."""
    monkeypatch.setattr(groups, "g_inv", lambda x, a: groups.quasi_inverse_witness(x, a) @ x)
    for ring in (Q, QI):
        report = groups.tangent_suite(2, 2, ring, 4, 3)
        assert _json(report) == _json(reference_tangent_suite(2, 2, ring, 4, 3))
        assert _failing_samples(report) == [0, 1, 2, 3]


def test_wrong_unitary_defect_fails_on_the_same_samples(monkeypatch):
    """Known false: with the unitary defect replaced by star(X) - X, the
    Cayley points are no members, while the symplectic kind, which reads
    ``s_defect``, still passes."""
    monkeypatch.setattr(groups, "u_defect", lambda x, a, star: star(x) - x)
    for seed in SEEDS:
        report = groups.unitary_suite(2, QI, "conj", 4, seed)
        assert _json(report) == _json(reference_unitary_suite(2, QI, "conj", 4, seed))
        u, s = report["results"]
        assert not u["membership"] and not u["pass"] and s["pass"]
