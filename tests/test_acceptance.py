"""Acceptance gate: the ten exact verification criteria.

Each test prints one pass/fail line.  All arithmetic is exact (rational /
Gaussian-rational / rational-quaternion); there are no tolerances anywhere.

The full-family LTS sweep (criterion 1) covers every catalog label over the
size grid p, q, n in {1, 2, 3}: all 264 (family, sizes) cases, carrier
dimensions up to 42, none skipped.  LT1/LT2 are verified exhaustively over
all basis triples and LT3 on a basis of the inner operators over a
determining set of triples, which is O(dim^5) work per parameter.
"""

import json
import random
from fractions import Fraction

from structure_reference import reference_rref

from homotopes.cli import main as cli_main
from homotopes.families import (CONSTRUCTIONS, SIGNS, asym_space, family,
                                family_axiom_suite, family_labels, herm_space,
                                hermquat_check, instantiate, matrix_space,
                                rand_invertible, rand_matrix,
                                sample_in_subspace, sym_space, verify_table)
from homotopes.groups import (group_axiom_suite, rand_symmetric_invertible,
                              tangent_suite, u_linearization_check,
                              unitary_suite)
from homotopes.homotope import (check_closure, gamma_intertwines,
                                hom_sxt_check, triple_param)
from homotopes.involutions import MatrixInvolution, joint_eigenspaces
from homotopes.matrices import Matrix
from homotopes.normalforms import intertwiner_check, normal_form
from homotopes.scalars import HQ, Q, QI, Scalar, ring_components

SEED = 42


def report(num, name, ok):
    print(f"\ncriterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}", flush=True)
    return ok


def size_grid(desc):
    if desc.sizes == "pq":
        return [(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]
    return [(1,), (2,), (3,)]


def test_criterion_1_lts_axiom_suite():
    failures = []
    checked = 0
    labels = family_labels()
    for label in labels:
        desc = family(label)
        for sizes in size_grid(desc):
            checked += 1
            rep = family_axiom_suite(label, sizes, 20, SEED)
            if not rep["pass"]:
                failures.append((label, sizes))
    ok = report(1, f"LTS axioms (closure, LT1-LT3) for {len(labels)} families at sizes 1-3: "
                   f"{checked} (family, sizes) cases checked with 20 seeded parameters each, 0 skipped",
                not failures)
    assert ok, failures


def _action_rows(tau):
    n, ring = tau.n, tau.ring
    dim = n * n * ring_components(ring)
    cols = []
    for idx in range(dim):
        vec = [Fraction(0)] * dim
        vec[idx] = Fraction(1)
        cols.append(list(tau(Matrix.unflatten((n, n, ring), vec)).flatten()))
    return [[cols[c][r] for c in range(dim)] for r in range(dim)]


def _oracle_dims(taus, signs):
    rows, dim = [], None
    for tau, s in zip(taus, signs):
        act = _action_rows(tau)
        dim = len(act)
        for r in range(dim):
            row = list(act[r])
            row[r] -= Fraction(s)
            rows.append(row)
    return dim - len(reference_rref(rows)[0])


def test_criterion_2_eigenspace_decompositions():
    cases = ([("proj", (p, q)) for p in (1, 2, 3) for q in (1, 2, 3) if p + q <= 4]
             + [("siegel", (n,)) for n in (1, 2)]
             + [("quat1", (n,)) for n in (1, 2)]
             + [("quat2", (n,)) for n in (1, 2)])
    ok = True
    for name, sizes in cases:
        c = instantiate(name, sizes)
        if not c.decomposition.check_direct_sum():
            ok = False
        for signs in SIGNS:
            if c.piece(signs).dim != _oracle_dims([c.tau, c.tau_tilde], signs):
                ok = False
        if c.validate_models():
            ok = False
    q2 = instantiate("quat2", (1,))
    dims = [q2.dims()[s] for s in SIGNS]
    ok = ok and dims == [3, 1, 3, 1] and sum(dims) == 8
    assert report(2, "joint eigenspace decompositions, oracle dims and "
                     "model bijections (quat2(1) dims (3,1,3,1))", ok)


def test_criterion_3_stability():
    rng = random.Random(SEED)
    ok = True
    # one involution: both eigenspaces stable whenever A sits in either one
    tau = MatrixInvolution.transpose_inv(3, Q)
    dec1 = joint_eigenspaces([tau])
    for psigns in ((1,), (-1,)):
        a = sample_in_subspace(dec1.piece(psigns), rng)
        for s in ((1,), (-1,)):
            if not check_closure(dec1.piece(s),
                                 lambda x, y, z: triple_param(x, y, z, a)):
                ok = False
    # two involutions: all four joint eigenspaces stable, A in any one piece
    for name, sizes in [("proj", (1, 2)), ("siegel", (2,)),
                        ("quat1", (2,)), ("quat2", (1,))]:
        c = instantiate(name, sizes)
        for psigns in SIGNS:
            if c.piece(psigns).dim == 0:
                continue
            a = sample_in_subspace(c.piece(psigns), rng)
            for s in SIGNS:
                if not check_closure(c.piece(s),
                                     lambda x, y, z: triple_param(x, y, z, a)):
                    ok = False
    assert report(3, "eigenspace stability under the deformed triple product, "
                     "exhaustive over basis triples", ok)


def test_criterion_4_two_involution_tables(tmp_path):
    ok = True
    cli_args = {"proj": ["--p", "1", "--q", "2"], "siegel": ["--n", "2"],
                "quat1": ["--n", "2"], "quat2": ["--n", "1"]}
    sizes = {"proj": (1, 2), "siegel": (2,), "quat1": (2,), "quat2": (1,)}
    for name in CONSTRUCTIONS:
        art = verify_table(instantiate(name, sizes[name]), 3, SEED)
        if not (art.verified and len(art.cells) == 16):
            ok = False
        out = tmp_path / f"{name}.json"
        code = cli_main(["table", "--construction", name, *cli_args[name],
                         "--samples", "3", "--seed", str(SEED),
                         "--out", str(out)])
        if code != 0:
            ok = False
    assert report(4, "all 16 cells of all four construction tables verify; "
                     "CLI `table` exits 0 for each", ok)


def test_criterion_5_scaling_and_c_duality():
    rng = random.Random(SEED)
    ok = True
    i_unit = Scalar(QI, (0, 1))
    for _ in range(10):
        x, y, z, a = (rand_matrix(2, 2, QI, rng) for _ in range(4))
        base = triple_param(x, y, z, a)
        for r in (Fraction(-1), Fraction(2), Fraction(1, 3)):
            if triple_param(x, y, z, a.scale(r)) != base.scale(r * r):
                ok = False
        if triple_param(x, y, z, a.scale(Fraction(-1))) != base:
            ok = False
        if triple_param(x, y, z, a.scalar_mul(i_unit)) != -base:
            ok = False
    assert report(5, "scaling law [X,Y,Z]_{rA} = r^2 [X,Y,Z]_A, A ~ -A, "
                     "and iA negates the product", ok)


def test_criterion_6_homomorphisms_and_gamma():
    rng = random.Random(SEED)
    ok = True
    for n in (1, 2, 3):
        for _ in range(50):
            s, t, a, x, y = (rand_matrix(n, n, Q, rng) for _ in range(5))
            if not hom_sxt_check(s, t, a, x, y):
                ok = False
    # Gamma action: conjugate parameters give isomorphic structures
    for n in (2, 3):
        tau = MatrixInvolution.transpose_inv(n, Q)
        dec = joint_eigenspaces([tau])
        for psigns in ((1,), (-1,)):
            a = sample_in_subspace(dec.piece(psigns), rng)
            g = rand_invertible(n, Q, rng)
            if not gamma_intertwines(g, a, tau, matrix_space(n, n, Q)):
                ok = False
    # A^3 = A makes X -> AXA an endomorphism of the deformed algebra
    for a in (Matrix.elementary(2, 2, 0, 0, Q), Matrix.diag(Q, [1, -1, 0])):
        n = a.rows
        for _ in range(10):
            x, y = (rand_matrix(n, n, Q, rng) for _ in range(2))
            if not hom_sxt_check(a, a, a, x, y):
                ok = False
    assert report(6, "S[X,Y]_{TAS}T intertwining (50 random tuples per size), "
                     "Gamma-action isomorphisms, A^3=A endomorphism", ok)


def test_criterion_7_groups():
    ok = True
    for n in (1, 2, 3):
        if not group_axiom_suite(n, n, Q, 20, SEED)["pass"]:
            ok = False
        if not tangent_suite(n, n, Q, 20, SEED)["pass"]:
            ok = False
    if not group_axiom_suite(1, 2, QI, 20, SEED)["pass"]:
        ok = False
    if not group_axiom_suite(2, 1, HQ, 10, SEED)["pass"]:
        ok = False
    for n, ring, delta in [(2, Q, "id"), (3, Q, "id"), (2, QI, "conj"),
                           (3, QI, "conj"), (2, HQ, "qconj"), (2, HQ, "qsplit")]:
        if not unitary_suite(n, ring, delta, 20, SEED)["pass"]:
            ok = False
    rng = random.Random(SEED)
    for delta, ring in [("id", Q), ("conj", QI), ("qconj", HQ)]:
        for n in (2, 3):
            a = rand_symmetric_invertible(n, ring, delta, rng)
            x = rand_matrix(n, n, ring, rng)
            if not u_linearization_check(x, a, delta):
                ok = False
    assert report(7, "group axioms for G_A/U_A/S_A, 1-AX homomorphism, "
                     "tangent brackets and U-membership linearization", ok)


def test_criterion_8_hermquat():
    ok = all(hermquat_check(n) for n in (1, 2, 3))
    assert report(8, "j-multiplication identities between the two "
                     "quaternionic hermitian types, n = 1, 2, 3", ok)


def test_criterion_9_normal_forms():
    rng = random.Random(SEED)
    ok = True
    for idx in range(20):
        if idx == 0:
            a = Matrix.zeros(2, 3, Q)
        elif idx == 1:
            a = rand_matrix(2, 1, Q, rng) @ rand_matrix(1, 3, Q, rng)
        else:
            a = rand_matrix(2, 3, Q if idx % 2 else QI, rng)
        nf = normal_form(a, "rectangular")
        if not (nf.verified and intertwiner_check(nf, matrix_space(3, 2, a.ring))):
            ok = False
    for kind, space, delta in [("symmetric", sym_space(3, Q), "id"),
                               ("skew", asym_space(4, Q), "id"),
                               ("hermitian", herm_space(2, QI, "conj"), "conj")]:
        for idx in range(20):
            if idx == 0:
                a = Matrix.zeros(space.ambient[0], space.ambient[0], space.ambient[2])
            else:
                a = sample_in_subspace(space, rng)
            nf = normal_form(a, kind)
            if not (nf.verified and intertwiner_check(nf, space)):
                ok = False
    assert report(9, "normal forms with exact witnesses; the witness "
                     "intertwines the deformed triple systems", ok)


def test_criterion_10_cli_determinism(tmp_path):
    runs = [
        ["axioms", "--family", "1.3.a", "--p", "2", "--q", "1", "--samples", "5"],
        ["table", "--construction", "quat2", "--n", "1", "--samples", "3"],
        ["eigenspaces", "--construction", "siegel", "--n", "2"],
        ["group", "--check", "axioms", "--n", "2", "--samples", "5"],
        ["list-families"],
    ]
    ok = True
    for idx, argv in enumerate(runs):
        texts = []
        for rep in range(2):
            out = tmp_path / f"run{idx}_{rep}.json"
            extra = [] if argv[0] in ("list-families", "eigenspaces") else ["--seed", str(SEED)]
            code = cli_main(argv + extra + ["--out", str(out)])
            if code != 0:
                ok = False
            texts.append(out.read_bytes())
        if texts[0] != texts[1]:
            ok = False
    assert report(10, "CLI determinism: identical seeds give byte-identical "
                      "JSON for every subcommand", ok)
