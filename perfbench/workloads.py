"""The benchmark's three workloads.

Each workload turns ``--seed`` into a fixed list of cases.  A case is one
public top-level call into homotopes (one suite call, one check, or one CLI
invocation) and returns ``(verdict, output bytes)``: the verdict must be a
pass, and the bytes are digested to check the output does not change.  The
program sees only the generated inputs, which each case also keeps as text.

Building the case list is the workload's set-up: it generates the inputs
with homotopes' own seeded samplers and fills the ``lru_cache`` carrier
spaces the cases use.  ``cli-tables`` fills none: a CLI user pays for them
on every call.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import Callable, NamedTuple


class Case(NamedTuple):
    id: str
    run: Callable[[], tuple]
    inputs: str  # the generated inputs, as text


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str).encode()


def _seeds(seed: int, tag: str):
    """A stream of case seeds for one input family of one workload seed."""
    rng = random.Random(f"{tag}:{seed}")
    while True:
        yield rng.randrange(2**31)


# -- lts-sweep ---------------------------------------------------------------

# (label, sizes): Q, Q(i) and HQ; plain and polarized families; carrier
# dimensions 4 to 24.  The order is by time, slowest first, so a pass's
# one-time allocator and BLAS warm-up falls on the slow cases.  The time
# classes are sized so the pooled percentiles land inside a class, not on the
# gap between two (3 passes, 75 samples):
# - 7 HQ cases of dimension 20 to 24 (two at 24) hold case_tail_ms (p75);
# - 1.3.a'(2, 2) and 1.3.b(2, 2) put the echelon on its Python-int path;
# - 10 cases of 70-170 ms, across all three rings, hold case_p50_ms;
# - 6 small cases, down to dimension 4.
# The 1.3 families at d = 24 are left out: 1.3.a, 1.3.a' and 1.3.c at (3, 2)
# each take 1-4 s depending on the parameter draw, so any one of them would
# set the seed-to-seed spread of the whole sweep.
LTS_CASES = [
    ("2.2.b", (3,)), ("pol2-2.2", (1, 3)), ("pol2-3.1", (2, 3)), ("pol2-2.2", (3, 1)),
    ("pol2-3.1", (3, 2)), ("2.2.b'", (3,)), ("pol1-2.2", (2,)),
    ("1.3.a'", (2, 2)), ("1.3.b", (2, 2)),
    ("pol2-3.1", (2, 2)), ("pol1-3.1", (2,)), ("pol2-1.1", (2, 3)), ("pol2-2.2", (1, 2)),
    ("2.A", (3,)), ("pol1-2", (3,)), ("1.A", (2, 3)), ("1.3.b", (1, 3)), ("1.1.b'", (3,)),
    ("2.2.a", (2,)),
    ("pol1-1.1", (2,)), ("1.3.c", (1, 2)), ("pol1-1.a", (2, 2)), ("2.b", (3,)),
    ("1.1.a", (2,)), ("1.a", (2, 2)),
]
# zero, three low-rank and one generic parameter: the suite's own schedule
LTS_SAMPLES = 5


def lts_sweep(seed: int, out_dir: str):
    from homotopes import families

    seeds = _seeds(seed, "lts-sweep")
    cases = []
    for label, sizes in LTS_CASES:
        families.family(label).space(sizes)
        case_seed = next(seeds)

        def run(label=label, sizes=sizes, case_seed=case_seed):
            report = families.family_axiom_suite(label, sizes, LTS_SAMPLES, case_seed)
            return report["pass"], _dump(report)

        cases.append(Case(f"{label}{list(sizes)}", run,
                          f"{label} {sizes} samples={LTS_SAMPLES} seed={case_seed}"))
    return cases


# -- exact-identities --------------------------------------------------------


def exact_identities(seed: int, out_dir: str):
    from homotopes import families, groups, homotope, normalforms
    from homotopes.involutions import MatrixInvolution, joint_eigenspaces
    from homotopes.matrices import Matrix
    from homotopes.scalars import HQ, Q, QI, Scalar

    rng = random.Random(f"exact-identities:{seed}")
    seeds = _seeds(seed, "exact-identities")
    rand_matrix, sample = families.rand_matrix, families.sample_in_subspace
    triple = homotope.triple_param
    cases = []

    def add(case_id, fn, *inputs):
        def run():
            verdict = fn()
            return verdict, _dump(verdict)
        cases.append(Case(case_id, run, " ".join(map(repr, inputs))))

    # criterion 3: closure of eigenspace pieces under a generic (lambda) product
    pieces = []
    for n, spaces in ((3, [(-1,)]), (2, [(1,), (-1,)])):
        dec = joint_eigenspaces([MatrixInvolution.transpose_inv(n, Q)])
        pieces += [(f"tau{n}", dec, ((1,), (-1,)), spaces)]
    for name, sizes in (("proj", (1, 2)), ("quat2", (1,))):
        c = families.instantiate(name, sizes)
        live = [s for s in families.SIGNS if c.piece(s).dim]
        pieces += [(f"{name}{list(sizes)}", c.decomposition, live, None)]
    for tag, dec, params, spaces in pieces:
        for ps in params:
            a = sample(dec.piece(ps), rng)
            for s in spaces or [ps]:
                add(f"closure/{tag}/A{ps}/S{s}",
                    lambda space=dec.piece(s), a=a: homotope.check_closure(
                        space, lambda x, y, z: triple(x, y, z, a)), a)

    # criterion 6: S [X, Y]_{TAS} T intertwining, and the A^3 = A endomorphism
    for n in (1, 2, 3):
        for i in range(8):
            s, t, a, x, y = (rand_matrix(n, n, Q, rng) for _ in range(5))
            add(f"hom_sxt/n{n}/{i}", lambda s=s, t=t, a=a, x=x, y=y:
                homotope.hom_sxt_check(s, t, a, x, y), s, t, a, x, y)
    for a in (Matrix.elementary(2, 2, 0, 0, Q), Matrix.diag(Q, [1, -1, 0])):
        for i in range(4):
            x, y = (rand_matrix(a.rows, a.rows, Q, rng) for _ in range(2))
            add(f"hom_sxt/A3=A/n{a.rows}/{i}", lambda a=a, x=x, y=y:
                homotope.hom_sxt_check(a, a, a, x, y), a, x, y)

    # criterion 6: the Gamma action intertwines the deformed triple products
    tau = MatrixInvolution.transpose_inv(2, Q)
    dec = joint_eigenspaces([tau])
    for ps in ((1,), (-1,)):
        for space_name, space in (("M", families.matrix_space(2, 2, Q)),
                                  ("Sym", families.sym_space(2, Q))):
            a = sample(dec.piece(ps), rng)
            g = families.rand_invertible(2, Q, rng)
            add(f"gamma/A{ps}/{space_name}", lambda g=g, a=a, space=space:
                homotope.gamma_intertwines(g, a, tau, space), g, a)

    # criterion 5: Q(i) scaling laws
    i_unit = Scalar(QI, (0, 1))
    for i in range(8):
        x, y, z, a = (rand_matrix(2, 2, QI, rng) for _ in range(4))

        def scaling(x=x, y=y, z=z, a=a):
            base = triple(x, y, z, a)
            ok = all(triple(x, y, z, a.scale(r)) == base.scale(r * r)
                     for r in (Fraction(-1), Fraction(2), Fraction(1, 3)))
            return ok and triple(x, y, z, a.scalar_mul(i_unit)) == -base

        add(f"scaling/QI/{i}", scaling, x, y, z, a)

    # criterion 7: group suites over Q, Q(i) and HQ
    def suite(case_id, fn, *args):
        case_seed = next(seeds)

        def run():
            report = fn(*args, 5, case_seed)
            return report["pass"], _dump(report)
        cases.append(Case(case_id, run, f"{fn.__name__}{args} samples=5 seed={case_seed}"))

    for p, q, ring in ((1, 1, Q), (2, 2, Q), (3, 3, Q), (1, 2, QI), (2, 1, HQ)):
        suite(f"group_axioms/{ring}{p}x{q}", groups.group_axiom_suite, p, q, ring)
    for p, ring in ((1, Q), (2, Q), (3, Q), (2, QI), (1, HQ)):
        suite(f"tangent/{ring}{p}", groups.tangent_suite, p, p, ring)
    for n, ring, delta in ((2, Q, "id"), (3, Q, "id"), (2, QI, "conj"),
                           (2, HQ, "qconj"), (2, HQ, "qsplit")):
        suite(f"unitary/{ring}{n}/{delta}", groups.unitary_suite, n, ring, delta)

    # criterion 9: normal forms and their intertwiner witnesses
    def normal(case_id, a, kind, space):
        def run():
            nf = normalforms.normal_form(a, kind)
            ok = nf.verified and normalforms.intertwiner_check(nf, space)
            return ok, _dump([nf.to_json(), ok])
        cases.append(Case(case_id, run, f"{kind} {a!r}"))

    # A generic 2x3 Q(i) input takes intertwiner_check's Fraction fallback in
    # about one draw in eight, at ~20 s instead of ~30 ms: a seed-dependent
    # cliff that would swamp the rest of the pass.  Q(i) enters rank-one here.
    rect = [Matrix.zeros(2, 3, Q), rand_matrix(2, 1, Q, rng) @ rand_matrix(1, 3, Q, rng),
            rand_matrix(2, 3, Q, rng), rand_matrix(2, 1, QI, rng) @ rand_matrix(1, 3, QI, rng)]
    for i, a in enumerate(rect):
        normal(f"normal_form/rectangular/{i}", a, "rectangular",
               families.matrix_space(3, 2, a.ring))
    for kind, space in (("symmetric", families.sym_space(3, Q)),
                        ("skew", families.asym_space(4, Q)),
                        ("hermitian", families.herm_space(2, QI, "conj"))):
        for i in range(3):
            normal(f"normal_form/{kind}/{i}", sample(space, rng), kind, space)
    return cases


# -- cli-tables --------------------------------------------------------------

# 23 cases in 3 passes: p75 lands on the fastest of the six table/eigenspaces
# cases that take over a second, p50 on the middle sample of the middle case.
# One size above acceptance criterion 4 for every construction:
TABLE_SIZES = {"proj": ["--p", "2", "--q", "2"], "siegel": ["--n", "3"],
               "quat1": ["--n", "3"], "quat2": ["--n", "2"]}
# zero and one low-rank parameter per piece
TABLE_SAMPLES = "2"


def cli_tables(seed: int, out_dir: str):
    from homotopes import cli, families
    from homotopes.scalars import Q, QI

    seeds = _seeds(seed, "cli-tables")
    rng = random.Random(f"cli-tables:{seed}")
    runs = []
    for name, sizes in TABLE_SIZES.items():
        runs.append((f"table/{name}", ["table", "--construction", name, *sizes,
                                       "--samples", TABLE_SAMPLES, "--seed", str(next(seeds))]))
        runs.append((f"eigenspaces/{name}", ["eigenspaces", "--construction", name, *sizes]))
    for label, sizes in (("1.3.a", ["--p", "2", "--q", "1"]), ("1.1.a", ["--n", "2"]),
                         ("2.A", ["--n", "2"]), ("3.1.a", ["--n", "2"]),
                         ("pol1-1.a", ["--p", "1", "--q", "2"]), ("2.2.a", ["--n", "1"])):
        runs.append((f"axioms/{label}", ["axioms", "--family", label, *sizes,
                                         "--samples", "5", "--seed", str(next(seeds))]))
    for check in ("axioms", "tangent", "membership"):
        runs.append((f"group/{check}", ["group", "--check", check, "--n", "2",
                                        "--samples", "5", "--seed", str(next(seeds))]))
    inputs = (("symmetric", families.sample_in_subspace(families.sym_space(3, Q), rng)),
              ("rectangular", families.rand_matrix(2, 3, Q, rng)),
              ("skew", families.sample_in_subspace(families.asym_space(4, Q), rng)),
              ("hermitian", families.sample_in_subspace(families.herm_space(2, QI, "conj"), rng)))
    files = {}
    for kind, a in inputs:
        path = os.path.join(out_dir, f"input-{kind}.json")
        files[path] = json.dumps(a.to_json())
        with open(path, "w") as fh:
            fh.write(files[path])
        runs.append((f"normal-form/{kind}", ["normal-form", "--kind", kind, "--input", path]))
    runs.append(("list-families/json", ["list-families"]))
    runs.append(("list-families/md", ["list-families", "--format", "md"]))

    cases = []
    for idx, (case_id, argv) in enumerate(runs):
        out = os.path.join(out_dir, f"case{idx}.out")

        def run(argv=argv, out=out):
            code = cli.main(argv + ["--out", out])
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
            return code == 0, data

        text = " ".join(files.get(arg, arg) for arg in argv)
        cases.append(Case(case_id, run, text))
    return cases


WORKLOADS = {
    "lts-sweep": lts_sweep,
    "exact-identities": exact_identities,
    "cli-tables": cli_tables,
}
