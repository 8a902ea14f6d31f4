"""Mutation probe: does the Tier-1 suite notice a broken verdict?

Copies the repository (``src``, ``tests``, ``perfbench``, ``pyproject.toml``
and ``BENCHMARK.json``) into a temporary directory, applies one mutant at a time
(an exact text substitution that must match once), runs the Tier-1 tests
with ``-x`` and the long criterion-1 sweep deselected, restores the file,
and prints a kill table.  ``tests/test_mutants.py`` is left out too: it
reads this file, which the copy does not hold, to check its texts against
the unmutated source, so it fails in every run and would count any mutant
that reaches it as killed.
A mutant is killed when the suite fails (pytest exit 1), or when it runs
past ``TIMEOUT_S``.  Any other exit (2 interrupted, 3 internal error, 4 usage
error such as a ``first`` node id that does not resolve, 5 no tests) says
nothing about the mutant, so it stops the probe and names the mutant.
A mutant may name the tests that should kill it (``first``): those run
first, and only if they pass does the whole suite run; the table says which
run killed it.  That keeps a mutant that makes some earlier test loop for
long (a row pick that never spans, retried prime after prime) from holding
up the probe.  Standard library only; not part of Tier-1.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py fit conj   # the mutants whose name contains a word
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESELECT = "tests/test_acceptance.py::test_criterion_1_lts_axiom_suite"
IGNORE = "tests/test_mutants.py"
TIMEOUT_S = 1800


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    first: str = ""  # the tests to run before the whole suite


def _forced_true(name: str, path: str, signature: str, value: str = "True", first: str = "") -> Mutant:
    """The function with this ``def`` line returns ``value`` at once."""
    indent = " " * (len(signature) - len(signature.lstrip()) + 4)
    return Mutant(name, path, signature, f"{signature}\n{indent}return {value}", first)


MUTANTS = [
    # a forced True also breaks the stacked suites, which index one boolean
    # per sample; the known-false tests of one matrix run first
    _forced_true("groups.membership -> True", "src/homotopes/groups.py",
                 "def membership(x: Matrix, a: Matrix, kind: str, star=None, guess: Matrix | None = None) -> bool:",
                 first="tests/test_groups.py::TestKnownFalse::test_membership_rejects_a_nonzero_defect"),
    _forced_true("groups.hom_check -> True", "src/homotopes/groups.py",
                 "def hom_check(x: Matrix, y: Matrix, a: Matrix) -> bool:",
                 first="tests/test_groups.py::TestKnownFalse::test_hom_check_rejects_a_wrong_product"),
    _forced_true("groups.tangent_check -> True", "src/homotopes/groups.py",
                 "def tangent_check(x: Matrix, y: Matrix, a: Matrix):", "True, None",
                 "tests/test_groups.py::TestKnownFalse::test_tangent_check_rejects_a_wrong_inverse"),
    _forced_true("JointDecomposition.check_direct_sum -> True", "src/homotopes/involutions.py",
                 "    def check_direct_sum(self) -> bool:"),
    Mutant("direct sum without the span rank", "src/homotopes/involutions.py",
           " and first.sum(*rest).dim == total", ""),
    _forced_true("MatrixInvolution.commutes_with -> True", "src/homotopes/involutions.py",
                 '    def commutes_with(self, other: "MatrixInvolution") -> bool:'),
    _forced_true("validate_models returns []", "src/homotopes/families.py",
                 "    def validate_models(self):", "[]"),
    Mutant("table pair failures not recorded", "src/homotopes/families.py",
           '                    cell["failures"].append({"style": style, "pair": rec.failures})\n', "",
           "tests/test_families.py::TestTables::test_table_fails_on_swapped_pieces"),
    Mutant("proj middle splitting forced ok", "src/homotopes/families.py",
           "    ok = (bracket_closure(", "    ok = True or (bracket_closure("),
    Mutant("CONJ_SIGNS (QI, conj) second sign flipped", "src/homotopes/scalars.py",
           '(QI, "conj"): (1, -1),', '(QI, "conj"): (1, 1),'),
    # the ring tables: the differential product tests must see them
    Mutant("mult_tensor HQ ij sign flipped", "src/homotopes/scalars.py",
           "(1, 2): (3, 1),", "(1, 2): (3, -1),", "tests/test_matmul_reference.py"),
    Mutant("mult_tensor QI i^2 sign flipped", "src/homotopes/scalars.py",
           "t[1, 1, 0] = -1", "t[1, 1, 0] = 1", "tests/test_matmul_reference.py"),
    Mutant("series truncation < as <=", "src/homotopes/scalars.py",
           "if i + j < SERIES_DEGREE:", "if i + j <= SERIES_DEGREE:", "tests/test_scalars.py"),
    Mutant("Matrix canonicalisation dropped", "src/homotopes/matrices.py",
           "g = gcd(den, *vals)", "g = 1"),
    Mutant("fit ignores its bound", "src/homotopes/kernel.py",
           "    if bound >= FLOAT_EXACT_CAP:\n        return a if a.dtype == object",
           "    if False:\n        return a if a.dtype == object"),
    Mutant("fit ignores the float32 limit", "src/homotopes/kernel.py",
           "FLOAT32_EXACT_CAP = 2**24", "FLOAT32_EXACT_CAP = 2**53"),
    Mutant("LT3 bound without the factor 4", "src/homotopes/homotope.py",
           "    return 4 * top * rows", "    return top * rows"),
    Mutant("kernel._spans certificate skipped", "src/homotopes/kernel.py",
           "    k, (n, width) = len(picked), r.shape\n",
           "    return True\n"),
    Mutant("Subspace.contains_subspace -> True", "src/homotopes/matrices.py",
           "        _, member = self.flat_coordinates(other._int)\n"
           "        return bool(member.all())",
           "        return True"),
    Mutant("primed rows not negated", "src/homotopes/families.py",
           "product.negated() if self.label.endswith(\"'\") else product", "product"),
    _forced_true("normalforms._is_01_diagonal -> True", "src/homotopes/normalforms.py",
                 "def _is_01_diagonal(nf: Matrix, rank: int) -> bool:"),
    _forced_true("normalforms._is_reduced_diagonal -> True", "src/homotopes/normalforms.py",
                 "def _is_reduced_diagonal(nf: Matrix, signs: tuple) -> bool:"),
    _forced_true("normalforms._is_standard_skew -> True", "src/homotopes/normalforms.py",
                 "def _is_standard_skew(nf: Matrix, blocks: int) -> bool:"),
    # the verdicts of the LTS check and of the homomorphism checks
    _forced_true("bracket_closure -> True", "src/homotopes/homotope.py",
                 "def bracket_closure(left: Subspace, right: Subspace, target: Subspace, a: Matrix) -> bool:"),
    _forced_true("hom_sxt_check -> True", "src/homotopes/homotope.py",
                 "def hom_sxt_check(s: Matrix, t: Matrix, a: Matrix, x: Matrix, y: Matrix) -> bool:"),
    _forced_true("hermquat_check -> True", "src/homotopes/families.py", "def hermquat_check(n: int) -> bool:"),
    _forced_true("u_linearization_check -> True", "src/homotopes/groups.py",
                 "def u_linearization_check(x: Matrix, a: Matrix, delta: str) -> bool:"),
    _forced_true("intertwines -> True", "src/homotopes/homotope.py",
                 "def intertwines(psi: AlphaMap, space: Subspace, a_new: Matrix, a: Matrix) -> bool:"),
    _forced_true("gamma_intertwines -> True", "src/homotopes/homotope.py",
                 "def gamma_intertwines(g: Matrix, a: Matrix, tau, space: Subspace, phi=None) -> bool:"),
    Mutant("middle identity forced true", "src/homotopes/homotope.py",
           "        if kernel.equal(middle, middle_new).all():", "        if True:"),
    Mutant("middle identity on any AlphaMap", "src/homotopes/homotope.py",
           '    if psi.twist == "id" and not psi.transpose and psi.sign > 0:', "    if True:"),
    _forced_true("check_closure -> True", "src/homotopes/homotope.py", "def check_closure(space, product) -> bool:"),
    Mutant("LT1 dropped", "src/homotopes/homotope.py", "    lt1, lt2 = _lt1_lt2(st)",
           "    (_, lt2), lt1 = _lt1_lt2(st), None"),
    Mutant("LT2 dropped", "src/homotopes/homotope.py", "    lt1, lt2 = _lt1_lt2(st)",
           "    (lt1, _), lt2 = _lt1_lt2(st), None"),
    Mutant("LT3 dropped", "src/homotopes/homotope.py",
           "ok, witness, pairs = _check_lt3(st, lt1 is None, lt2 is None, basis)",
           "(_, _, pairs), ok, witness = _check_lt3(st, lt1 is None, lt2 is None, basis), True, None"),
    # LT1 and LT2 one block of slabs at a time
    Mutant("LT2 block missing its third term", "src/homotopes/homotope.py",
           "x[:, :, i:] + z + y[:, :, i:].swapaxes(1, 2)", "x[:, :, i:] + z", "tests/test_structure_reference.py"),
    Mutant("LT1 block reads j > i0 only", "src/homotopes/homotope.py",
           "lt1 = _first_nonzero_triple(x + y, (i, i, 0))",
           "lt1 = _first_nonzero_triple((x + y)[:, 1:], (i, i + 1, 0))", "tests/test_structure_reference.py"),
    Mutant("LT2 block reads k > i0 only", "src/homotopes/homotope.py",
           "lt2 = _first_nonzero_triple(x[:, :, i:] + z + y[:, :, i:].swapaxes(1, 2), (i, i, i))",
           "lt2 = _first_nonzero_triple((x[:, :, i:] + z + y[:, :, i:].swapaxes(1, 2))[:, :, 1:], (i, i, i + 1))",
           "tests/test_structure_reference.py"),
    Mutant("LT1/LT2 block loop skips i = 0", "src/homotopes/homotope.py",
           "    for i in range(0, d, step):", "    for i in range(1, d, step):", "tests/test_structure_reference.py"),
    Mutant("LT1/LT2 block drops its last slab", "src/homotopes/homotope.py",
           "block = slice(i, i + step)", "block = slice(i, i + step - 1)", "tests/test_structure_reference.py"),
    Mutant("hook uses k < j instead of k <= j", "src/homotopes/homotope.py",
           "min(j, hi) if hook else d, j + 1 if hook else d, res, term)",
           "min(j, hi) if hook else d, j if hook else d, res, term)"),
    Mutant("last operator chunk skipped", "src/homotopes/homotope.py",
           "for t0 in range(0, len(ops), d or 1):", "for t0 in range(0, len(ops), d or 1)[:-1]:"),
    Mutant("standard_imbedding forced ok", "src/homotopes/homotope.py",
           "StandardImbedding(system, basis, len(basis), system.dim, report.ok)",
           "StandardImbedding(system, basis, len(basis), system.dim, True)"),
    Mutant("LT3 rescan skips the first nonzero operator", "src/homotopes/homotope.py",
           "live = np.flatnonzero(ops.reshape(len(ops), d * d).any(axis=1))",
           "live = np.flatnonzero(ops.reshape(len(ops), d * d).any(axis=1))[1:]",
           "tests/test_structure_reference.py"),
    Mutant("batch scan returns at its first nonzero slab", "src/homotopes/homotope.py",
           "hits.append((hit[0], hit[1], j, hit[2]))", "return hit[0], (hit[1], j, hit[2])",
           "tests/test_structure_reference.py::test_lt3_scan_finishes_the_batch_of_its_first_nonzero_slab"),
    Mutant("standard_imbedding picks h behind the residual cover", "src/homotopes/homotope.py",
           "independent_row_indices(rows, None if basis else bound)", "independent_row_indices(rows, bound)",
           "tests/test_homotope.py tests/test_structure_reference.py"),
    Mutant("BLAS scope never restores the thread count", "src/homotopes/kernel.py",
           "    finally:\n        api[1](before)", "    finally:\n        pass"),
    # the graded structure of a polarized system and its LT3 hook
    Mutant("graded hook starts at j = s + 1", "src/homotopes/homotope.py",
           "lo, hi = (0, d) if split is None else (split, split)",
           "lo, hi = (0, d) if split is None else (split + 1, split)", "tests/test_structure_reference.py"),
    Mutant("graded hook stops i at s - 1", "src/homotopes/homotope.py",
           "lo, hi = (0, d) if split is None else (split, split)",
           "lo, hi = (0, d) if split is None else (split, split - 1)", "tests/test_structure_reference.py"),
    # the products and coordinates of both mirrors come from one scatter
    Mutant("mirrored block [M, P, P] left zero", "src/homotopes/homotope.py",
           "out[own, other, own, cols], out[other, own, own, cols] = v.a, -v.a.swapaxes(0, 1)",
           "out[own, other, own, cols] = v.a\n"
           "        if v is vm:\n"
           "            out[other, own, own, cols] = -v.a.swapaxes(0, 1)",
           "tests/test_structure_reference.py"),
    Mutant("plus block member forced True", "src/homotopes/homotope.py",
           "            c, m = grade.flat_coordinates(flat)\n",
           "            c, m = grade.flat_coordinates(flat)\n            m = m | (grade is space.plus)\n",
           "tests/test_structure_reference.py"),
    # a polarized structure checked on its two blocks
    Mutant("block LT2 compares swapaxes(0, 1)", "src/homotopes/homotope.py",
           "np.array_equal(b.flat.a, b.flat.a.swapaxes(0, 2))", "np.array_equal(b.flat.a, b.flat.a.swapaxes(0, 1))",
           "tests/test_structure_reference.py"),
    Mutant("LT3 bound reads one grade only", "src/homotopes/homotope.py",
           "_lt3_bound(*([b.coords for b in st.blocks] if st.blocks", "_lt3_bound(*([st.blocks[0].coords] if st.blocks",
           "tests/test_structure_reference.py"),
    Mutant("lazy flat omits the negated [other, own, own] block", "src/homotopes/homotope.py",
           "out[own, other, own, cols], out[other, own, own, cols] = v.a, -v.a.swapaxes(0, 1)",
           "out[own, other, own, cols] = v.a", "tests/test_structure_reference.py"),
    # a plain structure kept on its half i < j
    Mutant("half scatter without the negation", "src/homotopes/homotope.py",
           "out[iu, ju], out[ju, iu] = vp.a, -vp.a", "out[iu, ju], out[ju, iu] = vp.a, vp.a",
           "tests/test_structure_reference.py"),
    Mutant("half pairs include i = j", "src/homotopes/kernel.py",
           "np.arange(d)[:, None] < np.arange(d)", "np.arange(d)[:, None] <= np.arange(d)",
           "tests/test_matmul_reference.py"),
    # swapping any two axes of coordinates antisymmetric in the first two
    # negates every LT2 sum, which leaves the verdict and the witness as they
    # are: that mutant cannot be killed, so the plain LT2 mutant reads the
    # LT1 witness instead, which LT1 makes None
    Mutant("plain LT2 on coordinates takes the LT1 witness", "src/homotopes/homotope.py",
           "return None, _lt1_lt2_witnesses(st.coords)[1]", "return None, _lt1_lt2_witnesses(st.coords)[0]",
           "tests/test_structure_reference.py"),
    Mutant("dense coordinates skip the last pair", "src/homotopes/homotope.py",
           "Structure(None, _dense(c), True,", "Structure(None, _dense(c._same(np.concatenate([c.a[:-1], 0 * c.a[-1:]]))), True,",
           "tests/test_structure_reference.py"),
    Mutant("coordinates member flag forced all-True", "src/homotopes/kernel.py",
           "    member = np.all(v * basis.den == coords @ fit(basis.a, bound), axis=-1)\n",
           "    member = np.ones(v.shape[:-1], dtype=bool)\n"),
    # the row pick and its certificate
    # a kept zero-pivot prime can make every later pick fail the same way, so
    # the hypothesis tests before the targeted one may loop for many minutes
    Mutant("inverse keeps a prime with a zero pivot", "src/homotopes/kernel.py",
           "        ok &= pivot != 0\n", "",
           "tests/test_row_selection.py::test_certificate_skips_a_prime_with_a_zero_pivot"),
    Mutant("certificate checks the pick prime again", "src/homotopes/kernel.py",
           "primes, covered = (q for q in _primes_below(limit) if q != p), p",
           "primes, covered = _primes_below(limit), p", "tests/test_row_selection.py"),
    Mutant("pick block steps past a row", "src/homotopes/kernel.py",
           "            i += PICK_BLOCK\n", "            i += PICK_BLOCK + 1\n", "tests/test_row_selection.py"),
    Mutant("Hadamard bound with the square left out", "src/homotopes/kernel.py",
           "bound = 2 * (k * k * b * b * h + b * h)", "bound = 2 * (k * k * b * h + b * h)",
           "tests/test_row_selection.py"),
    # the LT3 pick certified up to the residual bound
    Mutant("LT3 cover ignored: the pick accepted at once", "src/homotopes/kernel.py",
           "or (cover is not None and p > cover):", "or cover is not None:",
           "tests/test_row_selection.py tests/test_structure_reference.py"),
    Mutant("LT3 cover one prime short", "src/homotopes/kernel.py",
           "        bound = min(bound, cover)\n", "        bound = min(bound, cover // _modulus_limit(k))\n",
           "tests/test_row_selection.py tests/test_structure_reference.py"),
    # the symmetric pairs of one parameter, from one bracket tensor
    Mutant("[m,m] reuses the [h,h] verdict off the group type", "src/homotopes/homotope.py",
           "inside[minus_t] if group_type else bracket_closure(m, m, h, a)", "inside[minus_t]",
           "tests/test_structure_reference.py tests/test_families.py"),
    Mutant("bracket tensor block offset shifted by one", "src/homotopes/homotope.py",
           "        lo = 0\n", "        lo = 1\n", "tests/test_structure_reference.py tests/test_families.py"),
    Mutant("symmetric pairs without the direct-sum check", "src/homotopes/homotope.py",
           "    if not dec.check_direct_sum():\n", "    if False:\n",
           "tests/test_structure_reference.py::test_symmetric_pairs_reject_a_decomposition_that_is_not_direct"),
    Mutant("parameter membership check dropped", "src/homotopes/homotope.py",
           "    if not dec.piece(t).contains(a):\n"
           "        raise ValueError(\"parameter is not in its declared joint eigenspace\")\n", "",
           "tests/test_structure_reference.py tests/test_families.py"),
    Mutant("[m,m] membership forced True", "src/homotopes/homotope.py",
           "if group_type else bracket_closure(m, m, h, a))", "if group_type else True)",
           "tests/test_structure_reference.py tests/test_families.py"),
    # the modulus and prime window of the row pick, and LT3's residual bound
    Mutant("_modulus_limit with one factor of 2 dropped", "src/homotopes/kernel.py",
           "    return isqrt(2**52 >> terms.bit_length())", "    return isqrt(2**51 >> terms.bit_length())",
           "tests/test_row_selection.py::test_pick_prime_counts_once"),
    Mutant("_prime_window one prime short", "src/homotopes/kernel.py",
           "    return tuple((lo + np.flatnonzero(prime)[::-1]).tolist())",
           "    return tuple((lo + np.flatnonzero(prime)[::-1]).tolist()[:-1])",
           "tests/test_row_selection.py::test_primes_are_the_primes_below_the_limit"),
    Mutant("_lt3_bound with top for rows", "src/homotopes/homotope.py",
           "    return 4 * top * rows", "    return 4 * top * top", "tests/test_homotope.py"),
    Mutant("LT3 bound row sums in float64 past 2^53", "src/homotopes/homotope.py",
           "kernel.fit(mag, top * mag.shape[-1])",
           "kernel.fit(mag, top * mag.shape[-1] if mag.dtype == object else min(top * mag.shape[-1], 2**53 - 1))",
           "tests/test_homotope.py::test_lt3_bound_is_the_formula"),
    # products over Q as one plain GEMM, and the group suites over stacks
    Mutant("k = 1 product with its operands' matrix axes transposed", "src/homotopes/kernel.py",
           "        return (x[..., 0] @ y[..., 0])[..., None]",
           "        return (x[..., 0].swapaxes(-1, -2) @ y[..., 0].swapaxes(-1, -2))[..., None]",
           "tests/test_matmul_reference.py"),
    Mutant("stacked per-matrix equality forced all-True", "src/homotopes/kernel.py",
           "    return np.all(a == b, axis=(-3, -2, -1))",
           "    return np.ones(np.broadcast_shapes(x.a.shape[:-3], y.a.shape[:-3]), dtype=bool)",
           "tests/test_group_reference.py tests/test_matmul_reference.py"),
    # guessed inverses behind a one-product certificate, and the group-law guesses
    Mutant("guess accepted without its product check", "src/homotopes/matrices.py",
           "    ok = kernel.equal(x @ guess, Matrix.identity(n, x.ring))\n",
           "    ok = np.ones(x.a.shape[:-3], dtype=bool)[()]\n",
           "tests/test_exact_linalg.py::test_guessed_inverses_are_certified_per_matrix"),
    Mutant("product witness guessed as W_X W_Y", "src/homotopes/groups.py",
           "self.a, other.witness @ self.witness)", "self.a, self.witness @ other.witness)",
           "tests/test_groups.py::TestWitnesses"),
    # the one stacked rejection sampler of invertible draws
    Mutant("sampler keeps a rejected draw", "src/homotopes/families.py",
           "kept.append((m[ok], inv[ok]))", "kept.append((m, inv))",
           "tests/test_families.py::test_invertible_draws_keep_the_accepted_draws_in_order"),
    Mutant("sampler draws one more than it needs", "src/homotopes/families.py",
           "m = draw(need)", "m = draw(need + 1)",
           "tests/test_families.py::test_invertible_draws_keep_the_accepted_draws_in_order"),
    # a generic product: one call over the basis stacks, broadcast to (d, d, d)
    Mutant("generic product with the y and z stacks swapped", "src/homotopes/homotope.py",
           "self.fn(b[:, None, None], b[None, :, None], b[None, None, :])",
           "self.fn(b[:, None, None], b[None, None, :], b[None, :, None])",
           "tests/test_homotope.py tests/test_structure_reference.py"),
    Mutant("generic product not broadcast to (d, d, d)", "src/homotopes/homotope.py",
           "        return Arr(np.broadcast_to(out.a, (d, d, d) + out.a.shape[-1:]), out.den, out.bound, out.ring)",
           "        return out", "tests/test_homotope.py::TestGenericTriple"),
    # a vanishing product decided from its middle images
    Mutant("zero test reads only the first middle image", "src/homotopes/homotope.py",
           "        if middles.is_zero().all():\n", "        if middles[:1].is_zero().all():\n",
           "tests/test_structure_reference.py::test_one_nonzero_middle_image_keeps_the_dense_verdict"),
    Mutant("zero shortcut also fires on an unclosed structure", "src/homotopes/homotope.py",
           "    if st.vanishes:\n", "    if st.vanishes or not st.closed:\n", "tests/test_structure_reference.py"),
    # the one common-denominator rule and the one declared sandwich
    Mutant("common-denominator rule takes the smallest rescaled bound", "src/homotopes/kernel.py",
           "    bound = max([x.bound * (den // x.den) for x in xs])\n",
           "    bound = min([x.bound * (den // x.den) for x in xs])\n", "tests/test_tiers.py"),
    Mutant("AlphaMap.__call__ ignores its sign", "src/homotopes/kernel.py",
           "        return out if self.sign > 0 else -out\n", "        return out\n", "tests/test_homotope.py"),
    # guards
    Mutant("check_sizes accepts 0", "src/homotopes/families.py",
           "any(s < 1 for s in sizes)", "any(s < 0 for s in sizes)"),
    Mutant("float32 PrecisionError guard removed", "src/homotopes/kernel.py",
           "        cap = FLOAT32_EXACT_CAP if a.dtype == np.float32 else FLOAT_EXACT_CAP\n",
           "        cap = FLOAT_EXACT_CAP\n"),
]


def _copy_tree(dest: str):
    # tests/test_traced_surface.py loads the benchmark's tracer and reads the
    # probes BENCHMARK.json declares: without it that test fails under every
    # mutant, and a mutant that survives the tests before it counts as killed
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    for name in ("pyproject.toml", "BENCHMARK.json"):
        shutil.copy(os.path.join(ROOT, name), dest)


def _run_tests(cwd: str, tests: str = "") -> tuple:
    """(exit code, seconds, the failing test or else the summary line) of
    ``tests`` (the whole Tier-1 suite when empty) with -x; a run past
    ``TIMEOUT_S`` is stopped and fails."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               "--deselect", DESELECT, "--ignore", IGNORE, *tests.split()],
                              cwd=cwd, env=env, capture_output=True, text=True, check=False,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, time.perf_counter() - start, f"timeout after {TIMEOUT_S} s"
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, time.perf_counter() - start, failed[0] if failed else lines[-1] if lines else ""


def main(argv=None) -> int:
    words = sys.argv[1:] if argv is None else argv
    mutants = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        _copy_tree(tmp)
        for m in mutants:
            path = os.path.join(tmp, m.path)
            with open(path) as fh:
                original = fh.read()
            if original.count(m.old) != 1:
                raise SystemExit(f"mutant {m.name!r}: its text must occur exactly once in {m.path}")
            with open(path, "w") as fh:
                fh.write(original.replace(m.old, m.new))
            try:
                code, seconds, last, run = 0, 0.0, "", "suite"
                if m.first:
                    code, seconds, last = _run_tests(tmp, m.first)
                    run = m.first
                if code == 0:
                    code, more, last = _run_tests(tmp)
                    seconds += more
                    run = "suite"
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
            if code not in (0, 1):
                raise SystemExit(f"mutant {m.name!r}: pytest exited {code} on {run}: {last}")
            status = "killed" if code == 1 else "SURVIVED"
            rows.append((m.name, status, run, f"{seconds:.0f} s", last))
            print(f"{m.name}: {status} ({run}, {seconds:.0f} s) {last}", file=sys.stderr, flush=True)
    print("| mutant | result | run | time | killed by |")
    print("|---|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
