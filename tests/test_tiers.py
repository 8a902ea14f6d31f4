"""The three dtype tiers of ``kernel.fit``: float32 below 2^24, float64 below
2^53, ``object`` above.  The boundaries, the invariant that every ``Arr`` an
operation returns (joins over one denominator included) has exactly the
dtype of its bound, and a bound that covers its entries, inputs whose bound only
covers the result (zero scaling of numerators past the float range), and an
LT3 residual of 1 that only the exact tier sees."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from structure_reference import constants_product, derivation_residual

from homotopes import kernel
from homotopes.families import matrix_space
from homotopes.homotope import GenericTriple, TripleSystem, check_lts
from homotopes.kernel import Arr, PrecisionError
from homotopes.matrices import Matrix, Subspace
from homotopes.scalars import HQ, Q, QI, ring_components

INVOLUTIONS = {Q: ("id", "conj"), QI: ("id", "conj"), HQ: ("id", "qconj", "qsplit", "phi")}


def tier(bound):
    """The dtype ``kernel.fit`` must pick for ``bound``."""
    return np.float32 if bound < 2**24 else np.float64 if bound < 2**53 else object


def assert_tier(arr):
    assert arr.a.dtype == tier(arr.bound)


@pytest.mark.parametrize("bound, dtype", [(2**24 - 1, np.float32), (2**24, np.float64),
                                          (2**53 - 1, np.float64), (2**53, object)])
def test_fit_tier_boundaries(bound, dtype):
    for source in (np.float32, np.float64, object):
        a = np.array([0, 1, -1], dtype=source)
        assert kernel.fit(a, bound).dtype == dtype
    # the tightened bound of the largest entry picks the same tier
    top = np.array([[[bound, -1]]], dtype=object)
    arr = Arr(top, 1, bound, Q).actual_bound()
    assert arr.bound == bound and arr.a.dtype == dtype
    assert kernel.int_rows(arr.a) == [[[bound, -1]]]


def test_float_data_past_its_tier_raises():
    with pytest.raises(PrecisionError):
        Arr(np.zeros((1, 1, 1), dtype=np.float32), 1, 2**24, Q)
    with pytest.raises(PrecisionError):
        Arr(np.zeros((1, 1, 1)), 1, 2**53, Q)
    Arr(np.zeros((1, 1, 1), dtype=np.float32), 1, 2**24 - 1, Q)
    Arr(np.zeros((1, 1, 1)), 1, 2**53 - 1, Q)


def test_zero_scaling_of_a_numerator_past_the_float_range():
    """Known false: fitting 2^1100 to the bound 1 of the zero result overflows
    (float64) or turns it into inf * 0 = nan (float32)."""
    huge = Matrix.from_numerators(Q, np.array([[[2**1100], [1]]], dtype=object))
    zero = huge.scale(0)
    assert zero == Matrix.zeros(1, 2, Q) and zero.a.dtype == np.float32
    assert kernel.int_rows(zero.a) == [[[0], [0]]]
    stack = Arr.from_matrices([huge, huge]).scale(0)
    assert_tier(stack)
    assert not stack.a.any()
    # the zero combination of a basis past the float range
    space = Subspace.span([Matrix.from_rows(Q, [[1, 2**1100]])])
    assert space.from_coordinates([0]) == Matrix.zeros(1, 2, Q)


def test_row_selection_residues_are_float64_in_every_tier():
    """The row selection's modular arithmetic runs on float64 residues, whose
    products reach p^2 > 2^24, whatever the tier of its input: modulo one
    prime (a Python int, broadcast as a 0-d operand) and modulo a batch."""
    p = next(kernel._primes_below(kernel._modulus_limit(4)))
    rows = [[2**24 - 1, -(2**23), 5], [0, 1, -(2**24 - 3)]]
    qs = np.array([p, 3.0])[:, None, None]
    for dtype in (np.float32, np.float64, object):
        a = np.array(rows, dtype=dtype)
        for q, primes in ((p, [p]), (qs, [p, 3])):
            res = kernel._residues(a, q)
            assert res.dtype == np.float64
            got = np.broadcast_to(res, (len(primes),) + a.shape).astype(np.int64).tolist()
            assert [[[v % m for v in row] for row in got[t]] for t, m in enumerate(primes)] \
                == [[[v % m for v in row] for row in rows] for m in primes]


@st.composite
def tiered_stacks(draw):
    """A ring, and a function drawing integer stacks (n, rows, cols, k) over
    one denominator, with numerators of a drawn size, so that operands and
    results fall in every tier."""
    ring = draw(st.sampled_from([Q, QI, HQ]))
    k = ring_components(ring)
    top = draw(st.sampled_from([2**3, 2**11, 2**22, 2**40, 2**70]))
    den = draw(st.sampled_from([1, 3]))

    def stack(n, rows, cols):
        size = n * rows * cols * k
        nums = draw(st.lists(st.integers(-top, top), min_size=size, max_size=size))
        return Arr(np.array(nums, dtype=object).reshape(n, rows, cols, k), den, top, ring).actual_bound()

    return ring, stack


@settings(max_examples=120, deadline=None)
@given(tiered_stacks(), st.data())
def test_every_result_has_the_dtype_of_its_bound(case, data):
    ring, stack = case
    n, p, q, r = (data.draw(st.integers(1, 3)) for _ in range(4))
    x, x2, y = stack(n, p, q), stack(n, p, q), stack(n, q, r)
    factor = data.draw(st.sampled_from([0, 1, Fraction(-2, 3), 2**30, Fraction(1, 2**40)]))
    kind = data.draw(st.sampled_from(INVOLUTIONS[ring]))
    results = [x, kernel.matrix_mul(x, y), x @ y[0], x + x2, x - x2, x.scale(factor),
               x.conjugate(kind), x.dagger(kind), x[0], -x, x.transpose()]
    d = data.draw(st.integers(1, 3))
    results.append(kernel.t_tensor(stack(d, p, q), stack(d, q, p)))
    results.append(kernel.t_half(stack(d, p, q), stack(d, q, p)))
    space = matrix_space(p, q, ring)
    coords, member = space.flat_coordinates(kernel.flatten_last(x))
    assert member.all()
    results.append(coords)
    loose = Arr(kernel.fit(x.a, 2**60), x.den, 2**60, ring)
    results.append(loose.actual_bound())
    # joins over one denominator: the scaled copy's denominator differs, and
    # its rescaled bound can lie in another tier than that of x
    scaled = x.scale(factor)
    joined = kernel.concat([x, scaled], 0)
    m1, m2 = (Matrix.from_numerators(ring, s.a[0], s.den) for s in (x, scaled))
    stacked = Arr.from_matrices([m1, m2])
    block = Matrix.block([[m1, m2], [m2, m1]])
    corner = Arr(block.a[:p, :q], block.den, block.bound, ring)
    assert kernel.equal(joined[:n], x).all() and kernel.equal(joined[n:], scaled).all()
    assert kernel.equal(stacked[0], m1) and kernel.equal(stacked[1], m2) and kernel.equal(corner, m1)
    results += [joined, stacked, block]
    for arr in results:
        assert_tier(arr)
        assert int(np.abs(arr.a).max(initial=0)) <= arr.bound


# [i, j, k] = sum_m c[i, j, k, m] e_m on 1 x 7 row vectors: R(e_0, e_1) is no
# derivation, and its residual at the triple (e_1, e_2, e_0) is
# c[1, 2, 0, 4] c[0, 1, 4, 3] - c[0, 1, 1, 5] c[5, 2, 0, 3]
#     - c[0, 1, 2, 6] c[1, 6, 0, 3] - c[0, 1, 0, 4] c[1, 2, 4, 3]
#   = 4095^2 + 4094^2 - 4093 * 4095 - 4095^2 = 1,
# its only nonzero residual over every operator, triple and coordinate.  The
# first two terms sum to 4095^2 + 4094^2 = 33529861, odd and past 2^24, which
# float32 rounds to 33529860 (ties to even), and then the residual to 0.  Each
# row c[i, j, k] has one nonzero entry, so L = max|c| and each term is below
# max|c| L = 4095^2 < 2^24: only the factor 4 of the LT3 bound keeps the
# residuals in float64.
SKEW_CONSTANTS = {
    (1, 2, 0, 4): 4095, (0, 1, 4, 3): 4095,
    (0, 1, 1, 5): 4094, (5, 2, 0, 3): -4094,
    (0, 1, 2, 6): 4093, (1, 6, 0, 3): 4095,
    (0, 1, 0, 4): 4095, (1, 2, 4, 3): 4095,
}


def test_lt3_residual_of_one_past_float32_is_found():
    """Known false: the only nonzero LT3 residual is 1, next to a partial sum
    of 33529861 > 2^24.  float32 rounds that sum to an even number and the
    residual to 0, so LT3 would pass in float32; the bound 4 max|c| L =
    4 * 4095^2 >= 2^24 keeps the residuals in float64, and ``check_lts``
    reports the witness of the reference residuals.  The bracket is not
    antisymmetric, so LT3 runs over every triple and every operator R(u, v)."""
    d = 7
    space, product = matrix_space(1, d, Q), constants_product(SKEW_CONSTANTS, d)
    c = {(i, j, k): [0] * d for i in range(d) for j in range(d) for k in range(d)}
    for (i, j, k, m), value in SKEW_CONSTANTS.items():
        c[i, j, k][m] = value
    # the reference residuals of every nonzero operator (a zero one has none)
    nonzero = []
    for u, v in {key[:2] for key in SKEW_CONSTANTS}:
        for i, j, k in np.ndindex(d, d, d):
            res = derivation_residual(c, d, [c[u, v, w] for w in range(d)], i, j, k)
            if any(res):
                nonzero.append(((u, v, i, j, k), res))
    assert nonzero == [((0, 1, 1, 2, 0), [0, 0, 0, 1, 0, 0, 0])]
    report = check_lts(TripleSystem(space, GenericTriple(product)))
    assert report.entries[3] == {"axiom": "LT3", "pass": False, "witness": (0, 1, 1, 2, 0)}
