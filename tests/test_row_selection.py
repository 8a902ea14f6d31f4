"""``kernel.independent_row_indices`` against the ``Fraction`` RREF oracle: the
picked rows are independent over Q and as many as the rank, for duplicate and
zero rows, ``object`` rows past 2^53, and rows whose rank drops modulo the
first pick prime, so that the certificate rejects a pick and the selection
retries with the next prime.  The pick modulo p against a row-by-row
reference, and the certificate's known-false cases: the pick prime counted
once, a prime where its inverse meets a zero pivot, and a cover at which it
stops."""

from itertools import islice

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from structure_reference import lattice_of_index, reference_rref

from homotopes import kernel


def rank(rows):
    return len(reference_rref(rows)[0])


# entries past 2^53, so the rows are Python ints in an ``object`` array
HUGE = [2**53 + 1, -(2**61 - 1), 3 * 2**70]


@st.composite
def row_sets(draw):
    """Integer combinations of a few base rows, with duplicates and zero rows."""
    width = draw(st.integers(1, 7))
    entry = st.integers(-9, 9)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.sampled_from(HUGE))
    base = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["combination", "duplicate", "zero"]))
        if kind == "duplicate" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "zero":
            rows.append([0] * width)
        else:
            coef = draw(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)))
            rows.append([sum(c * b[t] for c, b in zip(coef, base)) for t in range(width)])
    return rows


@st.composite
def rows_dropping_rank_mod_first_prime(draw):
    """Nonzero rows without zero columns, some of them another row plus p
    times a small vector: dependent modulo the first pick prime p of their
    size, independent over Q."""
    width, n = draw(st.integers(1, 7)), draw(st.integers(2, 10))
    p = next(kernel._primes_below(kernel._modulus_limit(min(n, width))))
    small = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    rows = [[1] * width]
    while len(rows) < n:
        row = draw(small)
        if draw(st.booleans()):
            shift = draw(small)
            row = [x + p * y for x, y in zip(draw(st.sampled_from(rows)), shift)]
        if any(row):
            rows.append(row)
    return rows


def assert_maximal(rows, picked):
    assert picked == sorted(set(picked))
    assert rank([rows[i] for i in picked]) == len(picked) == rank(rows)


@settings(max_examples=300, deadline=None)
@given(st.one_of(row_sets(), rows_dropping_rank_mod_first_prime()))
def test_selection_matches_rref_rank(rows):
    exact = max(abs(x) for row in rows for x in row) < 2**53
    arrays = [np.array(rows, dtype=object)]
    if exact:
        arrays.append(np.array(rows, dtype=np.float64))
    for array in arrays:
        assert_maximal(rows, kernel.independent_row_indices(array))


def test_retry_after_rank_drops_mod_first_prime(monkeypatch):
    """Rows (1, 0, 1), (1, p, 1), (2, p, 2) have rank 2, but rank 1 mod the
    first pick prime p: the certificate rejects that pick, and the next prime
    picks two rows, which the certificate then accepts."""
    first, second = islice(kernel._primes_below(kernel._modulus_limit(3)), 2)
    pick, primes = kernel._pick, []
    monkeypatch.setattr(kernel, "_pick", lambda r, p: primes.append(p) or pick(r, p))
    for scale in (1, 2**60):
        rows = [[scale, 0, scale], [scale, scale * first, scale], [2 * scale, scale * first, 2 * scale]]
        primes.clear()
        picked = kernel.independent_row_indices(np.array(rows, dtype=object))
        assert_maximal(rows, picked)
        assert picked == [0, 1]
        assert primes == [first, second]


def test_primes_are_the_primes_below_the_limit():
    assert tuple(kernel._primes_below(60)) == (59, 53, 47, 43, 41, 37, 31, 29, 23, 19, 17, 13, 11,
                                               7, 5, 3, 2)
    # across sieve windows: every listed number is prime, and none is skipped
    limit = kernel._modulus_limit(24)
    listed = list(islice(kernel._primes_below(limit), 600))
    assert listed[-1] < limit - 2 * 2**12
    assert listed == [n for n in range(limit - 1, listed[-1] - 1, -1)
                      if all(n % d for d in range(2, int(n**0.5) + 1))]


def test_zero_rows_pick_nothing():
    assert kernel.independent_row_indices(np.zeros((3, 4))) == []
    assert kernel.independent_row_indices(np.zeros((3, 4), dtype=object)) == []


def reference_pick(rows, p):
    """Row by row modulo p: a row is picked when it is independent of the
    picked rows before it, with its first nonzero entry after reduction as
    its pivot."""
    basis, picked, pivots = [], [], []
    for i, row in enumerate(rows):
        v = [x % p for x in row]
        for j, b in basis:
            v = [(x - v[j] * y) % p for x, y in zip(v, b)]
        nz = [j for j, x in enumerate(v) if x]
        if nz:
            inv = pow(v[nz[0]], -1, p)
            basis.append((nz[0], [x * inv % p for x in v]))
            picked.append(i)
            pivots.append(nz[0])
    return picked, pivots


@st.composite
def long_dependent_runs(draw):
    """Up to 40 rows of width at most 5, most of them combinations of the
    rows before, so that runs of dependent rows longer than a pick block
    come before independent rows."""
    width, n = draw(st.integers(1, 5)), draw(st.integers(1, 40))
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 4)):
            coef = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[t] for c, r in zip(coef, rows)) for t in range(width)])
        else:
            rows.append(draw(st.lists(st.integers(-9, 9), min_size=width, max_size=width)))
    return rows


@settings(max_examples=200, deadline=None)
@given(long_dependent_runs(), st.sampled_from([3, 101, 2**25 - 39]))
# rows 1 to 8, multiples of row 0, are a whole pick block that reduces to
# zero; row 9 after them is independent
@example([[t, 0] for t in range(1, 10)] + [[0, 1]], 101)
def test_pick_is_the_row_by_row_pick(rows, p):
    """The pick reduces rows a block at a time and picks what a row-by-row
    pick modulo p picks."""
    picked, pivots = kernel._pick(np.array(rows, dtype=np.float64), p)
    assert (picked, pivots) == reference_pick(rows, p)


def test_pick_prime_counts_once(monkeypatch):
    """Known false: the third row is 2^12 times each of the first two minus
    p e_2, with p the pick prime, so it is dependent modulo p and
    independent over Q.  The pick proves the identity only modulo p, so p
    counts once toward the certificate's modulus: the bound, 2 (4 B^2 + B)
    with B = 2^12 (H = 1 for the minor I), is below p^2, and were p checked
    again as one of the certificate's own primes (k = 2 and min(n, width) = 3
    start the same list at p), the two-row pick would be accepted."""
    p, second = islice(kernel._primes_below(kernel._modulus_limit(3)), 2)
    b = 2**12
    rows = [[1, 0, b], [0, 1, b], [b, b, 2 * b * b - p]]
    assert 0 < rows[2][2] < b and 2 * (4 * b * b + b) < p * p
    r = np.array(rows, dtype=np.float64)
    assert kernel._pick(r, p) == ([0, 1], [0, 1])
    assert not kernel._spans(r, [0, 1], [0, 1], p)
    pick, primes = kernel._pick, []
    monkeypatch.setattr(kernel, "_pick", lambda r, q: primes.append(q) or pick(r, q))
    for dtype in (np.float64, object):
        primes.clear()
        picked = kernel.independent_row_indices(np.array(rows, dtype=dtype))
        assert_maximal(rows, picked)
        assert picked == [0, 1, 2] and primes == [p, second]


def test_certificate_skips_a_prime_with_a_zero_pivot(monkeypatch):
    """Known false for the inverse: M = [[q, 1], [1, 1]] is invertible, but
    its pivot M[0, 0] is 0 modulo the certificate's first prime q, where the
    elimination without row exchanges stops.  That prime is masked out, and
    the certificate passes on the next ones: the first pick is accepted."""
    p, q = islice(kernel._primes_below(kernel._modulus_limit(3)), 2)
    rows = [[q, 1, 0], [1, 1, 1], [q + 1, 2, 1]]
    r = np.array(rows, dtype=np.float64)
    assert kernel._pick(r, p) == ([0, 1], [0, 1])
    _, ok = kernel._inverse_mod(r[:2, :2], np.array([q, p], dtype=np.float64))
    assert ok.tolist() == [False, True]
    assert kernel._spans(r, [0, 1], [0, 1], p)
    pick, primes = kernel._pick, []
    monkeypatch.setattr(kernel, "_pick", lambda r, p: primes.append(p) or pick(r, p))
    assert kernel.independent_row_indices(r) == [0, 1]
    assert primes == [p]


def test_cover_sets_where_the_certificate_stops(monkeypatch):
    """Rows of determinant p, the pick prime: (2^13, -1) and the base-2^13
    digits of p, which are dependent modulo p and independent over Q.  With
    no cover, or a cover of p or more, the certificate checks the next
    prime q and rejects the pick modulo p, and the pick modulo q takes both
    rows; with a cover below p the pick modulo p, one row, is accepted with
    no other prime, since p alone passes the cover."""
    p, q = islice(kernel._primes_below(kernel._modulus_limit(2)), 2)
    rows = lattice_of_index(p, 2**13, 2)
    assert rank(rows) == 2
    pick, primes = kernel._pick, []
    monkeypatch.setattr(kernel, "_pick", lambda r, prime: primes.append(prime) or pick(r, prime))
    for dtype in (np.float64, object):
        for cover, picked, tried in ((None, [0, 1], [p, q]), (p, [0, 1], [p, q]), (p - 1, [0], [p])):
            primes.clear()
            assert kernel.independent_row_indices(np.array(rows, dtype=dtype), cover) == picked
            assert primes == tried
