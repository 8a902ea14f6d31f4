"""``kernel.independent_row_indices`` against the ``Fraction`` RREF oracle: the
picked rows are independent over Q and as many as the rank, for duplicate and
zero rows, ``object`` rows past 2^53, and rows whose rank drops modulo the
first pick prime, so that the certificate rejects a pick and the selection
retries with the next prime."""

from itertools import islice

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from structure_reference import reference_rref

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
