"""Unit tests for the exact scalar rings Q, Q(i) and the rational quaternions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotopes.scalars import (HQ, Q, QI, Scalar, gaussian, parse_scalar, quaternion,
                               rational, ring_components, series_ring)

fracs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 7))


def quats(draw_parts):
    return quaternion(*draw_parts)


quat_strategy = st.tuples(fracs, fracs, fracs, fracs).map(lambda t: quaternion(*t))


class TestRingBasics:
    def test_components(self):
        assert ring_components(Q) == 1
        assert ring_components(QI) == 2
        assert ring_components(HQ) == 4

    def test_constructors(self):
        assert rational(Fraction(2, 3)).flatten() == (Fraction(2, 3),)
        assert gaussian(1, 2).flatten() == (1, 2)
        assert quaternion(1, 2, 3, 4).flatten() == (1, 2, 3, 4)

    def test_zero_one(self):
        for ring in (Q, QI, HQ):
            z, o = Scalar.zero(ring), Scalar.one(ring)
            assert z.is_zero() and not o.is_zero()
            assert o.flatten() == (1,) + (0,) * (ring_components(ring) - 1)
            assert (o * z).is_zero()
            assert o * o == o

    def test_unflatten_roundtrip(self):
        s = quaternion(1, -2, Fraction(1, 3), 0)
        assert Scalar.unflatten(HQ, s.flatten()) == s


class TestQuaternionTable:
    """The multiplication table of 1, i, j, k."""

    def test_table(self):
        one = quaternion(1)
        i = quaternion(0, 1)
        j = quaternion(0, 0, 1)
        k = quaternion(0, 0, 0, 1)
        assert i * i == -one and j * j == -one and k * k == -one
        assert i * j == k and j * k == i and k * i == j
        assert j * i == -k and k * j == -i and i * k == -j

    def test_noncommutative(self):
        i, j = quaternion(0, 1), quaternion(0, 0, 1)
        assert i * j != j * i


class TestRingAxioms:
    @given(quat_strategy, quat_strategy, quat_strategy)
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(quat_strategy, quat_strategy, quat_strategy)
    @settings(max_examples=30, deadline=None)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    @given(quat_strategy)
    @settings(max_examples=30, deadline=None)
    def test_inverse(self, a):
        if not a.is_zero():
            assert a * a.inverse() == Scalar.one(HQ)
            assert a.inverse() * a == Scalar.one(HQ)


class TestInvolutions:
    @given(quat_strategy, quat_strategy)
    @settings(max_examples=30, deadline=None)
    def test_qconj_antimorphism(self, a, b):
        assert (a * b).conjugate("qconj") == b.conjugate("qconj") * a.conjugate("qconj")
        assert a.conjugate("qconj").conjugate("qconj") == a

    @given(quat_strategy, quat_strategy)
    @settings(max_examples=30, deadline=None)
    def test_qsplit_antimorphism(self, a, b):
        assert (a * b).conjugate("qsplit") == b.conjugate("qsplit") * a.conjugate("qsplit")
        assert a.conjugate("qsplit").conjugate("qsplit") == a

    def test_qsplit_fixed_units(self):
        """The split involution fixes 1, i, k and negates j."""
        one, i = quaternion(1), quaternion(0, 1)
        j, k = quaternion(0, 0, 1), quaternion(0, 0, 0, 1)
        assert one.conjugate("qsplit") == one and i.conjugate("qsplit") == i
        assert k.conjugate("qsplit") == k and j.conjugate("qsplit") == -j

    def test_conj_on_gaussians(self):
        s = gaussian(3, 5)
        assert s.conjugate("conj") == gaussian(3, -5)
        assert s.conjugate("conj").conjugate("conj") == s

    def test_norm_is_rational(self):
        a = quaternion(1, 2, 3, Fraction(1, 2))
        n = a * a.conjugate("qconj")
        parts = n.flatten()
        assert parts[1:] == (0, 0, 0) and parts[0] > 0


class TestSeries:
    def test_truncation(self):
        sr = series_ring(Q)
        t = Scalar.variable(sr, "t")
        s = Scalar.variable(sr, "s")
        one = Scalar.one(sr)
        prod = (one + t) * (one + s)
        # (1 + t)(1 + s) = 1 + t + s + ts, exact below the truncation order
        assert prod.coefficient((0, 0)).flatten()[0] == 1
        assert prod.coefficient((1, 0)).flatten()[0] == 1
        assert prod.coefficient((0, 1)).flatten()[0] == 1
        assert prod.coefficient((1, 1)).flatten()[0] == 1

    def test_degree_drop(self):
        sr = series_ring(Q)
        t = Scalar.variable(sr, "t")
        assert (t * t).is_zero()


def test_parse_allows_whitespace_only_next_to_a_sign():
    """Whitespace elsewhere would join or drop digits ("1 2" read as 12, ""
    as 0), so it is an error, as is an empty literal."""
    assert parse_scalar(QI, "1 + 2i") == parse_scalar(QI, "1+2i") == gaussian(1, 2)
    assert parse_scalar(Q, " - 1/2") == rational(Fraction(-1, 2))
    for text in ("", " ", "1 2", "1/2 3", "1 ", " 1", "2 i"):
        with pytest.raises(ValueError, match="bad scalar literal"):
            parse_scalar(QI, text)


def test_bad_ring_rejected():
    with pytest.raises((ValueError, KeyError)):
        Scalar.unflatten("nonsense", (1,))
