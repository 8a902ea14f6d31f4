"""Unit tests for the exact scalar rings Q, Q(i), the rational quaternions
and the truncated series rings over them: the unit tables and sign patterns
written out, and ``Scalar`` against the hand-written references of
``structure_reference``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from structure_reference import reference_scalar_conjugate, reference_scalar_product

from homotopes.matrices import Matrix
from homotopes.scalars import (CONJ_SIGNS, HQ, Q, QI, Scalar, gaussian, is_series, parse_scalar,
                               quaternion, rational, ring_components, series_ring)

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


class TestGaussianTable:
    def test_table(self):
        one, i = gaussian(1), gaussian(0, 1)
        assert one * one == one and one * i == i and i * one == i
        assert i * i == -one


def monomial(base, exp, unit):
    """The series scalar e_unit t^a s^b, (a, b) = exp, over ``base``: its
    component (2 a + b) k + unit is 1, written out."""
    k = ring_components(base)
    parts = [0] * 4 * k
    parts[(2 * exp[0] + exp[1]) * k + unit] = 1
    return Scalar(series_ring(base), parts)


class TestSeriesTable:
    def test_quaternion_coefficients(self):
        """(i t)(j s) = k t s, (j s)(i t) = -k t s and (i t)(i t) = 0."""
        it, js = monomial(HQ, (1, 0), 1), monomial(HQ, (0, 1), 2)
        assert it * js == monomial(HQ, (1, 1), 3)
        assert js * it == -monomial(HQ, (1, 1), 3)
        assert (it * it).is_zero() and (js * js).is_zero()

    def test_gaussian_coefficients(self):
        """(i t)(i s) = -t s, (i t)(1 s) = i t s and (i t)(i t) = 0."""
        it = monomial(QI, (1, 0), 1)
        assert it * monomial(QI, (0, 1), 1) == -monomial(QI, (1, 1), 0)
        assert it * monomial(QI, (0, 1), 0) == monomial(QI, (1, 1), 1)
        assert (it * it).is_zero()

    def test_variables_and_coefficients(self):
        ring = series_ring(HQ)
        assert Scalar.variable(ring, "t") == monomial(HQ, (1, 0), 0)
        assert Scalar.variable(ring, "s") == monomial(HQ, (0, 1), 0)
        x = monomial(HQ, (1, 1), 3) + monomial(HQ, (0, 0), 2).scale(5)
        assert x.coefficient((1, 1)) == quaternion(0, 0, 0, 1)
        assert x.coefficient((0, 0)) == quaternion(0, 0, 5)
        assert x.coefficient((1, 0)).is_zero()


# the images of the units 1, i, j, k under each involution, written out
UNIT_IMAGES = {
    (Q, "id"): "1", (Q, "conj"): "1",
    (QI, "id"): "1 i", (QI, "conj"): "1 -i",
    (HQ, "id"): "1 i j k", (HQ, "qconj"): "1 -i -j -k",
    (HQ, "qsplit"): "1 i -j k", (HQ, "phi"): "1 -i j -k",
}


@pytest.mark.parametrize("ring, kind", list(UNIT_IMAGES), ids=lambda v: str(v))
def test_involutions_on_the_units(ring, kind):
    """Every ``CONJ_SIGNS`` entry, on the units of the ring, of its series
    ring (times t s) and of a 1 x 1 matrix."""
    k = ring_components(ring)
    for c, text in enumerate(UNIT_IMAGES[ring, kind].split()):
        unit, image = Scalar(ring, [int(c == b) for b in range(k)]), parse_scalar(ring, text)
        assert unit.conjugate(kind) == image
        assert Matrix(1, 1, ring, [unit]).conjugate(kind) == Matrix(1, 1, ring, [image])
        ts = monomial(ring, (1, 1), c)
        assert ts.conjugate(kind) == ts.scale(image.parts[c])


def test_conjugate_accepts_exactly_the_tabled_kinds():
    assert set(UNIT_IMAGES) == set(CONJ_SIGNS)
    assert quaternion(1, 2, 3, 4).conjugate("phi") == quaternion(1, -2, 3, -4)
    for ring, kind in ((QI, "qconj"), (Q, "qsplit"), (HQ, "conj"), (QI, "phi"), (Q, "bogus")):
        with pytest.raises(ValueError, match="is not defined over"):
            Scalar.one(ring).conjugate(kind)


RINGS = (Q, QI, HQ) + tuple(series_ring(b) for b in (Q, QI, HQ))


@st.composite
def scalar_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    parts = st.lists(fracs, min_size=ring_components(ring), max_size=ring_components(ring))
    return Scalar(ring, draw(parts)), Scalar(ring, draw(parts))


@given(scalar_pairs())
@settings(max_examples=100, deadline=None)
def test_product_and_conjugates_match_the_references(pair):
    x, y = pair
    assert x * y == reference_scalar_product(x, y)
    base = x.ring.base if is_series(x.ring) else x.ring
    for ring, kind in CONJ_SIGNS:
        if ring == base:
            assert x.conjugate(kind) == reference_scalar_conjugate(x, kind)


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


@pytest.mark.parametrize("text", ["+", "-", " - ", "1+", "-i-"])
def test_parse_rejects_a_bare_sign(text):
    with pytest.raises(ValueError, match="bad scalar literal"):
        parse_scalar(HQ, text)


@pytest.mark.parametrize("ring, text", [(Q, "i"), (Q, "1-2i"), (QI, "j"), (QI, "2j"), (QI, "1+k")])
def test_parse_rejects_a_unit_outside_the_ring(ring, text):
    with pytest.raises(ValueError, match=f"not available in ring {ring}"):
        parse_scalar(ring, text)


def test_bad_ring_rejected():
    with pytest.raises((ValueError, KeyError)):
        Scalar.unflatten("nonsense", (1,))
