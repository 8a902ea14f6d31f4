"""The base rings Q, Q(i), the rational quaternions and a truncated bivariate
series ring over each, defined once: a ring is the multiplication table of its
Q-basis (``mult_tensor``) and the component sign patterns of its involutions
(``CONJ_SIGNS``, ``conj_signs``).  The same tables drive every ``Matrix`` and
``kernel.Arr`` product and conjugation, and the products and conjugations of
one ``Scalar``, the flat tuple of its ``ring_components`` Fractions (the
layout of one matrix entry).

All arithmetic is exact: every component is a ``fractions.Fraction`` and no
floating point is ever produced.  Quaternions use the basis (1, i, j, k) with
ij = k, jk = i, ki = j.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

Q = "Q"
QI = "QI"
HQ = "HQ"

_COMPONENTS = {Q: 1, QI: 2, HQ: 4}

# identity / complex conjugation / quaternion conjugation / split involution
BASE_INVOLUTIONS = ("id", "conj", "qconj", "qsplit")


# a series ring discards every monomial of degree >= 2 in t or in s
SERIES_DEGREE = 2


@dataclass(frozen=True)
class SeriesRing:
    """The truncated polynomial ring base[t, s]/(t^2, s^2)."""

    base: str

    def __post_init__(self):
        if self.base not in _COMPONENTS:
            raise ValueError(f"unsupported series base ring {self.base!r}")


def is_series(ring) -> bool:
    return isinstance(ring, SeriesRing)


def ring_components(ring) -> int:
    """Number of Q-coordinates of one scalar: 1, 2 or 4, times 4 for a series
    ring (``series_slot``)."""
    if is_series(ring):
        return SERIES_DEGREE**2 * _COMPONENTS[ring.base]
    return _COMPONENTS[ring]


def series_slot(base, exp: tuple) -> slice:
    """The components of the coefficient of t^a s^b, (a, b) = exp, among those
    of a scalar of the series ring over ``base``: index (2 a + b) k + c holds
    component c of that coefficient, k = ``ring_components(base)``."""
    k = _COMPONENTS[base]
    p = exp[0] * SERIES_DEGREE + exp[1]
    return slice(p * k, (p + 1) * k)


@lru_cache(maxsize=None)
def mult_tensor(ring) -> np.ndarray:
    """The multiplication table t (e_a e_b = sum_c t[a, b, c] e_c) of the
    Q-basis of ``ring``.  A series ring base[t, s]/(t^2, s^2) has the basis
    t^i s^j e_a at its ``series_slot``, the Kronecker product of the
    truncated monomial tables with the base table: a product past the
    truncation is zero."""
    if is_series(ring):
        mono = np.zeros((SERIES_DEGREE,) * 3)
        for i, j in np.ndindex(SERIES_DEGREE, SERIES_DEGREE):
            if i + j < SERIES_DEGREE:
                mono[i, j, i + j] = 1
        return np.kron(np.kron(mono, mono), mult_tensor(ring.base))
    k = ring_components(ring)
    t = np.zeros((k, k, k))
    if ring == Q:
        t[0, 0, 0] = 1
    elif ring == QI:
        t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = 1
        t[1, 1, 0] = -1
    else:
        # quaternions: basis (1, i, j, k), ij = k, jk = i, ki = j
        table = {
            (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
            (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
            (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
            (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
        }
        for (a, b), (c, s) in table.items():
            t[a, b, c] = s
    return t


@lru_cache(maxsize=None)
def _terms(ring) -> tuple:
    """The nonzero entries of ``mult_tensor(ring)`` as (a, b, c, t > 0): every
    product of basis units is a signed unit or zero."""
    t = mult_tensor(ring)
    return tuple((int(a), int(b), int(c), bool(t[a, b, c] > 0)) for a, b, c in zip(*np.nonzero(t)))


# component sign patterns of the base involutions per ring
CONJ_SIGNS = {
    (Q, "id"): (1,),
    (Q, "conj"): (1,),
    (QI, "id"): (1, 1),
    (QI, "conj"): (1, -1),
    (HQ, "id"): (1, 1, 1, 1),
    (HQ, "qconj"): (1, -1, -1, -1),
    (HQ, "qsplit"): (1, 1, -1, 1),
    # entrywise conjugation by j: qconj followed by qsplit, an automorphism
    (HQ, "phi"): (1, -1, 1, -1),
}


@lru_cache(maxsize=None)
def conj_signs(ring, kind: str) -> np.ndarray:
    """The component signs of the base involution or phi ``kind`` over
    ``ring`` (``CONJ_SIGNS``), repeated over the monomials of a series ring."""
    base = ring.base if is_series(ring) else ring
    if (base, kind) not in CONJ_SIGNS:
        raise ValueError(f"base involution {kind!r} is not defined over {base}")
    signs = CONJ_SIGNS[(base, kind)]
    # int8, so that a product with them keeps the dtype of the other factor
    return np.array(signs * (ring_components(ring) // len(signs)), dtype=np.int8)


class Scalar:
    """An exact element of one of the supported rings: ``parts`` is the tuple
    of its ``ring_components(ring)`` Fractions, a series scalar's
    coefficient of t^a s^b at its ``series_slot``."""

    __slots__ = ("ring", "parts")

    def __init__(self, ring, parts):
        parts = tuple(p if type(p) is Fraction else Fraction(p) for p in parts)
        if len(parts) != ring_components(ring):
            raise ValueError(f"ring {ring} needs {ring_components(ring)} components")
        self.ring, self.parts = ring, parts

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring) -> "Scalar":
        return Scalar.from_rational(ring, 0)

    @staticmethod
    def one(ring) -> "Scalar":
        return Scalar.from_rational(ring, 1)

    @staticmethod
    def from_rational(ring, value) -> "Scalar":
        return Scalar(ring, (value,) + (0,) * (ring_components(ring) - 1))

    # -- ring operations ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.parts)

    def _check(self, other: "Scalar"):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.ring, [a + b for a, b in zip(self.parts, other.parts)])

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return Scalar(self.ring, [-p for p in self.parts])

    def __mul__(self, other: "Scalar") -> "Scalar":
        """The product by the table of the ring (``mult_tensor``)."""
        self._check(other)
        x, y = self.parts, other.parts
        out = [0] * len(x)
        for a, b, c, positive in _terms(self.ring):
            out[c] += x[a] * y[b] if positive else -(x[a] * y[b])
        return Scalar(self.ring, out)

    def scale(self, r) -> "Scalar":
        """Multiply by a central rational number."""
        r = Fraction(r)
        return Scalar(self.ring, [r * p for p in self.parts])

    def conjugate(self, kind: str) -> "Scalar":
        """Apply the base involution or phi ``kind`` (``conj_signs``)."""
        return Scalar(self.ring, [p if s > 0 else -p for p, s in zip(self.parts, conj_signs(self.ring, kind))])

    # -- components --------------------------------------------------------

    def flatten(self) -> tuple:
        """Q-coordinates of this scalar (``ring_components`` Fractions)."""
        return self.parts

    @staticmethod
    def unflatten(ring, comps) -> "Scalar":
        return Scalar(ring, comps)

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar) or self.ring != other.ring:
            return NotImplemented if not isinstance(other, Scalar) else False
        return self.parts == other.parts

    def __hash__(self):
        return hash((self.ring, self.parts))

    def __repr__(self):
        if is_series(self.ring):
            return f"Scalar({self.ring}, {self.parts})"
        text = format_components(self.ring, [(p.numerator, p.denominator) for p in self.parts])
        return f"Scalar({self.ring}, {text!r})"


def rational(value) -> Scalar:
    return Scalar.from_rational(Q, value)


def gaussian(re, im=0) -> Scalar:
    return Scalar(QI, (Fraction(re), Fraction(im)))


def quaternion(a, b=0, c=0, d=0) -> Scalar:
    return Scalar(HQ, (Fraction(a), Fraction(b), Fraction(c), Fraction(d)))


def series_ring(base=Q) -> SeriesRing:
    return SeriesRing(base)


# -- text format: "p/q", "p/q+r/si", "a+bi+cj+dk" --------------------------

_TERM = _re.compile(r"([+-]?[^+-]*)")
_UNITS = ("", "i", "j", "k")


def format_components(ring, comps) -> str:
    """The text of the scalar of ``ring`` whose components are the rationals
    n / d of the (integer) pairs (n, d), d > 0."""
    if is_series(ring):
        raise ValueError("series scalars have no text format")
    terms = []
    for (n, d), unit in zip(comps, _UNITS):
        g = gcd(n, d)
        mag = str(abs(n) // g) if d == g else f"{abs(n) // g}/{d // g}"
        terms.append(f"{'-' if n < 0 else '+'}{mag}{unit}")
    out = "".join(terms)
    return out[1:] if out.startswith("+") else out


def parse_scalar(ring, text: str) -> Scalar:
    """The scalar of ``ring`` written ``text``; whitespace is allowed only
    next to a + or - sign, and an empty literal is an error."""
    if is_series(ring):
        raise ValueError("series scalars have no text format")
    compact = _re.sub(r"\s*([+-])\s*", r"\1", text)
    if not compact:
        raise ValueError(f"bad scalar literal {text!r}")
    comps = [Fraction(0)] * ring_components(ring)
    for term in _TERM.findall(compact):
        if not term:
            continue
        # the pattern has no whitespace: what is left of it after the signs fails here
        m = _re.fullmatch(r"([+-]?)(\d+(?:/\d+)?)?([ijk]?)", term)
        if m is None:
            raise ValueError(f"bad scalar literal {text!r}")
        sign, mag, unit = m.groups()
        if mag is None and not unit:
            raise ValueError(f"bad scalar literal {text!r}")
        idx = _UNITS.index(unit)
        if idx >= len(comps):
            raise ValueError(f"unit {unit!r} not available in ring {ring}")
        try:
            val = Fraction(mag) if mag else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar literal {text!r}") from None
        comps[idx] += -val if sign == "-" else val
    return Scalar(ring, tuple(comps))
