"""Exact scalar arithmetic for the base rings Q, Q(i), rational quaternions,
and a truncated bivariate series extension of each.

All arithmetic is exact: every component is a ``fractions.Fraction`` and no
floating point is ever produced.  Quaternions use the basis (1, i, j, k) with
ij = k, jk = i, ki = j.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

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


Ring = "str | SeriesRing"


def is_series(ring) -> bool:
    return isinstance(ring, SeriesRing)


def ring_components(ring) -> int:
    """Number of Q-coordinates of one scalar: 1, 2 or 4, times 4 for a series
    ring, whose coordinate (2 i + j) k + a is component a of the coefficient
    of t^i s^j."""
    if is_series(ring):
        return SERIES_DEGREE**2 * _COMPONENTS[ring.base]
    return _COMPONENTS[ring]


class Scalar:
    """An exact element of one of the supported rings.

    ``parts`` is a tuple of Fractions (length 1, 2 or 4) for the plain rings,
    or a dict {(deg_t, deg_s): Scalar-over-base} for series rings; zero series
    coefficients are never stored.
    """

    __slots__ = ("ring", "parts")

    def __init__(self, ring, parts):
        self.ring = ring
        if is_series(ring):
            self.parts = {k: v for k, v in parts.items() if not v.is_zero()}
        else:
            parts = tuple(p if type(p) is Fraction else Fraction(p) for p in parts)
            if len(parts) != _COMPONENTS[ring]:
                raise ValueError(f"ring {ring} needs {_COMPONENTS[ring]} components")
            self.parts = parts

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring) -> "Scalar":
        if is_series(ring):
            return Scalar(ring, {})
        return Scalar(ring, (Fraction(0),) * _COMPONENTS[ring])

    @staticmethod
    def one(ring) -> "Scalar":
        if is_series(ring):
            return Scalar(ring, {(0, 0): Scalar.one(ring.base)})
        return Scalar(ring, (Fraction(1),) + (Fraction(0),) * (_COMPONENTS[ring] - 1))

    @staticmethod
    def from_rational(ring, value) -> "Scalar":
        value = Fraction(value)
        if is_series(ring):
            if value == 0:
                return Scalar(ring, {})
            return Scalar(ring, {(0, 0): Scalar.from_rational(ring.base, value)})
        return Scalar(ring, (value,) + (Fraction(0),) * (_COMPONENTS[ring] - 1))

    @staticmethod
    def variable(ring: SeriesRing, name: str) -> "Scalar":
        """The generator t or s of a series ring."""
        if not is_series(ring):
            raise ValueError("variables only exist in series rings")
        exp = {"t": (1, 0), "s": (0, 1)}[name]
        return Scalar(ring, {exp: Scalar.one(ring.base)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        if is_series(self.ring):
            return not self.parts
        return all(p == 0 for p in self.parts)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Scalar"):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if is_series(self.ring):
            out = dict(self.parts)
            for k, v in other.parts.items():
                out[k] = out[k] + v if k in out else v
            return Scalar(self.ring, out)
        return Scalar(self.ring, tuple(a + b for a, b in zip(self.parts, other.parts)))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        if is_series(self.ring):
            return Scalar(self.ring, {k: -v for k, v in self.parts.items()})
        return Scalar(self.ring, tuple(-p for p in self.parts))

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        ring = self.ring
        if is_series(ring):
            out: dict = {}
            for (a1, a2), c1 in self.parts.items():
                for (b1, b2), c2 in other.parts.items():
                    e = (a1 + b1, a2 + b2)
                    if max(e) >= SERIES_DEGREE:
                        continue
                    prod = c1 * c2
                    out[e] = out[e] + prod if e in out else prod
            return Scalar(ring, out)
        if ring == Q:
            return Scalar(ring, (self.parts[0] * other.parts[0],))
        if ring == QI:
            a, b = self.parts
            c, d = other.parts
            return Scalar(ring, (a * c - b * d, a * d + b * c))
        a1, b1, c1, d1 = self.parts
        a2, b2, c2, d2 = other.parts
        return Scalar(
            ring,
            (
                a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            ),
        )

    def scale(self, r) -> "Scalar":
        """Multiply by a central rational number."""
        r = Fraction(r)
        if is_series(self.ring):
            return Scalar(self.ring, {k: v.scale(r) for k, v in self.parts.items()})
        return Scalar(self.ring, tuple(r * p for p in self.parts))

    def inverse(self) -> "Scalar":
        ring = self.ring
        if is_series(ring):
            raise ValueError("series scalars are inverted as 1 x 1 matrices (Matrix.inverse)")
        if self.is_zero():
            raise ZeroDivisionError("scalar is zero")
        if ring == Q:
            return Scalar(ring, (1 / self.parts[0],))
        n = sum(p * p for p in self.parts)
        conj = self.conjugate("conj" if ring == QI else "qconj")
        return Scalar(ring, tuple(p / n for p in conj.parts))

    # -- involutions -------------------------------------------------------

    def conjugate(self, kind: str) -> "Scalar":
        """Apply a base involution: id, conj (Q(i)), qconj or qsplit (quaternions)."""
        if kind not in BASE_INVOLUTIONS:
            raise ValueError(f"unknown base involution {kind!r}")
        ring = self.ring
        if is_series(ring):
            return Scalar(ring, {k: v.conjugate(kind) for k, v in self.parts.items()})
        if kind == "id":
            return self
        if kind == "conj":
            if ring == Q:
                return self
            if ring != QI:
                raise ValueError("complex conjugation needs ring Q or QI")
            a, b = self.parts
            return Scalar(ring, (a, -b))
        if ring != HQ:
            raise ValueError(f"{kind} needs ring HQ")
        a, b, c, d = self.parts
        if kind == "qconj":
            return Scalar(ring, (a, -b, -c, -d))
        # qsplit: j * qconj(x) * j^{-1}; fixes 1, i, k and negates j
        return Scalar(ring, (a, b, -c, d))

    # -- flattening --------------------------------------------------------

    def flatten(self) -> tuple:
        """Q-coordinates of this scalar (``ring_components`` Fractions)."""
        if is_series(self.ring):
            return sum((self.coefficient(divmod(p, SERIES_DEGREE)).parts
                        for p in range(SERIES_DEGREE**2)), ())
        return self.parts

    @staticmethod
    def unflatten(ring, comps: Iterable) -> "Scalar":
        if is_series(ring):
            comps, k = tuple(comps), _COMPONENTS[ring.base]
            if len(comps) != ring_components(ring):
                raise ValueError(f"ring {ring} needs {ring_components(ring)} components")
            return Scalar(ring, {divmod(p, SERIES_DEGREE): Scalar(ring.base, comps[p * k:(p + 1) * k])
                                 for p in range(SERIES_DEGREE**2)})
        return Scalar(ring, comps)

    # -- series access -----------------------------------------------------

    def coefficient(self, exp: tuple) -> "Scalar":
        """Coefficient of t^a s^b in a series scalar."""
        if not is_series(self.ring):
            raise ValueError("not a series scalar")
        return self.parts.get(exp, Scalar.zero(self.ring.base))

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar) or self.ring != other.ring:
            return NotImplemented if not isinstance(other, Scalar) else False
        return self.parts == other.parts

    def __hash__(self):
        if is_series(self.ring):
            return hash((self.ring, tuple(sorted((k, v) for k, v in self.parts.items()))))
        return hash((self.ring, self.parts))

    def __repr__(self):
        return f"Scalar({self.ring}, {format_scalar(self)!r})" if not is_series(self.ring) else f"Scalar({self.ring}, {self.parts})"


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


def format_scalar(s: Scalar) -> str:
    return format_components(s.ring, [(p.numerator, p.denominator) for p in s.parts])


def format_components(ring, comps) -> str:
    """The text of the scalar of ``ring`` whose components are the rationals
    n / d of the (integer) pairs (n, d), d > 0."""
    if is_series(ring):
        raise ValueError("series scalars have no text format")
    units = ("", "i", "j", "k")
    terms = []
    for (n, d), unit in zip(comps, units):
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
    ncomp = _COMPONENTS[ring]
    comps = [Fraction(0)] * ncomp
    unit_index = {"": 0, "i": 1, "j": 2, "k": 3}
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
        idx = unit_index[unit]
        if idx >= ncomp:
            raise ValueError(f"unit {unit!r} not available in ring {ring}")
        try:
            val = Fraction(mag) if mag else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar literal {text!r}") from None
        comps[idx] += -val if sign == "-" else val
    return Scalar(ring, tuple(comps))
