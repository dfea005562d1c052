"""Exact scalar arithmetic over the ring Q(i, sqrt2).

Every coefficient that appears when quadratic ladder-operator expressions are
normal ordered, conjugated, or expanded in a basis lives in the field
Q(i, sqrt2): rational combinations of 1, sqrt2, i and i*sqrt2.  Working in this
field keeps the whole commutator pipeline exact; floats only enter in the
numeric cross-check layers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

_SQRT2 = math.sqrt(2.0)
_UNITS = ("", "sqrt2", "i", "i*sqrt2")


def _make(n0: int, n1: int, n2: int, n3: int, d: int) -> "ExactScalar":
    """(n0 + n1*sqrt2 + n2*i + n3*i*sqrt2) / d for d > 0, in lowest terms."""
    g = math.gcd(n0, n1, n2, n3, d)
    z = object.__new__(ExactScalar)
    z._n0, z._n1, z._n2, z._n3, z._d = n0 // g, n1 // g, n2 // g, n3 // g, d // g
    return z


class ExactScalar:
    """Element q0 + q1*sqrt2 + q2*i + q3*i*sqrt2 with rational components.

    The four components form a basis of Q(i, sqrt2) over Q, so equality,
    zero tests and inversion are exact.  They are stored as four integer
    numerators over one positive denominator, in lowest terms, so each value
    has exactly one representation.  Instances are immutable and usable as
    dict keys.
    """

    __slots__ = ("_n0", "_n1", "_n2", "_n3", "_d")

    q0 = property(lambda self: Fraction(self._n0, self._d), doc="rational part")
    q1 = property(lambda self: Fraction(self._n1, self._d), doc="sqrt2 part")
    q2 = property(lambda self: Fraction(self._n2, self._d), doc="i part")
    q3 = property(lambda self: Fraction(self._n3, self._d), doc="i*sqrt2 part")

    # -- constructors ---------------------------------------------------

    def __new__(cls, q0=0, q1=0, q2=0, q3=0):
        qs = (q0, q1, q2, q3)
        for q in qs:
            if not isinstance(q, Rational):
                raise TypeError(f"expected a rational component, got {type(q).__name__}")
        d = math.lcm(*(int(q.denominator) for q in qs))
        return _make(*(int(q.numerator) * (d // int(q.denominator)) for q in qs), d)

    @staticmethod
    def coerce(x) -> "ExactScalar":
        """Accept ExactScalar, int, or Fraction."""
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Rational)):
            return ExactScalar(x)
        raise TypeError(f"cannot interpret {type(x).__name__} as an exact scalar")

    @staticmethod
    def rational(p, q=1) -> "ExactScalar":
        return ExactScalar(Fraction(p, q))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._n0 or self._n1 or self._n2 or self._n3)

    def __eq__(self, other):
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return (self._n0 == other._n0 and self._n1 == other._n1 and self._n2 == other._n2
                and self._n3 == other._n3 and self._d == other._d)

    def __hash__(self):
        return hash((self._n0, self._n1, self._n2, self._n3, self._d))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = ExactScalar.coerce(other)
        d, e = self._d, o._d
        return _make(self._n0 * e + o._n0 * d, self._n1 * e + o._n1 * d,
                     self._n2 * e + o._n2 * d, self._n3 * e + o._n3 * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = ExactScalar.coerce(other)
        d, e = self._d, o._d
        return _make(self._n0 * e - o._n0 * d, self._n1 * e - o._n1 * d,
                     self._n2 * e - o._n2 * d, self._n3 * e - o._n3 * d, d * e)

    def __rsub__(self, other):
        return ExactScalar.coerce(other) - self

    def __neg__(self):
        return _make(-self._n0, -self._n1, -self._n2, -self._n3, self._d)

    def __mul__(self, other):
        if type(other) is int:  # an integer weight scales the numerators
            return _make(self._n0 * other, self._n1 * other, self._n2 * other,
                         self._n3 * other, self._d)
        if not isinstance(other, (ExactScalar, int, Rational)):
            return NotImplemented
        o = ExactScalar.coerce(other)
        a0, a1, a2, a3 = self._n0, self._n1, self._n2, self._n3
        b0, b1, b2, b3 = o._n0, o._n1, o._n2, o._n3
        # (sqrt2)^2 = 2, i^2 = -1, (i*sqrt2)^2 = -2
        return _make(
            a0 * b0 + 2 * a1 * b1 - a2 * b2 - 2 * a3 * b3,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a2 * b0 + 2 * a1 * b3 + 2 * a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
            self._d * o._d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "ExactScalar":
        """Complex conjugation: i -> -i."""
        return _make(self._n0, self._n1, -self._n2, -self._n3, self._d)

    def inverse(self) -> "ExactScalar":
        """Exact multiplicative inverse.

        z * conj(z) is real, (u + v*sqrt2)/d; it is cleared of the sqrt2 part
        by the algebraic conjugate, since (u + v*sqrt2)(u - v*sqrt2) is the
        plain integer u^2 - 2*v^2, so 1/(z * conj(z)) = d*(u - v*sqrt2)/m.
        """
        if self.is_zero():
            raise ZeroDivisionError("exact scalar division by zero")
        zbar = self.conjugate()
        norm = self * zbar
        u, v, d = norm._n0, norm._n1, norm._d
        # m > 0: m/d^2 = |z|^2 * |s(z)|^2, where s maps sqrt2 to -sqrt2
        m = u * u - 2 * v * v
        return zbar * _make(u * d, -v * d, 0, 0, m)

    # -- conversions -------------------------------------------------------

    def to_complex(self) -> complex:
        # int / int is correctly rounded, the same float as float(Fraction)
        d = self._d
        return complex(self._n0 / d + self._n1 / d * _SQRT2,
                       self._n2 / d + self._n3 / d * _SQRT2)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        d = self._d
        return signed_sum((Fraction(n, d), unit) for n, unit in
                          zip((self._n0, self._n1, self._n2, self._n3), _UNITS) if n)

    def __repr__(self) -> str:
        return f"ExactScalar({self})"


def signed_sum(terms, sep: str = "*") -> str:
    """Text of a sum of (coefficient, symbol) terms, in the order given.

    Zero coefficients are left out.  An empty symbol prints the coefficient
    alone.  Otherwise a coefficient of 1 is dropped, -1 leaves a leading '-',
    and a coefficient that prints as a sum is parenthesised; `sep` joins the
    coefficient to the symbol.  Terms join with ' + ', or ' - ' before a
    term that starts with '-'; an empty sum prints '0'.
    """
    out = ""
    for coeff, symbol in terms:
        body = str(coeff)
        if body == "0":
            continue
        if symbol:
            if body in ("1", "-1"):
                body = body[:-1] + symbol  # "1" -> symbol, "-1" -> -symbol
            else:
                body = f"({body}){sep}{symbol}" if " " in body else f"{body}{sep}{symbol}"
        if not out:
            out = body
        else:
            out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
    return out or "0"


ZERO = ExactScalar()
ONE = ExactScalar(1)
I = ExactScalar(0, 0, 1)
SQRT2 = ExactScalar(0, 1)
HALF = ExactScalar(Fraction(1, 2))
