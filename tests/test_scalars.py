"""Exact arithmetic in the coefficient field Q(i, sqrt2)."""

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import pytest
from hypothesis import given, settings, strategies as st

from ladderlie.scalars import ExactScalar, HALF, I, ONE, SQRT2, ZERO


def test_coercion_and_predicates():
    assert ExactScalar.coerce(3) == ExactScalar.rational(3)
    assert ExactScalar.coerce(Fraction(2, 6)) == ExactScalar.rational(1, 3)
    assert ExactScalar.coerce(ONE) is ONE
    assert ZERO.is_zero() and not ONE.is_zero()
    # rational and real are tests on the components
    assert (HALF.q1, HALF.q2, HALF.q3) == (0, 0, 0)
    assert SQRT2.q1 == 1 and (SQRT2.q2, SQRT2.q3) == (0, 0)
    assert I.q2 == 1
    assert ONE != 1 and not ONE == 1
    with pytest.raises(TypeError):
        ExactScalar(0.5)
    with pytest.raises(TypeError):
        ExactScalar.coerce(0.5)


def test_field_operations():
    a = HALF + SQRT2            # 1/2 + sqrt2
    b = I * SQRT2               # i*sqrt2
    assert a - HALF == SQRT2
    assert SQRT2 * SQRT2 == ExactScalar.rational(2)
    assert I * I == -ONE
    assert b * b == ExactScalar.rational(-2)
    assert (a + b) - b == a
    assert 2 * HALF == ONE
    assert -(-a) == a


def _power(z, n):
    """z^n as repeated products, from ONE; a negative n takes the inverse."""
    out = ONE
    for _ in range(abs(n)):
        out = out * (z if n > 0 else z.inverse())
    return out


def test_power():
    assert SQRT2 * SQRT2 * SQRT2 * SQRT2 == ExactScalar.rational(4)
    assert I * I * I == -I
    assert _power(ONE + I, 0) == ONE
    assert HALF * HALF == ExactScalar.rational(1, 4)
    assert _power(SQRT2, -2) == HALF


def test_conjugate():
    z = HALF + SQRT2 + I + I * SQRT2
    w = z.conjugate()
    assert w == HALF + SQRT2 - I - I * SQRT2
    assert (z * w).q2 == (z * w).q3 == 0      # z * conj(z) is real


def test_inverse_over_the_full_field():
    samples = [
        ONE,
        -HALF,
        SQRT2,
        I,
        ONE + SQRT2,
        HALF - I,
        ExactScalar(Fraction(1, 3), Fraction(2), Fraction(-1), Fraction(1, 5)),
    ]
    for z in samples:
        assert z * z.inverse() == ONE
        assert z.inverse().inverse() == z
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division_matches_inverse():
    # a quotient is x * y.inverse(): it undoes the product with y
    z = ONE + I * SQRT2
    w = HALF + SQRT2
    assert z * w.inverse() * w == z
    assert 1 * w.inverse() == w.inverse() and w.inverse() * w == ONE


def test_to_complex():
    z = HALF + I * SQRT2
    c = z.to_complex()
    assert abs(c.real - 0.5) < 1e-15
    assert abs(c.imag - 2 ** 0.5) < 1e-15


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(HALF) == "1/2"
    assert str(-ONE) == "-1"
    assert str(SQRT2) == "sqrt2"
    assert str(2 * SQRT2) == "2*sqrt2"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(I * SQRT2) == "i*sqrt2"
    assert str(HALF + I) == "1/2 + i"
    assert str(HALF - I) == "1/2 - i"


def test_hash_consistency():
    assert hash(HALF + HALF) == hash(ONE)
    d = {ONE: "a"}
    d[HALF * 2] = "b"
    assert d == {ONE: "b"}
    z = HALF + I
    with pytest.raises(AttributeError):
        z.q0 = Fraction(3)
    with pytest.raises(AttributeError):
        z.extra = 1
    assert z == HALF + I


# ---------------------------------------------------------------------------
# Reference implementation: the earlier ExactScalar, four Fraction components
# in a frozen dataclass with rational fast paths in the product.  Kept
# verbatim apart from its names, as an independent oracle for the
# integer-numerator representation.

_SQRT2 = math.sqrt(2.0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, Rational)):
        return Fraction(x)
    raise TypeError(f"expected a rational component, got {type(x).__name__}")


@dataclass(frozen=True)
class RefScalar:
    """Element q0 + q1*sqrt2 + q2*i + q3*i*sqrt2 with rational components.

    The four components form a basis of Q(i, sqrt2) over Q, so equality,
    zero tests and inversion are exact.  Instances are immutable and usable
    as dict keys.
    """

    q0: Fraction = Fraction(0)
    q1: Fraction = Fraction(0)
    q2: Fraction = Fraction(0)
    q3: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "q0", _frac(self.q0))
        object.__setattr__(self, "q1", _frac(self.q1))
        object.__setattr__(self, "q2", _frac(self.q2))
        object.__setattr__(self, "q3", _frac(self.q3))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def coerce(x) -> "RefScalar":
        """Accept RefScalar, int, or Fraction."""
        if isinstance(x, RefScalar):
            return x
        if isinstance(x, (int, Rational)):
            return RefScalar(_frac(x))
        raise TypeError(f"cannot interpret {type(x).__name__} as an exact scalar")

    @staticmethod
    def rational(p, q=1) -> "RefScalar":
        return RefScalar(Fraction(p, q))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.q0 or self.q1 or self.q2 or self.q3)

    def is_rational(self) -> bool:
        return not (self.q1 or self.q2 or self.q3)

    def is_real(self) -> bool:
        return not (self.q2 or self.q3)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = RefScalar.coerce(other)
        return RefScalar(self.q0 + other.q0, self.q1 + other.q1,
                         self.q2 + other.q2, self.q3 + other.q3)

    __radd__ = __add__

    def __sub__(self, other):
        other = RefScalar.coerce(other)
        return RefScalar(self.q0 - other.q0, self.q1 - other.q1,
                         self.q2 - other.q2, self.q3 - other.q3)

    def __rsub__(self, other):
        return RefScalar.coerce(other) - self

    def __neg__(self):
        return RefScalar(-self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other):
        if not isinstance(other, (RefScalar, int, Rational)):
            return NotImplemented
        o = RefScalar.coerce(other)
        a0, a1, a2, a3 = self.q0, self.q1, self.q2, self.q3
        b0, b1, b2, b3 = o.q0, o.q1, o.q2, o.q3
        # fast paths: a factor with only a rational part scales componentwise
        if not (a1 or a2 or a3):
            if not a0:
                return REF_ZERO
            return RefScalar(a0 * b0, a0 * b1, a0 * b2, a0 * b3)
        if not (b1 or b2 or b3):
            if not b0:
                return REF_ZERO
            return RefScalar(a0 * b0, a1 * b0, a2 * b0, a3 * b0)
        # (sqrt2)^2 = 2, i^2 = -1, (i*sqrt2)^2 = -2
        return RefScalar(
            a0 * b0 + 2 * a1 * b1 - a2 * b2 - 2 * a3 * b3,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a2 * b0 + 2 * a1 * b3 + 2 * a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "RefScalar":
        """Complex conjugation: i -> -i."""
        return RefScalar(self.q0, self.q1, -self.q2, -self.q3)

    def inverse(self) -> "RefScalar":
        """Exact multiplicative inverse.

        z * conj(z) is real, of the form u + v*sqrt2; it is cleared of the
        sqrt2 part by the algebraic conjugate u - v*sqrt2, whose product
        u^2 - 2*v^2 is a plain rational.
        """
        if self.is_zero():
            raise ZeroDivisionError("exact scalar division by zero")
        zbar = self.conjugate()
        norm = self * zbar
        u, v = norm.q0, norm.q1
        m = u * u - 2 * v * v  # nonzero: sqrt2 is irrational
        return zbar * RefScalar(u / m, -v / m)

    def __truediv__(self, other):
        if not isinstance(other, (RefScalar, int, Rational)):
            return NotImplemented
        return self * RefScalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return RefScalar.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = REF_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- conversions -------------------------------------------------------

    def to_complex(self) -> complex:
        return complex(float(self.q0) + float(self.q1) * _SQRT2,
                       float(self.q2) + float(self.q3) * _SQRT2)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for coeff, unit in ((self.q0, ""), (self.q1, "sqrt2"),
                            (self.q2, "i"), (self.q3, "i*sqrt2")):
            if coeff == 0:
                continue
            mag = abs(coeff)
            if unit == "":
                body = str(mag)
            elif mag == 1:
                body = unit
            else:
                body = f"{mag}*{unit}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        if not parts:
            return "0"
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"ExactScalar({self})"


REF_ZERO = RefScalar()
REF_ONE = RefScalar(Fraction(1))

# ---------------------------------------------------------------------------

_components = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10, 10), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 6)),
)
_values = st.tuples(_components, _components, _components, _components)


def _same(got, want):
    """Every observable of an ExactScalar agrees with the reference."""
    assert isinstance(got, ExactScalar)
    assert (got.q0, got.q1, got.q2, got.q3) == (want.q0, want.q1, want.q2, want.q3)
    assert all(type(q) is Fraction for q in (got.q0, got.q1, got.q2, got.q3))
    assert str(got) == str(want)
    assert repr(got) == repr(want)
    # the text has a space, and so is parenthesised in a product, exactly
    # when at least two components are nonzero
    assert (" " in str(got)) == (sum(q != 0 for q in (want.q0, want.q1, want.q2, want.q3)) > 1)
    assert (got.is_zero(), bool(got)) == (want.is_zero(), bool(want))
    c, r = got.to_complex(), want.to_complex()
    assert (c.real.hex(), c.imag.hex()) == (r.real.hex(), r.imag.hex())
    rebuilt = ExactScalar(want.q0, want.q1, want.q2, want.q3)
    assert got == rebuilt and hash(got) == hash(rebuilt)


@settings(max_examples=300, deadline=None)
@given(_values, _values, st.integers(-3, 4),
       st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)))
def test_matches_fraction_reference(qa, qb, power, r):
    a, b = ExactScalar(*qa), ExactScalar(*qb)
    ra, rb = RefScalar(*qa), RefScalar(*qb)
    _same(a, ra)
    _same(b, rb)
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(a * b, ra * rb)
    _same(-a, -ra)
    _same(a.conjugate(), ra.conjugate())
    for x in (r, r.numerator):
        _same(a + x, ra + x)
        _same(x + a, x + ra)
        _same(a - x, ra - x)
        _same(x - a, x - ra)
        _same(a * x, ra * x)
        _same(x * a, x * ra)
    # a quotient x / y is x * y.inverse(), and a power is repeated products
    if r:
        _same(a * ExactScalar.coerce(r).inverse(), ra / r)
    if b:
        _same(b.inverse(), rb.inverse())
        _same(a * b.inverse(), ra / rb)
        _same(r * b.inverse(), r / rb)
        _same(_power(b, power), rb ** power)
    else:
        for fn in (lambda z: z.inverse(), lambda z: a * z.inverse(),
                   lambda z: _power(z, -1)):
            with pytest.raises(ZeroDivisionError):
                fn(b)
    if not a:
        assert a == ZERO
    assert (a == b) == (ra == rb)
    # equal values reached by different routes hash equally
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
