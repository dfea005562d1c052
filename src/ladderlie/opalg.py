"""Multi-mode bosonic ladder-operator algebra with exact normal ordering.

Expressions are finite sums of normally ordered monomials
coeff * ad_1^c1 ... ad_M^cM * a_1^d1 ... a_M^dM over the exact scalar ring.
Products follow from [a_i, ad_j] = delta_ij in closed form: modes commute,
so the product of two monomials factors per mode, and on one mode
a^d ad^c = sum_k k! C(d, k) C(c, k) ad^(c-k) a^(d-k).  Commutators of
quadratic generators come out exactly; no floating point is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from numbers import Rational
from typing import Iterable, Sequence

from .scalars import ExactScalar, I, ONE, ZERO, signed_sum

CREATE = "create"
ANNIHILATE = "annihilate"


@dataclass(frozen=True)
class LadderSymbol:
    """A single ladder operator: mode index (1-based) and kind."""

    mode: int
    kind: str

    def __post_init__(self):
        if self.kind not in (CREATE, ANNIHILATE):
            raise ValueError(f"kind must be {CREATE!r} or {ANNIHILATE!r}, got {self.kind!r}")
        if self.mode < 1:
            raise ValueError(f"mode index must be >= 1, got {self.mode}")

    @property
    def is_creation(self) -> bool:
        return self.kind == CREATE


def create(mode: int) -> LadderSymbol:
    return LadderSymbol(mode, CREATE)


def annihilate(mode: int) -> LadderSymbol:
    return LadderSymbol(mode, ANNIHILATE)


@dataclass(frozen=True)
class NormalMonomial:
    """coeff * prod_m ad_m^cdeg[m] * prod_m a_m^adeg[m] (creations left)."""

    coeff: ExactScalar
    cdeg: tuple
    adeg: tuple

    @property
    def degree(self) -> int:
        return sum(self.cdeg) + sum(self.adeg)


# Largest `^` exponent parse_expr accepts, counting chained exponents
# (x^a^b is x^(a*b)).
MAX_EXPONENT = 6

# Deepest parenthesis nesting parse_expr accepts.  Each level is a few
# frames of the recursive descent, so without a cap deep nesting would end
# in RecursionError instead of a syntax error.
MAX_NESTING = 64

# Largest total degree parse_expr lets a `*` or `^` produce.  perfbench
# parses monomials up to ad1^4*ad2^4*a1^4*a2^4, so 16 is also the floor.
MAX_DEGREE = 16

# Largest number of monomial pairs parse_expr lets one product multiply.
# Within the degree cap the term count of dense operands still grows
# steeply: the last product of ((x1+p1+x2+p2)^4)^4 has 13,570 pairs and the
# whole parse took 7-9 s.
MAX_PRODUCT_PAIRS = 4096


class ExprSyntaxError(ValueError):
    """Parse failure; carries the character position of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _term_sort_key(key):
    cdeg, adeg = key
    total = sum(cdeg) + sum(adeg)
    return (-total, tuple(-c for c in cdeg), tuple(-a for a in adeg))


class OperatorExpr:
    """A normally ordered operator polynomial on a fixed number of modes.

    Immutable.  Equality is structural, which by the normal-form property is
    operator equality.  Arithmetic re-normal-orders automatically.
    """

    __slots__ = ("modes", "_terms")

    def __init__(self, modes: int, terms=None):
        if modes < 1:
            raise ValueError(f"mode count must be >= 1, got {modes}")
        object.__setattr__(self, "modes", modes)
        clean = {}
        if terms:
            for key, coeff in terms.items():
                coeff = ExactScalar.coerce(coeff)
                if coeff.is_zero():
                    continue
                cdeg, adeg = key
                cdeg = tuple(int(x) for x in cdeg)
                adeg = tuple(int(x) for x in adeg)
                if len(cdeg) != modes or len(adeg) != modes:
                    raise ValueError("degree tuples must have one entry per mode")
                if any(x < 0 for x in cdeg + adeg):
                    raise ValueError("degrees must be non-negative")
                clean[(cdeg, adeg)] = coeff
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _of(cls, modes: int, terms: dict) -> "OperatorExpr":
        """Internal result: keeps `terms` (canonical keys, ExactScalar
        values), with its zero coefficients deleted, and checks nothing else."""
        for key in [key for key, coeff in terms.items() if coeff.is_zero()]:
            del terms[key]
        out = object.__new__(cls)
        object.__setattr__(out, "modes", modes)
        object.__setattr__(out, "_terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("OperatorExpr is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(modes: int) -> "OperatorExpr":
        return OperatorExpr(modes)

    @staticmethod
    def constant(value, modes: int) -> "OperatorExpr":
        z = (0,) * modes
        return OperatorExpr(modes, {(z, z): ExactScalar.coerce(value)})

    @staticmethod
    def from_symbol(sym: LadderSymbol, modes: int) -> "OperatorExpr":
        if sym.mode > modes:
            raise ValueError(f"mode {sym.mode} out of range for {modes} mode(s)")
        c = [0] * modes
        a = [0] * modes
        (c if sym.is_creation else a)[sym.mode - 1] = 1
        return OperatorExpr(modes, {(tuple(c), tuple(a)): ONE})

    # -- views ------------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """Monomials in canonical order (degree-major, mode-1-major)."""
        keys = sorted(self._terms, key=_term_sort_key)
        return tuple(NormalMonomial(self._terms[k], k[0], k[1]) for k in keys)

    def coefficient(self, cdeg: Sequence[int], adeg: Sequence[int]) -> ExactScalar:
        return self._terms.get((tuple(cdeg), tuple(adeg)), ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        z = ((0,) * self.modes, (0,) * self.modes)
        return not self._terms or set(self._terms) == {z}

    def as_scalar(self) -> ExactScalar:
        if not self.is_constant():
            raise ValueError("expression is not a pure scalar")
        z = ((0,) * self.modes, (0,) * self.modes)
        return self._terms.get(z, ZERO)

    @property
    def degree(self) -> int:
        return max((sum(c) + sum(a) for (c, a) in self._terms), default=0)

    # -- arithmetic -----------------------------------------------------------

    def _check_modes(self, other: "OperatorExpr"):
        if self.modes != other.modes:
            raise ValueError(
                f"mode-count mismatch: {self.modes} vs {other.modes}")

    def __add__(self, other):
        if isinstance(other, (ExactScalar, int, Rational)):
            other = OperatorExpr.constant(other, self.modes)
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        self._check_modes(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            out[key] = out[key] + coeff if key in out else coeff
        return OperatorExpr._of(self.modes, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (ExactScalar, int, Rational)):
            other = OperatorExpr.constant(other, self.modes)
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return OperatorExpr._of(self.modes, {k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (ExactScalar, int, Rational)):
            s = ExactScalar.coerce(other)
            return OperatorExpr._of(self.modes, {k: c * s for k, c in self._terms.items()})
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        self._check_modes(other)
        acc: dict = {}
        for (c1, a1), s1 in self._terms.items():
            for (c2, a2), s2 in other._terms.items():
                _accumulate(acc, s1 * s2, _monomial_product(c1, a1, c2, a2))
        return OperatorExpr._of(self.modes, acc)

    def __rmul__(self, other):
        if isinstance(other, (ExactScalar, int, Rational)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, OperatorExpr):
            other = other.as_scalar()
        s = ExactScalar.coerce(other)
        return self * s.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers need a non-negative integer "
                             "exponent")
        out = OperatorExpr.constant(ONE, self.modes)
        for _ in range(n):
            out = out * self
        return out

    def adjoint(self) -> "OperatorExpr":
        """Hermitian adjoint; the swapped word is already normally ordered."""
        return OperatorExpr._of(self.modes, {(a, c): s.conjugate()
                                             for (c, a), s in self._terms.items()})

    def __eq__(self, other):
        if isinstance(other, (ExactScalar, int, Rational)):
            return self.is_constant() and self.as_scalar() == ExactScalar.coerce(other)
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self.modes == other.modes and self._terms == other._terms

    def __hash__(self):
        return hash((self.modes, frozenset(self._terms.items())))

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, stable term order (used for golden output)."""
        return signed_sum((mono.coeff, _render_symbols(mono.cdeg, mono.adeg))
                          for mono in self.terms)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"OperatorExpr({self.modes}, {self.render()!r})"


def _monomial_product(c1, a1, c2, a2) -> list:
    """ad^c1 a^a1 * ad^c2 a^a2 in normal order, as [(weight, (cdeg, adeg))].

    Per mode, a^d ad^c = sum_k k! C(d, k) C(c, k) ad^(c-k) a^(d-k)
    (Blasiak, Penson & Solomon, arXiv:quant-ph/0212072).  Modes commute, so
    the product factors per mode; a mode with d or c zero has only k = 0.
    The keys are distinct, and the first entry is the term with k = 0 on
    every mode: weight 1, key (c1 + c2, a1 + a2).
    """
    out = [(1, (tuple(x + y for x, y in zip(c1, c2)),
                tuple(x + y for x, y in zip(a1, a2))))]
    for m, (d, c) in enumerate(zip(a1, c2)):
        if d and c:
            out = [(w * factorial(k) * comb(d, k) * comb(c, k),
                    (cdeg[:m] + (cdeg[m] - k,) + cdeg[m + 1:],
                     adeg[:m] + (adeg[m] - k,) + adeg[m + 1:]))
                   for w, (cdeg, adeg) in out for k in range(min(d, c) + 1)]
    return out


def _accumulate(acc: dict, s: ExactScalar, weighted) -> None:
    """acc[key] += s * weight for each (weight, key); integer weights."""
    for weight, key in weighted:
        term = s if weight == 1 else s * weight
        acc[key] = acc[key] + term if key in acc else term


def normal_order(raw: Iterable, modes: int) -> OperatorExpr:
    """Normal order a raw sum of (coefficient, [LadderSymbol, ...]) words."""
    total = OperatorExpr.zero(modes)
    for coeff, word in raw:
        product = OperatorExpr.constant(coeff, modes)
        for s in word:
            if not isinstance(s, LadderSymbol):
                raise TypeError("words must contain LadderSymbol entries")
            product = product * OperatorExpr.from_symbol(s, modes)
        total = total + product
    return total


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """[a, b] = a*b - b*a, normally ordered.

    Each pair of monomials s_x x of a and s_y y of b contributes
    s_x s_y (x y - y x).  Both normal-ordered products hold the uncontracted
    term (all k = 0, weight 1) and it cancels, so it is never formed; the
    integer weights of the other terms are netted per key before they touch
    the scalar s_x s_y.
    """
    if a.modes != b.modes:
        raise ValueError(f"mode-count mismatch: {a.modes} vs {b.modes}")
    acc: dict = {}
    for (c1, a1), s1 in a._terms.items():
        for (c2, a2), s2 in b._terms.items():
            net = {key: weight for weight, key in _monomial_product(c1, a1, c2, a2)[1:]}
            for weight, key in _monomial_product(c2, a2, c1, a1)[1:]:
                net[key] = net.get(key, 0) - weight
            weighted = [(w, key) for key, w in net.items() if w]
            if weighted:
                _accumulate(acc, s1 * s2, weighted)
    return OperatorExpr._of(a.modes, acc)


def adjoint(a: OperatorExpr) -> OperatorExpr:
    return a.adjoint()


def annihilation_op(mode: int, modes: int) -> OperatorExpr:
    return OperatorExpr.from_symbol(annihilate(mode), modes)


def creation_op(mode: int, modes: int) -> OperatorExpr:
    return OperatorExpr.from_symbol(create(mode), modes)


def number_op(mode: int, modes: int) -> OperatorExpr:
    return creation_op(mode, modes) * annihilation_op(mode, modes)


_INV_SQRT2 = ExactScalar(0, Fraction(1, 2))          # 1/sqrt2 = sqrt2/2
_I_INV_SQRT2 = ExactScalar(0, 0, 0, Fraction(1, 2))  # i/sqrt2


def position(mode: int, modes: int) -> OperatorExpr:
    """x = (a + ad)/sqrt2, the convention that gives [x, p] = i."""
    return (annihilation_op(mode, modes) + creation_op(mode, modes)) * _INV_SQRT2


def momentum(mode: int, modes: int) -> OperatorExpr:
    """p = i(ad - a)/sqrt2."""
    return (creation_op(mode, modes) - annihilation_op(mode, modes)) * _I_INV_SQRT2


def _render_symbols(cdeg, adeg) -> str:
    bits = []
    for m, c in enumerate(cdeg, start=1):
        if c == 1:
            bits.append(f"ad{m}")
        elif c > 1:
            bits.append(f"ad{m}^{c}")
    for m, d in enumerate(adeg, start=1):
        if d == 1:
            bits.append(f"a{m}")
        elif d > 1:
            bits.append(f"a{m}^{d}")
    return "*".join(bits)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str):
    tokens = []
    n = len(text)
    k = 0
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdecimal():
            j = k
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("number", text[k:j], k))
            k = j
            continue
        if ch.isalpha() or ch == "†":
            j = k
            while j < n and (text[j].isalnum() or text[j] == "†"):
                j += 1
            tokens.append(_Token("name", text[k:j], k))
            k = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, k))
            k += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch, k))
            k += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ch, k))
            k += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", k)
    tokens.append(_Token("end", "", n))
    return tokens


def _symbol_expr(name: str, pos: int, modes: int) -> OperatorExpr:
    if name == "i":
        return OperatorExpr.constant(I, modes)
    if name == "sqrt2":
        return OperatorExpr.constant(ExactScalar(0, 1), modes)
    for prefix, builder in (("ad", creation_op), ("a†", creation_op),
                            ("a", annihilation_op), ("x", position), ("p", momentum)):
        if name.startswith(prefix) and name[len(prefix):].isdecimal():
            mode = int(name[len(prefix):])
            if not 1 <= mode <= modes:
                raise ExprSyntaxError(
                    f"mode index {mode} out of range 1..{modes}", pos)
            return builder(mode, modes)
    raise ExprSyntaxError(f"unknown symbol {name!r}", pos)


def _check_degree(degree: int, pos: int):
    if degree > MAX_DEGREE:
        raise ExprSyntaxError(
            f"degree {degree} exceeds the cap of {MAX_DEGREE}", pos)


def _product(left: OperatorExpr, right: OperatorExpr, pos: int) -> OperatorExpr:
    pairs = len(left._terms) * len(right._terms)
    if pairs > MAX_PRODUCT_PAIRS:
        raise ExprSyntaxError(
            f"product of {pairs} term pairs exceeds the cap of {MAX_PRODUCT_PAIRS}", pos)
    return left * right


class _Parser:
    """Recursive descent over + - * / with unary sign and parentheses."""

    def __init__(self, tokens, modes: int):
        self.tokens = tokens
        self.k = 0
        self.modes = modes
        self.depth = 0                  # open parentheses around the current token

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def parse(self) -> OperatorExpr:
        expr = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return expr

    def expr(self) -> OperatorExpr:
        left = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            right = self.term()
            left = left + right if op.text == "+" else left - right
        return left

    def term(self) -> OperatorExpr:
        left = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            right = self.factor()
            if op.text == "*":
                _check_degree(left.degree + right.degree, op.pos)
                left = _product(left, right, op.pos)
            else:
                if not right.is_constant():
                    raise ExprSyntaxError("divisor must be a scalar", op.pos)
                s = right.as_scalar()
                if s.is_zero():
                    raise ExprSyntaxError("division by zero", op.pos)
                left = left * s.inverse()
        return left

    def factor(self) -> OperatorExpr:
        """Leading signs, folded in a loop, then a power."""
        negate = False
        while self.peek().kind == "op" and self.peek().text in "+-":
            negate ^= self.advance().text == "-"
        inner = self.power()
        return -inner if negate else inner

    def power(self) -> OperatorExpr:
        """An atom and its `^` chain; the power is formed as repeated `*`."""
        base = self.atom()
        exponent = 1
        while self.peek().kind == "op" and self.peek().text == "^":
            op = self.advance()
            tok = self.advance()
            if tok.kind != "number":
                raise ExprSyntaxError(
                    "exponent must be a non-negative integer", op.pos)
            # digit count first: int() refuses literals over 4300 digits
            if (len(tok.text.lstrip("0")) > len(str(MAX_EXPONENT))
                    or exponent * int(tok.text) > MAX_EXPONENT):
                raise ExprSyntaxError(
                    f"exponent exceeds the cap of {MAX_EXPONENT}", tok.pos)
            exponent *= int(tok.text)
            _check_degree(base.degree * exponent, op.pos)
        if exponent == 0:
            return OperatorExpr.constant(ONE, self.modes)
        out = base
        for _ in range(exponent - 1):
            out = _product(out, base, op.pos)
        return out

    def atom(self) -> OperatorExpr:
        tok = self.advance()
        if tok.kind == "number":
            try:
                value = int(tok.text)
            except ValueError:  # over sys.get_int_max_str_digits() digits
                raise ExprSyntaxError(
                    f"integer literal of {len(tok.text)} digits is too long",
                    tok.pos) from None
            return OperatorExpr.constant(ExactScalar.rational(value), self.modes)
        if tok.kind == "name":
            return _symbol_expr(tok.text, tok.pos, self.modes)
        if tok.kind == "lparen":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            closing = self.advance()
            if closing.kind != "rparen":
                raise ExprSyntaxError("expected ')'", closing.pos)
            return inner
        if tok.kind == "end":
            raise ExprSyntaxError("unexpected end of input", tok.pos)
        raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)


def parse_expr(text: str, modes: int = 1) -> OperatorExpr:
    """Parse an operator expression into normal form.

    Accepts integer literals, rationals spelled n/m, the constants i and
    sqrt2, ladder symbols a1/ad1 (ad may be spelled with a dagger sign),
    quadrature symbols x1/p1, operators + - * / ^, and parentheses.  Mode
    indices are validated against `modes`; a `^` exponent (chained ones
    multiplied) above MAX_EXPONENT, a `*` or `^` whose result would exceed
    total degree MAX_DEGREE, and a single product of more than
    MAX_PRODUCT_PAIRS monomial pairs are refused before the product is formed;
    so are parentheses nested deeper than MAX_NESTING.
    Syntax errors carry the character position.
    """
    if modes < 1:
        raise ValueError(f"mode count must be >= 1, got {modes}")
    return _Parser(_tokenize(text), modes).parse()
