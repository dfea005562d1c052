"""Multi-mode bosonic ladder-operator algebra with exact normal ordering.

Expressions are finite sums of normally ordered monomials
coeff * ad_1^c1 ... ad_M^cM * a_1^d1 ... a_M^dM over the exact scalar ring.
Products follow from [a_i, ad_j] = delta_ij in closed form: modes commute,
so the product of two monomials factors per mode, and on one mode
a^d ad^c = sum_k k! C(d, k) C(c, k) ad^(c-k) a^(d-k), whose weights one
integer recurrence gives (`_contractions`).  x y and y x put the same
contraction vector on the same key, so a commutator is read off one pass
over those vectors.  No floating point is involved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Sequence

from .scalars import ExactScalar, I, ONE, ZERO, signed_sum
from .sparse import SCALAR_TYPES, SparseExact


@dataclass(frozen=True)
class NormalMonomial:
    """coeff * prod_m ad_m^cdeg[m] * prod_m a_m^adeg[m] (creations left)."""

    coeff: ExactScalar
    cdeg: tuple
    adeg: tuple


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

# Largest mode count an OperatorExpr (and so parse_expr) accepts.  Every
# monomial key holds one degree per mode, so the cost of each operation grows
# with the mode count even for a one-mode expression: parse_expr("a1*ad1",
# 10**6) took 0.8 s.
MAX_MODES = 64


def check_integer_fields(**fields):
    """Refuse a value that is a bool or not an integer (16.0 too), under its
    keyword's name; numpy integers pass."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_mode_count(modes: int):
    check_integer_fields(modes=modes)
    if not 1 <= modes <= MAX_MODES:
        raise ValueError(f"mode count must be between 1 and {MAX_MODES}, got {modes}")


class ExprSyntaxError(ValueError):
    """Parse failure; carries the character position of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _term_sort_key(key):
    cdeg, adeg = key
    total = sum(cdeg) + sum(adeg)
    return (-total, tuple(-c for c in cdeg), tuple(-a for a in adeg))


class OperatorExpr(SparseExact):
    """A normally ordered operator polynomial on a fixed number of modes.

    Immutable.  Equality is structural, which by the normal-form property is
    operator equality.  Arithmetic re-normal-orders automatically.  The mode
    count is 1..MAX_MODES.
    """

    __slots__ = ()
    modes = SparseExact.dim

    def __init__(self, modes: int, terms=None):
        _check_mode_count(modes)
        object.__setattr__(self, "dim", modes)
        clean = {}
        if terms:
            for (cdeg, adeg), coeff in terms.items():
                for x in (*cdeg, *adeg):
                    check_integer_fields(degree=x)
                cdeg, adeg = tuple(map(int, cdeg)), tuple(map(int, adeg))
                if len(cdeg) != modes or len(adeg) != modes:
                    raise ValueError("degree tuples must have one entry per mode")
                if any(x < 0 for x in cdeg + adeg):
                    raise ValueError("degrees must be non-negative")
                coeff = ExactScalar.coerce(coeff)
                if not coeff.is_zero():
                    clean[(cdeg, adeg)] = coeff
        object.__setattr__(self, "_nonzero", clean)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(modes: int) -> "OperatorExpr":
        return OperatorExpr(modes)

    @staticmethod
    def constant(value, modes: int) -> "OperatorExpr":
        _check_mode_count(modes)
        z = (0,) * modes
        return OperatorExpr(modes, {(z, z): ExactScalar.coerce(value)})

    # -- views ------------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """Monomials in canonical order (degree-major, mode-1-major)."""
        keys = sorted(self._nonzero, key=_term_sort_key)
        return tuple(NormalMonomial(self._nonzero[k], k[0], k[1]) for k in keys)

    def coefficient(self, cdeg: Sequence[int], adeg: Sequence[int]) -> ExactScalar:
        return self._nonzero.get((tuple(cdeg), tuple(adeg)), ZERO)

    def is_constant(self) -> bool:
        z = ((0,) * self.modes, (0,) * self.modes)
        return not self._nonzero or set(self._nonzero) == {z}

    def as_scalar(self) -> ExactScalar:
        if not self.is_constant():
            raise ValueError("expression is not a pure scalar")
        z = ((0,) * self.modes, (0,) * self.modes)
        return self._nonzero.get(z, ZERO)

    @property
    def degree(self) -> int:
        return max((sum(c) + sum(a) for (c, a) in self._nonzero), default=0)

    # -- arithmetic -----------------------------------------------------------
    # (negation, scalar multiples, equality and hash come from SparseExact)

    def __add__(self, other):
        if isinstance(other, SCALAR_TYPES):
            other = OperatorExpr.constant(other, self.modes)
        return super().__add__(other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, SCALAR_TYPES):
            other = OperatorExpr.constant(other, self.modes)
        return super().__sub__(other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, OperatorExpr):
            return super().__mul__(other)
        self._check(other)
        acc: dict = {}
        for (c1, a1), s1 in self._nonzero.items():
            for (c2, a2), s2 in other._nonzero.items():
                _accumulate(acc, s1 * s2, _monomial_product(c1, a1, c2, a2))
        return OperatorExpr._of(self.modes, acc)

    def adjoint(self) -> "OperatorExpr":
        """Hermitian adjoint; the swapped word is already normally ordered."""
        return OperatorExpr._of(self.modes, {(a, c): s.conjugate()
                                             for (c, a), s in self._nonzero.items()})

    def __eq__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self.is_constant() and self.as_scalar() == ExactScalar.coerce(other)
        return super().__eq__(other)

    __hash__ = SparseExact.__hash__     # an overridden __eq__ unsets it

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, stable term order (used for golden output)."""
        return signed_sum((mono.coeff, _render_symbols(mono.cdeg, mono.adeg))
                          for mono in self.terms)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"OperatorExpr({self.modes}, {self.render()!r})"


def _contractions(d: int, c: int, top: int):
    """k! C(d, k) C(c, k) for k = 0..top: on one mode, the weight of
    ad^(c-k) a^(d-k) in a^d ad^c (Blasiak, Penson & Solomon,
    arXiv:quant-ph/0212072), by the exact recurrence
    w_(k+1) = w_k (d - k)(c - k) / (k + 1); 0 past min(d, c)."""
    w = 1
    for k in range(top + 1):
        yield w
        w = w * (d - k) * (c - k) // (k + 1)


def _monomial_product(c1, a1, c2, a2) -> list:
    """ad^c1 a^a1 * ad^c2 a^a2 in normal order, as [(weight, (cdeg, adeg))].

    Modes commute, so the product factors per mode: k contractions on a mode
    take k from both degrees of the key.  The keys are distinct.
    """
    out = [(1, (), ())]
    for x1, y1, x2, y2 in zip(c1, a1, c2, a2):
        steps = [(p, (x1 + x2 - k,), (y1 + y2 - k,))
                 for k, p in enumerate(_contractions(y1, x2, min(y1, x2)))]
        out = [(w * p, cdeg + c, adeg + d) for w, cdeg, adeg in out for p, c, d in steps]
    return [(w, (cdeg, adeg)) for w, cdeg, adeg in out]


def _accumulate(acc: dict, s: ExactScalar, weighted) -> None:
    """acc[key] += s * weight for each (weight, key); integer weights."""
    for weight, key in weighted:
        term = s if weight == 1 else s * weight
        acc[key] = acc[key] + term if key in acc else term


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """[a, b] = a*b - b*a, normally ordered.

    Each pair of monomials s_x x of a and s_y y of b contributes
    s_x s_y (x y - y x).  Per mode, k contractions put both products on the
    same key, with weights _contractions(a_x, c_y) and _contractions(a_y,
    c_x).  So one pass over the box of contraction vectors carries both
    weights side by side and keeps the keys where they differ; the
    uncontracted term (weight 1 in both) never reaches the scalar s_x s_y.
    """
    a._check(b)
    acc: dict = {}
    for (c1, a1), s1 in a._nonzero.items():
        for (c2, a2), s2 in b._nonzero.items():
            out = [(1, 1, (), ())]
            for x1, y1, x2, y2 in zip(c1, a1, c2, a2):
                top = max(min(y1, x2), min(y2, x1))
                steps = [(p, q, (x1 + x2 - k,), (y1 + y2 - k,)) for k, p, q in
                         zip(range(top + 1), _contractions(y1, x2, top),
                             _contractions(y2, x1, top))]
                out = [(u * p, v * q, cdeg + c, adeg + d)
                       for u, v, cdeg, adeg in out for p, q, c, d in steps]
            weighted = [(u - v, (cdeg, adeg)) for u, v, cdeg, adeg in out if u != v]
            if weighted:
                _accumulate(acc, s1 * s2, weighted)
    return OperatorExpr._of(a.modes, acc)


# The method, as on ExactMatrix: the same function object, so whatever rebinds
# `commutator` (a profiling hook, a test spy) finds both names.
OperatorExpr.commutator = commutator


def _ladder_op(mode: int, modes: int, creation: bool) -> OperatorExpr:
    """ad_mode or a_mode: the one unit key, with coefficient 1."""
    _check_mode_count(modes)
    check_integer_fields(mode=mode)
    if not 1 <= mode <= modes:
        raise ValueError(f"mode {mode} out of range for {modes} mode(s)")
    zero = (0,) * modes
    unit = zero[:mode - 1] + (1,) + zero[mode:]
    return OperatorExpr(modes, {(unit, zero) if creation else (zero, unit): ONE})


def annihilation_op(mode: int, modes: int) -> OperatorExpr:
    return _ladder_op(mode, modes, creation=False)


def creation_op(mode: int, modes: int) -> OperatorExpr:
    return _ladder_op(mode, modes, creation=True)


_INV_SQRT2 = ExactScalar(0, Fraction(1, 2))          # 1/sqrt2 = sqrt2/2
_I_INV_SQRT2 = ExactScalar(0, 0, 0, Fraction(1, 2))  # i/sqrt2


def position(mode: int, modes: int) -> OperatorExpr:
    """x = (a + ad)/sqrt2, the convention that gives [x, p] = i."""
    return (annihilation_op(mode, modes) + creation_op(mode, modes)) * _INV_SQRT2


def momentum(mode: int, modes: int) -> OperatorExpr:
    """p = i(ad - a)/sqrt2."""
    return (creation_op(mode, modes) - annihilation_op(mode, modes)) * _I_INV_SQRT2


def _render_symbols(cdeg, adeg) -> str:
    return "*".join(f"{name}{m}" if k == 1 else f"{name}{m}^{k}"
                    for name, degrees in (("ad", cdeg), ("a", adeg))
                    for m, k in enumerate(degrees, start=1) if k)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


# One token per match.  On str patterns \s, \d and [^\W_] are exactly
# str.isspace, str.isdecimal and str.isalnum.
_TOKEN = re.compile(r"(?P<space>\s+)|(?P<number>\d+)|(?P<name>(?:[^\W_]|†)+)"
                    r"|(?P<op>[-+*/^])|(?P<lparen>\()|(?P<rparen>\))")


def _tokenize(text: str):
    tokens = []
    k = 0
    while k < len(text):
        match = _TOKEN.match(text, k)
        # a name goes on with alphanumerics (² and ½ too) but starts with a letter or †
        if not match or match.lastgroup == "name" and not (text[k].isalpha() or text[k] == "†"):
            raise ExprSyntaxError(f"unexpected character {text[k]!r}", k)
        if match.lastgroup != "space":
            tokens.append(_Token(match.lastgroup, match[0], k))
        k = match.end()
    tokens.append(_Token("end", "", len(text)))
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
    pairs = len(left._nonzero) * len(right._nonzero)
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
    Syntax errors carry the character position.  A mode count that is not
    an integer in 1..MAX_MODES raises ValueError.
    """
    _check_mode_count(modes)
    return _Parser(_tokenize(text), modes).parse()
