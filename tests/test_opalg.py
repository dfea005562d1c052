"""Normal-ordered ladder algebra: rewriting, parsing, commutators.

The reordering identities are cross-checked against truncated matrix
representations built inline with plain numpy, so the symbolic engine and
its numeric witness come from independent code paths.
"""

import itertools
import operator
import random
import re
import warnings
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.physics.quantum import Dagger
from sympy.physics.quantum.boson import BosonOp
from sympy.physics.quantum.operatorordering import normal_ordered_form

from ladderlie.matrices import ExactMatrix
from ladderlie.opalg import (MAX_DEGREE, MAX_EXPONENT, MAX_MODES, MAX_NESTING,
                             MAX_PRODUCT_PAIRS,
                             ExprSyntaxError, NormalMonomial, OperatorExpr,
                             annihilation_op, commutator, creation_op, momentum,
                             parse_expr, position, _contractions, _tokenize)
from ladderlie.scalars import ExactScalar, HALF, I, ONE
from ladderlie.sparse import SparseExact


def _matrix_pair(n=12):
    a = np.diag(np.sqrt(np.arange(1.0, n)), k=1)
    return a, a.T


def _realize_inline(expr, n=12):
    """Evaluate a normal-ordered expression as a truncated matrix."""
    a, ad = _matrix_pair(n)
    out = np.zeros((n, n), dtype=complex)
    for mono in expr.terms:
        m = np.eye(n, dtype=complex)
        for _ in range(mono.cdeg[0]):
            m = m @ ad
        for _ in range(mono.adeg[0]):
            m = m @ a
        out += mono.coeff.to_complex() * m
    return out


def test_ccr_single_mode():
    a = annihilation_op(1, 1)
    ad = creation_op(1, 1)
    assert commutator(a, ad) == OperatorExpr.constant(1, 1)
    assert commutator(ad, a) == OperatorExpr.constant(-1, 1)
    assert commutator(a, a).is_zero()
    assert commutator(ad, ad).is_zero()


def test_ccr_two_modes():
    one = OperatorExpr.constant(1, 2)
    for i in (1, 2):
        for j in (1, 2):
            c = commutator(annihilation_op(i, 2), creation_op(j, 2))
            assert c == (one if i == j else OperatorExpr.zero(2))


def test_quadrature_commutator():
    assert commutator(position(1, 1), momentum(1, 1)) == OperatorExpr.constant(I, 1)
    for i in (1, 2):
        for j in (1, 2):
            c = commutator(position(i, 2), momentum(j, 2))
            want = OperatorExpr.constant(I, 2) if i == j else OperatorExpr.zero(2)
            assert c == want


def test_product_reorders_once():
    a = annihilation_op(1, 1)
    ad = creation_op(1, 1)
    assert a * ad == ad * a + 1
    assert (a * ad).render() == "ad1*a1 + 1"


def test_double_contraction_normal_form():
    got = parse_expr("a1*a1*ad1*ad1", 1)
    want = parse_expr("ad1*ad1*a1*a1 + 4*ad1*a1 + 2", 1)
    assert got == want
    assert got.render() == "ad1^2*a1^2 + 4*ad1*a1 + 2"


def test_normal_form_against_matrix_witness():
    # a^2 ad^2 computed two ways: symbolically reordered, then realized,
    # versus the raw matrix product.  Rows touching the truncation edge
    # are excluded since a^2 ad^2 needs two levels of headroom.
    n = 12
    a, ad = _matrix_pair(n)
    raw = a @ a @ ad @ ad
    sym = _realize_inline(parse_expr("a1*a1*ad1*ad1", 1), n)
    keep = np.arange(n - 2)
    assert np.max(np.abs(raw[np.ix_(keep, keep)] - sym[np.ix_(keep, keep)])) < 1e-12


def test_mixed_mode_product_stays_factored():
    got = parse_expr("a1*ad2*ad1*a2", 2)
    want = parse_expr("ad1*ad2*a1*a2 + ad2*a2", 2)
    assert got == want


def test_parse_normal_orders_a_raw_word():
    expr = parse_expr("a1*a1*ad1*ad1", 1)
    assert expr == parse_expr("ad1^2*a1^2 + 4*ad1*a1 + 2", 1)


def test_parse_symmetrized_quadratic():
    got = parse_expr("(1/2)*(a1*ad1 + ad1*a1)", 1)
    assert got == parse_expr("ad1*a1 + 1/2", 1)


def test_parse_quadratures():
    assert parse_expr("x1*p1 - p1*x1", 1) == OperatorExpr.constant(I, 1)
    # x = (a + ad)/sqrt2 so x^2 has a 1/2 vacuum piece
    x2 = parse_expr("x1^2", 1)
    assert x2.coefficient((0,), (0,)) == HALF


def test_parse_caret_and_dagger_spellings():
    assert parse_expr("ad1^2", 1) == parse_expr("ad1*ad1", 1)
    assert parse_expr("a†1*a1", 1) == parse_expr("ad1*a1", 1)


def test_parse_constants_and_division():
    assert parse_expr("i*i", 1) == OperatorExpr.constant(-1, 1)
    assert parse_expr("sqrt2*sqrt2/2", 1) == OperatorExpr.constant(1, 1)
    assert parse_expr("(ad1*a1)/2", 1) == parse_expr("(1/2)*ad1*a1", 1)


def test_parse_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("a1 + * a1", 1)
    assert err.value.position == 5
    with pytest.raises(ExprSyntaxError):
        parse_expr("a1 * (ad1", 1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("a1 @ ad1", 1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("", 1)
    for text, position, message in (("a1 ad1", 3, "unexpected 'ad1'"),
                                    ("a1^x", 2, "exponent must be a non-negative integer"),
                                    ("a1^-1", 2, "exponent must be a non-negative integer")):
        with pytest.raises(ExprSyntaxError, match=message) as err:
            parse_expr(text, 1)
        assert err.value.position == position


def test_parse_refuses_deep_nesting_with_a_position():
    deep = "(" * MAX_NESTING + "a1" + ")" * MAX_NESTING
    assert parse_expr(deep, 1) == parse_expr("a1", 1)
    # the cap counts open parentheses, not all of them
    siblings = "+".join(["(a1)"] * (MAX_NESTING + 1))
    assert parse_expr(siblings, 1) == parse_expr(f"{MAX_NESTING + 1}*a1", 1)
    for depth in (MAX_NESTING + 1, 10_000):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("(" * depth + "a1" + ")" * depth, 1)
        assert err.value.position == MAX_NESTING     # the first ( past the cap
        assert f"nested deeper than {MAX_NESTING}" in str(err.value)
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("a1 * " + "(-" * 10_000 + "a1", 1)
    assert err.value.position == 5 + 2 * MAX_NESTING


def test_mode_count_above_the_ceiling_is_refused():
    wide = parse_expr("a1*ad1", MAX_MODES)
    assert wide == parse_expr("1 + ad1*a1", MAX_MODES)
    assert OperatorExpr(MAX_MODES, wide._nonzero) == wide
    for modes in (MAX_MODES + 1, 10**6, 10**100, 0, -1):
        with pytest.raises(ValueError, match="mode count must be between 1 and"):
            parse_expr("a1*ad1", modes)
        with pytest.raises(ValueError, match="mode count must be between 1 and"):
            OperatorExpr(modes)
        with pytest.raises(ValueError, match="mode count must be between 1 and"):
            creation_op(1, modes) * annihilation_op(1, modes)
        with pytest.raises(ValueError, match="mode count must be between 1 and"):
            OperatorExpr.constant(1, modes)


def test_constructor_refuses_malformed_degree_tuples():
    for key in (((1,), (0, 0)), ((0, 0, 0), (0, 0))):
        with pytest.raises(ValueError, match="one entry per mode"):
            OperatorExpr(2, {key: 1})
    with pytest.raises(ValueError, match="degrees must be non-negative"):
        OperatorExpr(2, {((0, -1), (1, 0)): 1})
    # a zero coefficient does not skip the key's checks
    with pytest.raises(ValueError, match="one entry per mode"):
        OperatorExpr(2, {((1,), (0, 0)): 0})
    # nor does a lookup: a short key would miss the constant term 3
    e = parse_expr("ad1*a2 + 3", 2)
    assert e.coefficient((0, 0), (0, 0)) == ExactScalar.rational(3)
    for key in (((0,), (0,)), ((0, 0), (0, 0, 0))):
        with pytest.raises(ValueError, match="one entry per mode"):
            e.coefficient(*key)
    # a float degree is not truncated, and a bool is not read as 1
    for key in (((2.7,), (True,)), ((2,), (True,)), ((2.0,), (1,))):
        with pytest.raises(ValueError, match="degree must be an integer, got"):
            OperatorExpr(1, {key: 1})
    numpy_degrees = OperatorExpr(1, {((np.int64(2),), (np.int8(1),)): 1})
    assert numpy_degrees == parse_expr("ad1^2*a1", 1)
    assert all(type(d) is int for key in numpy_degrees._nonzero for d in key[0] + key[1])


def test_parse_folds_any_number_of_leading_signs():
    a1 = parse_expr("a1", 1)
    assert parse_expr("-" * 100_001 + "a1", 1) == -a1
    assert parse_expr("+-" * 50_000 + "a1", 1) == a1
    assert parse_expr("-+-a1^2*-ad1", 1) == -(a1 * a1 * parse_expr("ad1", 1))


def test_parse_rejects_exponents_above_the_cap(monkeypatch):
    assert parse_expr("ad1^4", 1) == parse_expr("ad1*ad1*ad1*ad1", 1)
    assert parse_expr("a1^2^2", 1) == parse_expr("a1^4", 1)
    assert parse_expr(f"a2^{MAX_EXPONENT}", 2).coefficient((0, 0), (0, MAX_EXPONENT)) == ONE

    real_mul = OperatorExpr.__mul__

    def refuse(self, other):
        if isinstance(other, OperatorExpr):
            raise AssertionError("a power was formed for a rejected exponent")
        return real_mul(self, other)
    monkeypatch.setattr(OperatorExpr, "__mul__", refuse)
    for text, position in ((f"a1^{MAX_EXPONENT + 1}", 3), ("ad1 * a1^1000000000", 9),
                           ("x1^" + "9" * 5000, 3), ("(a1 + ad1)^4^2", 13)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, 1)
        assert err.value.position == position
        assert f"cap of {MAX_EXPONENT}" in str(err.value)


def _refuse_products_above_the_degree_cap(monkeypatch):
    real_mul = OperatorExpr.__mul__

    def guarded(self, other):
        if isinstance(other, OperatorExpr) and self.degree + other.degree > MAX_DEGREE:
            raise AssertionError("a product above the degree cap was formed")
        return real_mul(self, other)
    monkeypatch.setattr(OperatorExpr, "__mul__", guarded)


def test_parse_accepts_the_degree_cap(monkeypatch):
    _refuse_products_above_the_degree_cap(monkeypatch)
    assert MAX_DEGREE == 16
    got = parse_expr("ad1^4*ad2^4*a1^4*a2^4", 2)
    assert got.degree == MAX_DEGREE
    assert got.terms[0].cdeg == (4, 4) and got.terms[0].adeg == (4, 4)
    assert parse_expr("((x1*p1)^4)^2", 1).degree == MAX_DEGREE


def test_parse_rejects_degrees_above_the_cap(monkeypatch):
    _refuse_products_above_the_degree_cap(monkeypatch)
    for text, position, degree in (("ad1^4*ad2^4*a1^4*a2^4*a1", 21, 17),
                                   ("a1^6*a2^6*ad1^6*ad2^6", 9, 18),
                                   ("((x1*p1)^6)^6", 11, 72),
                                   ("((x1*p1)^3)^3", 11, 18),
                                   ("a1 * (ad1^6*a2^6 + 1)*ad2^4", 21, 17)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, 2)
        assert err.value.position == position
        assert f"degree {degree} exceeds the cap of {MAX_DEGREE}" in str(err.value)


def _refuse_products_above_the_pair_cap(monkeypatch):
    real_mul = OperatorExpr.__mul__

    def guarded(self, other):
        if (isinstance(other, OperatorExpr)
                and len(self.terms) * len(other.terms) > MAX_PRODUCT_PAIRS):
            raise AssertionError("a product above the pair cap was formed")
        return real_mul(self, other)
    monkeypatch.setattr(OperatorExpr, "__mul__", guarded)


def _sum_of_monomials(count: int) -> str:
    """`count` distinct two-mode monomials of degree <= 4, as one sum."""
    degrees = [d for d in itertools.product(range(5), repeat=4) if sum(d) <= 4]
    return "(" + " + ".join("ad1^{}*ad2^{}*a1^{}*a2^{}".format(*d)
                            for d in degrees[:count]) + ")"


def test_parse_accepts_products_at_the_pair_cap(monkeypatch):
    _refuse_products_above_the_pair_cap(monkeypatch)
    assert MAX_PRODUCT_PAIRS == 4096
    left = _sum_of_monomials(64)
    assert len(parse_expr(left, 2).terms) == 64
    assert parse_expr(f"{left} * {left}", 2).degree == 8
    assert len(parse_expr("((x1+p1+x2+p2)^4)^2", 2).terms) == 295


def test_parse_rejects_products_above_the_pair_cap(monkeypatch):
    _refuse_products_above_the_pair_cap(monkeypatch)
    left, right = _sum_of_monomials(64), _sum_of_monomials(65)
    dense = "(x1+p1+x2+p2)"
    for text, position, pairs in ((f"{left} * {right}", len(left) + 1, 64 * 65),
                                  (f"({dense}^4)^4", 17, 13570),
                                  (f"({dense}^4)^3", 17, 13570),
                                  (f"{dense}^6*{dense}^6", 15, 16900),
                                  (f"({dense}^2)^2^3", 19, 6391)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, 2)
        assert err.value.position == position
        assert f"product of {pairs} term pairs exceeds the cap of {MAX_PRODUCT_PAIRS}" \
            in str(err.value)


def test_exponent_and_degree_caps_come_before_the_pair_cap(monkeypatch):
    _refuse_products_above_the_pair_cap(monkeypatch)
    for text, position, message in (("((x1+p1+x2+p2)^4)^7", 18, f"cap of {MAX_EXPONENT}"),
                                    ("((x1+p1+x2+p2)^4)^5", 17, "degree 20 exceeds")):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, 2)
        assert err.value.position == position
        assert message in str(err.value)


def test_parse_rejects_unreadable_integer_literals():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("a1 + " + "9" * 5000, 1)
    assert err.value.position == 5
    assert "5000 digits" in str(err.value)
    # digits int() cannot read are not number tokens
    for text, position in (("x1^²", 3), ("²", 0), ("a1²", 0)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, 1)
        assert err.value.position == position


def _lexed(text):
    """(kind, text, pos) of each token before the end, or ("error", message, pos)."""
    try:
        return [(t.kind, t.text, t.pos) for t in _tokenize(text)[:-1]]
    except ExprSyntaxError as err:
        return ("error", str(err), err.position)


def test_lexer_classes_are_the_str_predicates_on_every_bmp_code_point():
    single = {**dict.fromkeys("+-*/^", "op"), "(": "lparen", ")": "rparen"}

    def unexpected(ch, at):
        return ("error", f"unexpected character {ch!r} (at position {at})", at)

    for code in range(0x10000):
        ch = chr(code)
        if ch.isspace():
            alone, after = [], [("name", "a1", 0)]
        elif ch.isdecimal():
            alone, after = [("number", ch, 0)], [("name", "a1" + ch, 0)]
        elif ch.isalpha() or ch == "†":
            alone, after = [("name", ch, 0)], [("name", "a1" + ch, 0)]
        elif ch.isalnum():      # a numeral such as ² or ½ goes on a name but starts none
            alone, after = unexpected(ch, 0), [("name", "a1" + ch, 0)]
        elif ch in single:
            alone, after = [(single[ch], ch, 0)], [("name", "a1", 0), (single[ch], ch, 2)]
        else:
            alone, after = unexpected(ch, 0), unexpected(ch, 2)
        assert (_lexed(ch), _lexed("a1" + ch)) == (alone, after), hex(code)


def test_parse_mode_range():
    with pytest.raises(ExprSyntaxError):
        parse_expr("a3", 2)
    with pytest.raises(ExprSyntaxError):
        parse_expr("a2", 1)
    parse_expr("a2*ad2", 2)    # in range: no error


def test_division_by_operator_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("a1/ad1", 1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("a1/0", 1)


def test_adjoint():
    n = creation_op(1, 1) * annihilation_op(1, 1)
    assert n.adjoint() == n
    assert annihilation_op(1, 1).adjoint() == creation_op(1, 1)
    e = parse_expr("i*ad1^2 + (1/2)*a1", 1)
    assert e.adjoint() == parse_expr("-i*a1^2 + (1/2)*ad1", 1)
    assert e.adjoint().adjoint() == e
    assert position(1, 1).adjoint() == position(1, 1)
    assert momentum(1, 1).adjoint() == momentum(1, 1)


def test_adjoint_reverses_products():
    x = parse_expr("a1*a1", 1)
    y = parse_expr("ad1*a1", 1)
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()


def test_render_round_trip():
    samples = [
        "ad1^2*a1^2 + 4*ad1*a1 + 2",
        "ad1*a1 + 1/2",
        "i*ad1^2 - i*a1^2",
        "ad1*ad2 + a1*a2",
    ]
    for text in samples:
        modes = 2 if "2*a" in text or "ad2" in text else 1
        expr = parse_expr(text, modes)
        assert parse_expr(expr.render(), modes) == expr
        assert str(expr) == expr.render()


def test_commutator_bilinearity_randomized():
    rng = np.random.default_rng(7)
    basis = [parse_expr(t, 2) for t in
             ("ad1*a1", "ad2*a2", "ad1*ad2", "a1*a2", "ad1*a2", "ad2*a1",
              "ad1^2", "a1^2")]
    for _ in range(20):
        ia, ib, ic = rng.integers(0, len(basis), size=3)
        k = int(rng.integers(-3, 4))
        x, y, z = basis[ia], basis[ib], basis[ic]
        assert commutator(x + k * y, z) == commutator(x, z) + k * commutator(y, z)
        # antisymmetry and the Jacobi identity
        assert commutator(x, y) == -commutator(y, x)
        jac = (commutator(x, commutator(y, z))
               + commutator(y, commutator(z, x))
               + commutator(z, commutator(x, y)))
        assert jac.is_zero()


def test_mode_count_mismatch_rejected():
    with pytest.raises(ValueError):
        commutator(annihilation_op(1, 1), creation_op(1, 2))
    with pytest.raises(ValueError):
        parse_expr("a1", 1) + parse_expr("a1", 2)


def test_constant_extraction():
    c = parse_expr("(1/2) + i", 1)
    assert c.is_constant()
    assert c.as_scalar() == HALF + I
    assert not parse_expr("ad1*a1", 1).is_constant()
    with pytest.raises(ValueError):
        parse_expr("ad1*a1", 1).as_scalar()
    # a scalar operand is promoted to a constant, in equality and in subtraction
    assert OperatorExpr.constant(3, 1) == 3
    assert OperatorExpr.constant(3, 1) != 2
    assert parse_expr("ad1*a1") - 1 == parse_expr("ad1*a1 - 1")


def test_scalar_multiplication_and_degree():
    e = parse_expr("ad1*a1", 1)
    assert (e * ExactScalar.rational(2)).coefficient((1,), (1,)) \
        == ExactScalar.rational(2)
    assert e.degree == 2
    assert parse_expr("ad1^2*a1", 1).degree == 3
    assert OperatorExpr.constant(5, 1).degree == 0


# -- the closed-form product against independent oracles ------------------

_SYMPY_OPS = (BosonOp("a"), BosonOp("b"))


def _sympy_word(cdeg, adeg):
    word = sympy.Integer(1)
    for op, c in zip(_SYMPY_OPS, cdeg):
        word *= Dagger(op) ** c
    for op, d in zip(_SYMPY_OPS, adeg):
        word *= op ** d
    return word


def _sympy_terms(expr) -> dict:
    """sympy normal-ordered polynomial -> {(cdeg, adeg): int coefficient}."""
    out = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        coeff, factors = term.as_coeff_mul()
        cdeg, adeg = [0, 0], [0, 0]
        for factor in factors:
            base, exp = factor.as_base_exp()
            for m, op in enumerate(_SYMPY_OPS):
                if base == op:
                    adeg[m] += int(exp)
                elif base == Dagger(op):
                    cdeg[m] += int(exp)
        key = (tuple(cdeg), tuple(adeg))
        out[key] = out.get(key, 0) + int(coeff)
    return out


def _monomial(cdeg, adeg):
    return OperatorExpr(2, {(cdeg, adeg): ONE})


def test_product_matches_sympy_normal_ordering():
    rng = random.Random(20191108)
    degrees = lambda: tuple(rng.randint(0, 3) for _ in range(2))  # noqa: E731
    pairs = [((3, 3), (3, 3), (3, 3), (3, 3))]     # the deepest pair first
    pairs += [(degrees(), degrees(), degrees(), degrees()) for _ in range(40)]
    for c1, d1, c2, d2 in pairs:
        with warnings.catch_warnings():
            # sympy aborts deep rewrites with a warning and returns a
            # partly ordered result; that must fail the test, not pass it
            warnings.simplefilter("error")
            want = _sympy_terms(normal_ordered_form(
                _sympy_word(c1, d1) * _sympy_word(c2, d2),
                independent=True, recursive_limit=100))
        got = _monomial(c1, d1) * _monomial(c2, d2)
        assert {(m.cdeg, m.adeg): m.coeff for m in got.terms} == \
            {k: ExactScalar.rational(v) for k, v in want.items()}, (c1, d1, c2, d2)


_degrees = st.tuples(st.integers(0, 2), st.integers(0, 2))
_coeffs = st.builds(lambda a, b, c, d: ExactScalar(Fraction(a, 2), b, c, d),
                    *[st.integers(-2, 2)] * 4)
_exprs = st.dictionaries(st.tuples(_degrees, _degrees), _coeffs, max_size=3).map(
    lambda terms: OperatorExpr(2, terms))
# raw sums of words: (coefficient, [(mode, builder), ...])
_words = st.lists(st.tuples(_coeffs, st.lists(
    st.tuples(st.integers(1, 2), st.sampled_from((creation_op, annihilation_op))),
    max_size=6)), max_size=3)


@settings(max_examples=40, deadline=None)
@given(x=_exprs, y=_exprs, z=_exprs)
def test_product_is_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=40, deadline=None)
@given(x=_exprs, y=_exprs, z=_exprs)
def test_jacobi_identity_on_random_triples(x, y, z):
    jac = (commutator(x, commutator(y, z)) + commutator(y, commutator(z, x))
           + commutator(z, commutator(x, y)))
    assert jac.is_zero()


@settings(max_examples=60, deadline=None)
@given(x=_exprs, y=_exprs)
def test_adjoint_reverses_random_products(x, y):
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()


def _word_text(coeff, word):
    symbols = [f"{'ad' if builder is creation_op else 'a'}{mode}" for mode, builder in word]
    return (f"(({coeff.q0}) + ({coeff.q1})*sqrt2 + ({coeff.q2})*i + ({coeff.q3})*i*sqrt2)"
            f"*({'*'.join(symbols) or '1'})")


@settings(max_examples=60, deadline=None)
@given(raw=_words)
def test_normal_order_is_the_product_of_symbols(raw):
    # multiplied right to left, the other way round from the parser
    want = OperatorExpr.zero(2)
    for coeff, word in raw:
        product = OperatorExpr.constant(1, 2)
        for mode, builder in reversed(word):
            product = builder(mode, 2) * product
        want = want + product * coeff
    text = " + ".join(_word_text(coeff, word) for coeff, word in raw) or "0"
    assert parse_expr(text, 2) == want


def test_each_builder_gives_one_unit_key():
    for builder in (creation_op, annihilation_op):
        for modes in (1, 3, MAX_MODES):
            zero = (0,) * modes
            for mode in range(1, modes + 1):
                unit = tuple(int(m == mode) for m in range(1, modes + 1))
                cdeg, adeg = (unit, zero) if builder is creation_op else (zero, unit)
                assert builder(mode, modes).terms == (NormalMonomial(ONE, cdeg, adeg),)
        for mode, modes in ((0, 2), (3, 2)):
            with pytest.raises(ValueError, match=f"mode {mode} out of range"):
                builder(mode, modes)
        for modes in (0, MAX_MODES + 1):
            with pytest.raises(ValueError, match="mode count must be between"):
                builder(1, modes)


def _parse_a1(mode, modes):
    """parse_expr of the text a1; `mode` is not part of its signature."""
    return parse_expr("a1", modes)


@pytest.mark.parametrize("build", [creation_op, annihilation_op, position, momentum,
                                   _parse_a1])
def test_modes_and_mode_counts_must_be_integers(build):
    for bad in (True, False, 1.0, 2.0, "1", None):
        got = re.escape(repr(bad))
        with pytest.raises(ValueError, match=f"^modes must be an integer, got {got}$"):
            build(1, bad)
        if build is not _parse_a1:
            with pytest.raises(ValueError, match=f"^mode must be an integer, got {got}$"):
                build(bad, 2)
    assert build(np.int64(1), np.int32(2)) == build(1, 2)
    assert build(np.int8(1), np.uint16(2)).modes == 2


_matrices = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(_coeffs, min_size=n, max_size=n), min_size=n, max_size=n)).map(ExactMatrix)


def assert_sparse_contract(x, other):
    """The rules both exact kinds share (ladderlie.sparse), on `x`; `other` is
    an element of the other kind, which `x` never equals or combines with."""
    kind = type(x)
    # the base keeps any insertion order; equality and hash do not see it
    reordered = SparseExact._of.__func__(kind, x.dim, dict(reversed(x._nonzero.items())))
    assert reordered == x and hash(reordered) == hash(x)
    assert (x - x).is_zero() and (0 * x).is_zero() and (x * 0).is_zero()
    assert -(-x) == x and (x + -x) == x - x
    assert all(not v.is_zero() for v in x._nonzero.values())
    wider = kind._of(x.dim + 1, {})
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="dimension mismatch"):
            op(x, wider)
    for name in ("dim", "_nonzero", "n" if kind is ExactMatrix else "modes", "extra"):
        with pytest.raises(AttributeError, match=f"{kind.__name__} is immutable"):
            setattr(x, name, x.dim)
    assert x != other and other != x
    assert kind._of(other.dim, {}) != type(other)._of(other.dim, {})
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((x, other), (other, x)):
            with pytest.raises(TypeError):
                op(left, right)


def _assert_canonical(expr, other):
    """Rebuilt through the public constructor, `expr` is unchanged: it stores
    no zero coefficient and only int-tuple keys; it keeps the shared rules."""
    rebuilt = OperatorExpr(expr.modes, expr._nonzero)
    assert rebuilt == expr and hash(rebuilt) == hash(expr)
    assert rebuilt._nonzero == expr._nonzero
    assert all(type(x) is int for key in expr._nonzero for degs in key for x in degs)
    assert all(isinstance(c, ExactScalar) for c in expr._nonzero.values())
    assert_sparse_contract(expr, other)


@settings(max_examples=80, deadline=None)
@given(x=_exprs, y=_exprs, s=_coeffs, m=_matrices)
def test_internal_results_are_canonical(x, y, s, m):
    for result in (x * y, x + y, x - y, x - x, -x, x * s, x * 3, x * 0,
                   x.adjoint(), commutator(x, y), commutator(x, x)):
        _assert_canonical(result, m)


@settings(max_examples=80, deadline=None)
@given(x=_exprs, y=_exprs, m=_matrices)
def test_commutator_is_the_difference_of_products(x, y, m):
    got, want = commutator(x, y), x * y - y * x
    assert got == want and hash(got) == hash(want)
    assert_sparse_contract(got, m)


def test_deepest_benchmark_commutator_matches_sympy():
    # [a1^4 a2^4, ad1^4 ad2^4]: 25 contraction patterns per side, 24 survive
    left, right = ((0, 0), (4, 4)), ((4, 4), (0, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ordered = normal_ordered_form(_sympy_word(*left) * _sympy_word(*right),
                                      independent=True, recursive_limit=100)
    want = _sympy_terms(ordered - _sympy_word(*right) * _sympy_word(*left))
    got = commutator(_monomial(*left), _monomial(*right))
    assert {(m.cdeg, m.adeg): m.coeff for m in got.terms} == \
        {k: ExactScalar.rational(v) for k, v in want.items() if v}
    assert len(got.terms) == 24


def test_contraction_weights_are_the_closed_form():
    # every degree pair the parser can reach, one step past min(d, c) and more
    top = MAX_DEGREE + 1
    for d in range(MAX_DEGREE + 1):
        for c in range(MAX_DEGREE + 1):
            got = list(_contractions(d, c, top))
            assert got == [factorial(k) * comb(d, k) * comb(c, k) for k in range(top + 1)]
            assert all(type(w) is int for w in got)


def _random_poly(rng, modes):
    """1-3 terms, per-mode degrees 0-4, small Q(i, sqrt2) coefficients."""
    degrees = lambda: tuple(rng.randint(0, 4) for _ in range(modes))  # noqa: E731
    return OperatorExpr(modes, {(degrees(), degrees()): ExactScalar(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1),
        rng.randint(-1, 1), 1) for _ in range(rng.randint(1, 3))})


def test_commutator_of_deep_polynomials_is_the_difference_of_products():
    # the product and the commutator share only _contractions, so each side
    # checks the other; on a lopsided mode min(a_x, c_y) != min(a_y, c_x) and
    # the box of contractions must reach the larger of the two
    rng = random.Random(20260301)
    lopsided = 0
    for _ in range(200):
        modes = rng.randint(1, 3)
        x, y = _random_poly(rng, modes), _random_poly(rng, modes)
        assert commutator(x, y) == x * y - y * x
        lopsided += any(min(ax, cy) != min(ay, cx)
                        for (cxs, axs) in x._nonzero for (cys, ays) in y._nonzero
                        for cx, ax, cy, ay in zip(cxs, axs, cys, ays))
    assert lopsided >= 150
    # one lopsided pair by hand: [a1^3, ad1^2 a1] = 6 ad1 a1^3 + 6 a1^2
    assert commutator(parse_expr("a1^3"), parse_expr("ad1^2*a1")) \
        == parse_expr("6*ad1*a1^3 + 6*a1^2")
