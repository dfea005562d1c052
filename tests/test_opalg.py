"""Normal-ordered ladder algebra: rewriting, parsing, commutators.

The reordering identities are cross-checked against truncated matrix
representations built inline with plain numpy, so the symbolic engine and
its numeric witness come from independent code paths.
"""

import numpy as np
import pytest

from ladderlie.opalg import (MAX_EXPONENT, ExprSyntaxError, OperatorExpr, adjoint,
                             annihilate, annihilation_op, commutator, create,
                             creation_op, momentum, normal_order, number_op,
                             parse_expr, position)
from ladderlie.scalars import ExactScalar, HALF, I, ONE


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


def test_normal_order_function():
    word = [annihilate(1) for _ in range(2)] + [create(1) for _ in range(2)]
    expr = normal_order([(ONE, word)], modes=1)
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


def test_parse_rejects_exponents_above_the_cap(monkeypatch):
    assert parse_expr("ad1^4", 1) == parse_expr("ad1*ad1*ad1*ad1", 1)
    assert parse_expr("a1^2^2", 1) == parse_expr("a1^4", 1)
    assert parse_expr(f"a2^{MAX_EXPONENT}", 2).coefficient((0, 0), (0, MAX_EXPONENT)) == ONE

    def refuse(*_args):
        raise AssertionError("a power was formed for a rejected exponent")
    monkeypatch.setattr(OperatorExpr, "__pow__", refuse)
    for text, position in ((f"a1^{MAX_EXPONENT + 1}", 3), ("ad1 * a1^1000000000", 9),
                           ("x1^" + "9" * 5000, 3), ("(a1 + ad1)^4^2", 13)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, 1)
        assert err.value.position == position
        assert f"cap of {MAX_EXPONENT}" in str(err.value)


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
    n = number_op(1, 1)
    assert adjoint(n) == n
    assert adjoint(annihilation_op(1, 1)) == creation_op(1, 1)
    e = parse_expr("i*ad1^2 + (1/2)*a1", 1)
    assert adjoint(e) == parse_expr("-i*a1^2 + (1/2)*ad1", 1)
    assert adjoint(adjoint(e)) == e
    assert adjoint(position(1, 1)) == position(1, 1)
    assert adjoint(momentum(1, 1)) == momentum(1, 1)


def test_adjoint_reverses_products():
    x = parse_expr("a1*a1", 1)
    y = parse_expr("ad1*a1", 1)
    assert adjoint(x * y) == adjoint(y) * adjoint(x)


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


def test_scalar_multiplication_and_degree():
    e = parse_expr("ad1*a1", 1)
    assert (e * ExactScalar.rational(2)).coefficient((1,), (1,)) \
        == ExactScalar.rational(2)
    assert e.degree == 2
    assert parse_expr("ad1^2*a1", 1).degree == 3
    assert OperatorExpr.constant(5, 1).degree == 0
