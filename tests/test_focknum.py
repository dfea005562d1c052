"""Truncated number-basis realizations and the protected-subspace check."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ladderlie import focknum
from ladderlie.catalog import two_mode_oscillator
from ladderlie.focknum import (FockRealization, protected_commutator_check,
                               realize, realize_family)
from ladderlie.opalg import (OperatorExpr, annihilation_op, commutator,
                             creation_op, number_op, parse_expr)
from ladderlie.scalars import ExactScalar


def test_number_operator_is_diagonal():
    fock = FockRealization(8, 1)
    n = realize(number_op(1, 1), fock)
    want = np.diag(np.arange(8.0)).astype(complex)
    assert np.max(np.abs(n - want)) < 1e-12


def test_ladder_matrix_entries():
    fock = FockRealization(5, 1)
    a = realize(annihilation_op(1, 1), fock)
    for k in range(1, 5):
        assert abs(a[k - 1, k] - np.sqrt(k)) < 1e-15
    ad = realize(creation_op(1, 1), fock)
    assert np.array_equal(ad, a.conj().T)


def test_basis_occupations_order():
    fock = FockRealization(3, 2)
    occ = fock.basis_occupations()
    assert occ[0] == (0, 0)
    assert occ[1] == (0, 1)
    assert occ[3] == (1, 0)
    assert len(occ) == 9
    assert occ[8] == (2, 2)


def test_two_mode_index_convention():
    # column index n1*cutoff + n2 must match kron(mode1, mode2)
    fock = FockRealization(4, 2)
    n1 = realize(number_op(1, 2), fock)
    n2 = realize(number_op(2, 2), fock)
    occ = fock.basis_occupations()
    for k, (o1, o2) in enumerate(occ):
        assert abs(n1[k, k] - o1) < 1e-12
        assert abs(n2[k, k] - o2) < 1e-12


def test_truncation_artifact_at_edge():
    cutoff = 6
    fock = FockRealization(cutoff, 1)
    a = realize(annihilation_op(1, 1), fock)
    ad = realize(creation_op(1, 1), fock)
    comm = a @ ad - ad @ a
    assert abs(comm[-1, -1] - (1 - cutoff)) < 1e-12
    assert np.max(np.abs(comm[:-1, :-1] - np.eye(cutoff - 1))) < 1e-12


def test_s0_spectrum():
    fock = FockRealization(10, 2)
    s0 = realize(two_mode_oscillator().element("S0"), fock)
    occ = fock.basis_occupations()
    want = np.diag([(o1 + o2 + 1) / 2 for o1, o2 in occ]).astype(complex)
    assert np.max(np.abs(s0 - want)) < 1e-12


def test_realized_generators_hermitian():
    fock = FockRealization(8, 2)
    for _, m in realize_family(two_mode_oscillator(), fock).items():
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_protected_commutators_all_pairs():
    fock = FockRealization(16, 2)
    fam = two_mode_oscillator()
    pairs = list(fam.pairs())
    assert len(pairs) == 45
    worst = max(protected_commutator_check(fam.element(a), fam.element(b),
                                           fock, guard=4)
                for a, b in pairs)
    assert worst < 1e-12


def test_identical_arguments_give_zero():
    fock = FockRealization(6, 2)
    j1 = two_mode_oscillator().element("J1")
    assert protected_commutator_check(j1, j1, fock, guard=0) < 1e-15


def test_guard_zero_exposes_edge_effects():
    # quadratics in ad reach two levels above the protected band, so with
    # no guard the matrix commutator disagrees with the symbolic bracket
    fock = FockRealization(4, 2)
    fam = two_mode_oscillator()
    dev = protected_commutator_check(fam.element("K3"), fam.element("Q3"),
                                     fock, guard=0)
    assert dev > 1e-6


def test_guard_validation():
    fock = FockRealization(4, 2)
    fam = two_mode_oscillator()
    with pytest.raises(ValueError):
        protected_commutator_check(fam.element("J1"), fam.element("J2"),
                                   fock, guard=-1)
    with pytest.raises(ValueError):
        protected_commutator_check(fam.element("J1"), fam.element("J2"),
                                   fock, guard=4)


def test_protected_indices():
    fock = FockRealization(5, 2)
    idx = fock.protected_indices(guard=2)
    occ = fock.basis_occupations()
    for k in idx:
        assert sum(occ[k]) <= 2
    assert len(idx) == 6     # (0,0) (0,1) (0,2) (1,0) (1,1) (2,0)


def test_mode_count_enforced():
    fock = FockRealization(5, 1)
    with pytest.raises(ValueError):
        realize(parse_expr("ad1*a2", 2), fock)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        FockRealization(1, 1)
    with pytest.raises(ValueError):
        FockRealization(5, 0)


def test_realize_respects_coefficients():
    fock = FockRealization(6, 1)
    m = realize(parse_expr("(1/2)*ad1*a1 + 3", 1), fock)
    want = np.diag([0.5 * k + 3 for k in range(6)]).astype(complex)
    assert np.max(np.abs(m - want)) < 1e-12


def test_guard_is_checked_before_any_realization(monkeypatch):
    def refuse(*_args):
        raise AssertionError("realized before the guard was validated")
    monkeypatch.setattr(focknum, "realize", refuse)
    j1 = two_mode_oscillator().element("J1")
    for guard in (-1, 4):
        with pytest.raises(ValueError):
            protected_commutator_check(j1, j1, FockRealization(4, 2), guard)


def _kron_reference(expr: OperatorExpr, fock: FockRealization) -> np.ndarray:
    """Dense kron-chain ladder matrices multiplied one symbol at a time."""
    a = np.diag(np.sqrt(np.arange(1, fock.cutoff, dtype=float)), k=1)

    def ladder(mode, op):
        out = np.eye(1)
        for m in range(1, fock.modes + 1):
            out = np.kron(out, op if m == mode else np.eye(fock.cutoff))
        return out

    n = fock.dim
    out = np.zeros((n, n), dtype=complex)
    for mono in expr.terms:
        term = np.eye(n)
        for mode, c in enumerate(mono.cdeg, start=1):
            for _ in range(c):
                term = ladder(mode, a.T) @ term
        word = np.eye(n)
        for mode, d in enumerate(mono.adeg, start=1):
            for _ in range(d):
                word = ladder(mode, a) @ word
        out += mono.coeff.to_complex() * (term @ word)
    return out


_coeffs = st.builds(lambda a, b, c, d: ExactScalar(Fraction(a, 3), b, c, Fraction(d, 2)),
                    *[st.integers(-3, 3)] * 4)


@st.composite
def _polynomials(draw, max_degree):
    """1-3 monomials over 1-2 modes, per-mode degree <= max_degree."""
    modes = draw(st.integers(1, 2))
    degrees = st.tuples(*[st.integers(0, max_degree)] * modes)
    keys = draw(st.lists(st.tuples(degrees, degrees), min_size=1, max_size=3))
    return OperatorExpr(modes, {key: draw(_coeffs) for key in keys})


# per-mode degrees reach and pass the cutoff, so truncated columns are drawn
@settings(max_examples=150, deadline=None)
@given(expr=_polynomials(3), cutoff=st.integers(2, 7))
@example(expr=parse_expr("ad1^3*a1^3 + (1/2)*i*ad1^2 - sqrt2*a1^2", 1), cutoff=2)
@example(expr=parse_expr("ad1*ad2^3*a2 + i*a1^3*ad2^2", 2), cutoff=3)
def test_realize_matches_kron_chain_exactly(expr, cutoff):
    fock = FockRealization(cutoff, expr.modes)
    assert np.array_equal(realize(expr, fock), _kron_reference(expr, fock))


def _quadratics():
    """Polynomials of total degree <= 2 on two modes."""
    degrees = st.tuples(st.integers(0, 2), st.integers(0, 2))
    keys = st.tuples(degrees, degrees).filter(lambda k: sum(k[0]) + sum(k[1]) <= 2)
    return st.dictionaries(keys, _coeffs, min_size=1, max_size=4).map(
        lambda terms: OperatorExpr(2, terms))


@settings(max_examples=60, deadline=None)
@given(a=_quadratics(), b=_quadratics(), cutoff=st.integers(5, 10))
def test_protected_commutator_of_random_quadratics(a, b, cutoff):
    fock = FockRealization(cutoff, 2)
    assert protected_commutator_check(a, b, fock, guard=4) <= 1e-12
