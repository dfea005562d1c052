"""Truncated number-basis realizations and the protected-subspace check."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import factorial, lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ladderlie import focknum
from ladderlie.catalog import FAMILY_VARIANTS, two_mode_oscillator
from ladderlie.focknum import (FockRealization, protected_commutator_check,
                               realize, worst_protected_commutator)
from ladderlie.opalg import (OperatorExpr, annihilation_op, commutator,
                             creation_op, parse_expr)
from ladderlie.scalars import ExactScalar


def _number_op(mode, modes):
    return creation_op(mode, modes) * annihilation_op(mode, modes)


def _basis_occupations(fock):
    """Occupation tuple for every basis index (mode 1 varies slowest)."""
    return [tuple(row) for row in fock.occupations.tolist()]


def test_number_operator_is_diagonal():
    fock = FockRealization(8, 1)
    n = realize(_number_op(1, 1), fock)
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
    occ = _basis_occupations(fock)
    assert occ[0] == (0, 0)
    assert occ[1] == (0, 1)
    assert occ[3] == (1, 0)
    assert len(occ) == 9
    assert occ[8] == (2, 2)


def test_two_mode_index_convention():
    # column index n1*cutoff + n2 must match kron(mode1, mode2)
    fock = FockRealization(4, 2)
    n1 = realize(_number_op(1, 2), fock)
    n2 = realize(_number_op(2, 2), fock)
    occ = _basis_occupations(fock)
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
    occ = _basis_occupations(fock)
    want = np.diag([(o1 + o2 + 1) / 2 for o1, o2 in occ]).astype(complex)
    assert np.max(np.abs(s0 - want)) < 1e-12


def test_realized_generators_hermitian():
    fock = FockRealization(8, 2)
    realized = {label: realize(expr, fock) for label, expr in two_mode_oscillator().items()}
    for m in realized.values():
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
    occ = _basis_occupations(fock)
    for k in idx:
        assert sum(occ[k]) <= 2
    assert len(idx) == 6     # (0,0) (0,1) (0,2) (1,0) (1,1) (2,0)


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_protected_indices_match_the_occupation_sums(modes):
    for cutoff in range(2, 13):
        fock = FockRealization(cutoff, modes)
        occ = _basis_occupations(fock)
        for guard in range(cutoff):
            want = [idx for idx, o in enumerate(occ) if sum(o) <= cutoff - 1 - guard]
            assert fock.protected_indices(guard).tolist() == want


def test_occupation_table_is_read_only_and_built_once():
    fock = FockRealization(4, 2)
    occ = fock.occupations
    assert occ is fock.occupations
    assert occ.shape == (16, 2)
    assert _basis_occupations(fock) == list(product(range(4), repeat=2))
    with pytest.raises(ValueError):
        occ[0, 0] = 1


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
    monkeypatch.setattr(focknum, "entries", refuse)
    j1 = two_mode_oscillator().element("J1")
    for guard in (-1, 4):
        with pytest.raises(ValueError):
            protected_commutator_check(j1, j1, FockRealization(4, 2), guard)
        with pytest.raises(ValueError):
            worst_protected_commutator({"J1": j1}, FockRealization(4, 2), guard)


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


# Non-Hermitian inputs, the zero expression and monomials that share entries
# (all three of the first sit on the diagonal).
_ENTRY_EXAMPLES = [
    (parse_expr("ad1^2*a1^2 + (1/2)*ad1*a1 + i", 1), 5),
    (parse_expr("ad1*a2", 2), 4),
    (parse_expr("a1^2", 2), 4),
    (parse_expr("ad1*a2 + i*ad1^2*a1*a2 - sqrt2*ad1", 2), 3),
    (OperatorExpr(2, {}), 3),
]


def _with_entry_examples(test):
    for expr, cutoff in _ENTRY_EXAMPLES:
        test = example(expr=expr, cutoff=cutoff)(test)
    return test


# per-mode degrees reach and pass the cutoff, so truncated columns are drawn
@settings(max_examples=150, deadline=None)
@given(expr=_polynomials(3), cutoff=st.integers(2, 7))
@example(expr=parse_expr("ad1^3*a1^3 + (1/2)*i*ad1^2 - sqrt2*a1^2", 1), cutoff=2)
@example(expr=parse_expr("ad1*ad2^3*a2 + i*a1^3*ad2^2", 2), cutoff=3)
@_with_entry_examples
def test_realize_matches_kron_chain_exactly(expr, cutoff):
    fock = FockRealization(cutoff, expr.modes)
    want = _kron_reference(expr, fock)
    ent = focknum.entries(expr, fock)
    keys = ent.rows * fock.dim + ent.cols
    assert np.all(np.diff(keys) > 0)       # unique coordinates, row-major
    dense = np.zeros((fock.dim, fock.dim), dtype=complex)
    dense[ent.rows, ent.cols] = ent.values
    assert np.array_equal(dense, want)
    assert np.array_equal(realize(expr, fock), want)


# Each unit monomial is remembered per realization, so a memo keyed without
# it would hand cutoff 5's entries to cutoff 6 and back.
@settings(max_examples=60, deadline=None)
@given(expr=_polynomials(3), cutoffs=st.lists(st.integers(2, 7), min_size=2,
                                              max_size=2, unique=True))
@example(expr=parse_expr("ad1*ad2 + i*a1*a2 - sqrt2*ad1*a2", 2), cutoffs=[5, 6])
def test_entries_follow_the_realization_when_cutoffs_alternate(expr, cutoffs):
    for cutoff in cutoffs + cutoffs[:1]:
        fock = FockRealization(cutoff, expr.modes)
        ent = focknum.entries(expr, fock)
        dense = np.zeros((fock.dim, fock.dim), dtype=complex)
        dense[ent.rows, ent.cols] = ent.values
        assert np.array_equal(dense, _kron_reference(expr, fock))


@settings(max_examples=150, deadline=None)
@given(expr=_polynomials(3), cutoff=st.integers(2, 7))
@_with_entry_examples
def test_deviations_from_entries_equal_the_dense_formulas(expr, cutoff):
    fock = FockRealization(cutoff, expr.modes)
    m = realize(expr, fock)
    ent = focknum.entries(expr, fock)
    assert (focknum.hermitian_deviation(ent, fock)
            == float(np.max(np.abs(m - m.conj().T))))
    d = (fock.occupations.sum(axis=1) + 1) / 2
    assert (focknum.diagonal_deviation(ent, fock, d)
            == float(np.max(np.abs(m - np.diag(d)))))


def _block(expr, fock, rows, cols):
    """The block of `expr` on `rows` x `cols` that `_positions` selects from
    its entries, the route of the protected products' slabs and brackets."""
    at_row, at_col = np.full((2, fock.dim), -1)
    at_row[rows] = np.arange(len(rows))
    at_col[cols] = np.arange(len(cols))
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    where, values = focknum._positions(focknum.entries(expr, fock), at_row, at_col)
    out[where] = values
    return out


@settings(max_examples=150, deadline=None)
@given(expr=_polynomials(3), cutoff=st.integers(2, 7), data=st.data())
def test_block_is_the_indexed_dense_matrix(expr, cutoff, data):
    fock = FockRealization(cutoff, expr.modes)
    subsets = st.lists(st.integers(0, fock.dim - 1), unique=True)
    rows = np.array(data.draw(subsets), dtype=int)
    cols = np.array(data.draw(subsets), dtype=int)
    assert np.array_equal(_block(expr, fock, rows, cols),
                          realize(expr, fock)[rows][:, cols])


def test_block_sums_monomials_that_share_entries():
    # all three monomials sit on the diagonal; rows and columns out of order
    expr = parse_expr("ad1^2*a1^2 + (1/2)*ad1*a1 + i", 1)
    fock = FockRealization(5, 1)
    rows, cols = np.array([4, 0, 2, 3]), np.array([3, 2, 1])
    assert np.array_equal(_block(expr, fock, rows, cols),
                          realize(expr, fock)[rows][:, cols])


def _quadratics(coeffs=_coeffs):
    """Polynomials of total degree <= 2 on two modes."""
    degrees = st.tuples(st.integers(0, 2), st.integers(0, 2))
    keys = st.tuples(degrees, degrees).filter(lambda k: sum(k[0]) + sum(k[1]) <= 2)
    return st.dictionaries(keys, coeffs, min_size=1, max_size=4).map(
        lambda terms: OperatorExpr(2, terms))


@settings(max_examples=60, deadline=None)
@given(a=_quadratics(), b=_quadratics(), cutoff=st.integers(5, 10))
def test_protected_commutator_of_random_quadratics(a, b, cutoff):
    fock = FockRealization(cutoff, 2)
    assert protected_commutator_check(a, b, fock, guard=4) <= 1e-12


# -- exact oracle: the Bargmann gauge ------------------------------------------
#
# Conjugated by D = diag(sqrt(n1! n2!)), the realized ad^c a^d sends |k> to
# |k - d + c> with the integer weight prod_m k_m!/(k_m - d_m)!: a becomes d/dz
# and ad becomes z (Bargmann, Comm. Pure Appl. Math. 14, 187, 1961).  A
# similarity keeps commutators, so with Gaussian-rational coefficients, scaled
# to Gaussian integers (re, im), [A, B] - [A, B]_symbolic is exactly zero on
# the protected block in Python integers: no float, no BLAS, no tolerance.


def _gaussian(coeff: ExactScalar, scale: int) -> tuple:
    """scale * coeff as a Gaussian integer (re, im)."""
    assert coeff.q1 == coeff.q3 == 0, f"{coeff} is not a Gaussian rational"
    re, im = coeff.q0 * scale, coeff.q2 * scale
    assert re.denominator == im.denominator == 1, f"{coeff} times {scale}"
    return int(re), int(im)


def _gauge(expr: OperatorExpr, cutoff: int, scale: int) -> dict:
    """scale * D^-1 realize(expr) D as {(row state, column state): (re, im)}."""
    out = {}
    for mono in expr.terms:
        re, im = _gaussian(mono.coeff, scale)
        for k in product(range(cutoff), repeat=expr.modes):
            low = [n - d for n, d in zip(k, mono.adeg)]
            high = tuple(n + c for n, c in zip(low, mono.cdeg))
            if min(low) < 0 or max(high) >= cutoff:
                continue
            w = 1
            for n, d in zip(k, mono.adeg):
                w *= factorial(n) // factorial(n - d)
            x, y = out.get((high, k), (0, 0))
            out[high, k] = (x + w * re, y + w * im)
    return out


def _gauge_defect(a: OperatorExpr, b: OperatorExpr, cutoff: int, guard: int,
                  symbolic: OperatorExpr | None = None) -> dict:
    """The nonzero entries of [A, B] - `symbolic` (by default `commutator(a, b)`)
    on the protected block (total quanta <= cutoff - 1 - guard), in the gauge;
    {} when it is exact."""
    scale = lcm(*(q.denominator for e in (a, b) for m in e.terms
                  for q in (m.coeff.q0, m.coeff.q2)))
    keep = {k for k in product(range(cutoff), repeat=a.modes)
            if sum(k) <= cutoff - 1 - guard}
    ga, gb = _gauge(a, cutoff, scale), _gauge(b, cutoff, scale)
    out = {}
    for left, right, sign in ((ga, gb, 1), (gb, ga, -1)):
        by_row = {}
        for (j, q), v in right.items():
            if q in keep:
                by_row.setdefault(j, []).append((q, v))
        for (p, j), (u0, u1) in left.items():
            if p in keep:
                for q, (v0, v1) in by_row.get(j, ()):
                    x, y = out.get((p, q), (0, 0))
                    out[p, q] = (x + sign * (u0 * v0 - u1 * v1), y + sign * (u0 * v1 + u1 * v0))
    symbolic = commutator(a, b) if symbolic is None else symbolic
    for (p, q), (s0, s1) in _gauge(symbolic, cutoff, scale * scale).items():
        if p in keep and q in keep:
            x, y = out.get((p, q), (0, 0))
            out[p, q] = (x - s0, y - s1)
    return {at: v for at, v in out.items() if v != (0, 0)}


@settings(max_examples=12, deadline=None)
@given(variant=st.sampled_from(FAMILY_VARIANTS["two-mode-oscillator"]),
       cutoff=st.integers(5, 9), guard=st.integers(2, 4))
def test_family_brackets_are_exact_in_the_bargmann_gauge(variant, cutoff, guard):
    fam = two_mode_oscillator(variant)
    generators = dict(fam.items())
    for a, b in fam.pairs():
        assert _gauge_defect(generators[a], generators[b], cutoff, guard) == {}, (a, b)
    # the float route passes where the exact oracle finds nothing
    fock = FockRealization(cutoff, 2)
    assert worst_protected_commutator(generators, fock, guard)[0] <= 1e-12


_gaussian_coeffs = st.builds(lambda a, b: ExactScalar(Fraction(a, 3), 0, Fraction(b, 2)),
                             st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(a=_quadratics(_gaussian_coeffs), b=_quadratics(_gaussian_coeffs),
       cutoff=st.integers(5, 10), guard=st.integers(2, 4))
def test_random_quadratic_brackets_are_exact_in_the_bargmann_gauge(a, b, cutoff, guard):
    assert _gauge_defect(a, b, cutoff, guard) == {}
    fock = FockRealization(cutoff, 2)
    assert protected_commutator_check(a, b, fock, guard) <= 1e-12


def test_bargmann_gauge_oracle_sees_a_wrong_bracket():
    # (1/4) ad1 a2 added to the symbolic [J1, K3] is left over on the block
    fam = two_mode_oscillator()
    j1, k3 = fam.element("J1"), fam.element("K3")
    wrong = commutator(j1, k3) + parse_expr("(1/4)*ad1*a2", 2)
    defect = _gauge_defect(j1, k3, 8, 4, wrong)
    # J1 and K3 scale by 2, the bracket by 4: -(1/4) ad1 a2 becomes -k2 at
    # row |k1 + 1, k2 - 1>, column |k1, k2>, for k1 + k2 <= 8 - 1 - 4
    assert defect == {((k1 + 1, k2 - 1), (k1, k2)): (-k2, 0)
                      for k1 in range(8) for k2 in range(1, 8) if k1 + k2 <= 3}


def _dense_protected_block(a, b, fock, guard):
    """The dense route: realize both operands and their bracket, then index."""
    keep = fock.protected_indices(guard)
    ma, mb = realize(a, fock), realize(b, fock)
    sym = realize(commutator(a, b), fock)
    return ma[keep] @ mb[:, keep] - mb[keep] @ ma[:, keep] - sym[keep][:, keep]


def _dense_protected_check(a, b, fock, guard):
    block = _dense_protected_block(a, b, fock, guard)
    return float(np.max(np.abs(block))) if block.size else 0.0


@settings(max_examples=60, deadline=None)
@given(a=_quadratics(), b=_quadratics(), cutoff=st.integers(5, 10),
       guard=st.integers(2, 4))
def test_protected_commutator_equals_the_dense_route(a, b, cutoff, guard):
    fock = FockRealization(cutoff, 2)
    assert (protected_commutator_check(a, b, fock, guard)
            == _dense_protected_check(a, b, fock, guard))


def _dense_worst(generators, fock, guard):
    """Max of the dense route over every pair, with its first pair."""
    devs = [(_dense_protected_check(generators[a], generators[b], fock, guard), (a, b))
            for a, b in combinations(generators, 2)]
    return max(devs, key=lambda dev: dev[0])


def _assert_witness(generators, fock, guard, worst, witness):
    """The witness pair's dense block first reaches `worst` at (row, col)."""
    (a, b), row, col = witness
    dev = np.abs(_dense_protected_block(generators[a], generators[b], fock, guard))
    keep = fock.protected_indices(guard).tolist()
    assert divmod(int(dev.argmax()), len(keep)) == (keep.index(row), keep.index(col))
    assert dev.max() == worst


@pytest.mark.parametrize("cutoff, guard", [(8, 4), (10, 2), (11, 5)])
def test_family_worst_is_the_max_of_the_dense_route(cutoff, guard):
    generators = dict(two_mode_oscillator().items())
    fock = FockRealization(cutoff, 2)
    worst, witness = worst_protected_commutator(generators, fock, guard)
    assert worst == max(_dense_protected_check(generators[a], generators[b], fock, guard)
                        for a, b in two_mode_oscillator().pairs())
    assert (worst, witness[0]) == _dense_worst(generators, fock, guard)
    _assert_witness(generators, fock, guard, worst, witness)


@settings(max_examples=40, deadline=None)
@given(gens=st.lists(_quadratics(), min_size=1, max_size=4), cutoff=st.integers(5, 8),
       guard=st.integers(2, 4))
def test_family_worst_equals_the_dense_route(gens, cutoff, guard):
    # random brackets, so pairs differ and reused slabs must be cleared between them
    generators = {f"G{k}": expr for k, expr in enumerate(gens)}
    fock = FockRealization(cutoff, 2)
    worst, witness = worst_protected_commutator(generators, fock, guard)
    if len(gens) == 1:
        assert (worst, witness) == (0.0, None)
        return
    assert (worst, witness[0]) == _dense_worst(generators, fock, guard)
    _assert_witness(generators, fock, guard, worst, witness)


def test_protected_commutator_forms_no_dense_matrix(monkeypatch):
    fam = two_mode_oscillator()
    fock = FockRealization(12, 2)
    want = _dense_protected_check(fam.element("K1"), fam.element("Q2"), fock, 4)

    def refuse(*_args):
        raise AssertionError("dense matrix realized")
    monkeypatch.setattr(focknum, "realize", refuse)
    got = protected_commutator_check(fam.element("K1"), fam.element("Q2"), fock, 4)
    assert got == want


_real_coeffs = st.builds(lambda a, b: ExactScalar(Fraction(a, 3), b),
                         *[st.integers(-3, 3)] * 2)


def _hermitian_quadratics():
    """X + X^dagger and i(X - X^dagger), whose entries are each real or each
    imaginary when X has real coefficients (so BA is taken from (AB)^dagger),
    and X + X^dagger for complex X (so BA is a second product)."""
    real = _quadratics(_real_coeffs)
    return st.one_of(real.map(lambda x: x + x.adjoint()),
                     real.map(lambda x: ExactScalar(0, 0, 1) * (x - x.adjoint())),
                     _quadratics().map(lambda x: x + x.adjoint()))


@settings(max_examples=60, deadline=None)
@given(gens=st.lists(_hermitian_quadratics(), min_size=1, max_size=4),
       odd=_quadratics().filter(lambda x: x != x.adjoint()), at=st.integers(0, 4),
       cutoff=st.integers(5, 12), guard=st.integers(2, 4))
def test_family_worst_of_hermitian_generators_equals_the_dense_route(gens, odd, at,
                                                                     cutoff, guard):
    # one non-Hermitian generator among Hermitian ones: its pairs keep the
    # second product
    exprs = list(gens)
    exprs.insert(at, odd)
    generators = {f"G{k}": expr for k, expr in enumerate(exprs)}
    fock = FockRealization(cutoff, 2)
    worst, witness = worst_protected_commutator(generators, fock, guard)
    assert (worst, witness[0]) == _dense_worst(generators, fock, guard)
    _assert_witness(generators, fock, guard, worst, witness)
    # the same with each generator's entries and Hermitian deviation given
    built = {}
    for label, expr in generators.items():
        ent = focknum.entries(expr, fock)
        built[label] = ent, focknum.hermitian_deviation(ent, fock)
    assert worst_protected_commutator(generators, fock, guard, built) == (worst, witness)


_DIAGONAL_MONOMIALS = ["ad1*a1", "ad2*a2", "1", "ad1^2*a1^2", "ad1*ad2*a1*a2"]


def _diagonal_generators():
    """Diagonal generators: real coefficients on the diagonal monomials, all
    times 1 or i, so that every entry is real or every entry imaginary."""
    terms = st.dictionaries(st.sampled_from(_DIAGONAL_MONOMIALS), _real_coeffs,
                            min_size=1, max_size=5)
    phase = st.sampled_from([ExactScalar(1), ExactScalar(0, 0, 1)])
    return st.builds(lambda terms, phase: phase * sum(
        (coeff * parse_expr(mono, 2) for mono, coeff in terms.items()), OperatorExpr(2)),
        terms, phase)


@settings(max_examples=60, deadline=None)
@given(gens=st.lists(_quadratics(), min_size=1, max_size=3),
       diagonals=st.lists(_diagonal_generators(), min_size=1, max_size=3),
       data=st.data(), cutoff=st.integers(5, 10), guard=st.integers(2, 4))
def test_family_worst_with_diagonal_generators_equals_the_dense_route(gens, diagonals,
                                                                     data, cutoff, guard):
    # diagonal generators among complex quadratics, in drawn order, so both
    # operand orders and diagonal-by-diagonal pairs occur
    exprs = list(gens)
    for diagonal in diagonals:
        exprs.insert(data.draw(st.integers(0, len(exprs))), diagonal)
    generators = {f"G{k}": expr for k, expr in enumerate(exprs)}
    fock = FockRealization(cutoff, 2)
    worst, witness = worst_protected_commutator(generators, fock, guard)
    assert (worst, witness[0]) == _dense_worst(generators, fock, guard)
    _assert_witness(generators, fock, guard, worst, witness)


@st.composite
def _cubics(draw):
    """Two-mode generators past the quadratics: 1-3 terms with per-mode degree
    <= 3, raw, made Hermitian with real entries (P + P^dagger for real P, so BA
    is read from (AB)^dagger) or diagonal with real entries."""
    degrees = st.tuples(st.integers(0, 3), st.integers(0, 3))
    kind = draw(st.sampled_from(["raw", "hermitian", "diagonal"]))
    if kind == "diagonal":
        keys = draw(st.lists(degrees, min_size=1, max_size=3, unique=True))
        return OperatorExpr(2, {(d, d): draw(_real_coeffs) for d in keys})
    keys = draw(st.lists(st.tuples(degrees, degrees), min_size=1, max_size=3, unique=True))
    expr = OperatorExpr(2, {key: draw(_coeffs if kind == "raw" else _real_coeffs)
                            for key in keys})
    return expr + expr.adjoint() if kind == "hermitian" else expr


@settings(max_examples=60, deadline=None)
@given(gens=st.lists(_cubics(), min_size=2, max_size=4), cutoff=st.integers(4, 7),
       guard=st.integers(2, 3))
def test_family_worst_of_cubic_generators_equals_the_dense_route(gens, cutoff, guard):
    # shifts up to 3 quanta per mode, and brackets up to 5, so the bands are
    # not those of Dirac's quadratics; truncation defects make large maxima
    generators = {f"G{k}": expr for k, expr in enumerate(gens)}
    fock = FockRealization(cutoff, 2)
    worst, witness = worst_protected_commutator(generators, fock, guard)
    assert (worst, witness[0]) == _dense_worst(generators, fock, guard)
    _assert_witness(generators, fock, guard, worst, witness)


def test_all_zero_block_has_its_witness_at_the_first_position():
    # J3 and S0 commute and are diagonal: every deviation is exactly 0, and
    # the dense route's first largest entry is the block's first position
    fam = two_mode_oscillator()
    generators = {"J3": fam.element("J3"), "S0": fam.element("S0")}
    fock = FockRealization(8, 2)
    worst, witness = worst_protected_commutator(generators, fock, 4)
    first = int(fock.protected_indices(4)[0])
    assert (worst, witness) == (0.0, (("J3", "S0"), first, first))
    assert (worst, witness[0]) == _dense_worst(generators, fock, 4)
    _assert_witness(generators, fock, 4, worst, witness)


def _count_products(monkeypatch):
    """A list that gets one item per `np.matmul` call."""
    calls = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        calls.append(args)
        return matmul(*args, **kwargs)
    monkeypatch.setattr(np, "matmul", counting)
    return calls


# J1 is Hermitian with real entries; ad1*a2 is not Hermitian; the last is
# Hermitian, but its entries are complex
@pytest.mark.parametrize("b, products", [
    ("J1", 1), ("ad1*a2", 2), ("(1 + i)*ad1*a2 + (1 - i)*ad2*a1", 2)])
def test_one_product_per_pair_of_hermitian_generators(monkeypatch, b, products):
    fam = two_mode_oscillator()
    fock = FockRealization(8, 2)
    generators = {"K1": fam.element("K1"),
                  b: fam.element(b) if b in fam.labels else parse_expr(b, 2)}
    want = _dense_worst(generators, fock, 4)
    calls = _count_products(monkeypatch)
    worst, witness = worst_protected_commutator(generators, fock, 4)
    assert len(calls) == products
    assert (worst, witness[0]) == want


def test_family_check_makes_one_product_per_pair(monkeypatch):
    # one product per pair, and none for the 17 pairs with S0 or J3, which are
    # diagonal with real entries
    generators = dict(two_mode_oscillator().items())
    fock = FockRealization(8, 2)
    calls = _count_products(monkeypatch)
    worst_protected_commutator(generators, fock, 4)
    diagonal = [pair for pair in combinations(generators, 2) if {"S0", "J3"} & set(pair)]
    assert len(diagonal) == 17
    assert len(calls) == 28 == len(list(combinations(generators, 2))) - len(diagonal)


# A diagonal operand whose entries are each real or imaginary scales the
# other operand's block; one with complex entries takes the BLAS route.  The
# other operand is Hermitian (K1) or not (ad1*a2).
@pytest.mark.parametrize("other", ["K1", "ad1*a2"])
@pytest.mark.parametrize("diagonal, products", [
    ("S0", 0), ("J3", 0), ("(1/2)*ad1*a1 - sqrt2*ad2*a2", 0), ("i*ad1^2*a1^2 - 3*i", 0),
    ("(1 + i)*ad1*a1", 2), ("ad1*a1 + i*ad2*a2", 2)])
def test_products_of_pairs_with_a_diagonal_operand(monkeypatch, other, diagonal, products):
    fam = two_mode_oscillator()
    fock = FockRealization(9, 2)
    exprs = [fam.element(x) if x in fam.labels else parse_expr(x, 2)
             for x in (other, diagonal)]
    for generators in (dict(zip("ab", exprs)), dict(zip("ab", exprs[::-1]))):
        want = _dense_worst(generators, fock, 4)
        calls = _count_products(monkeypatch)
        worst, witness = worst_protected_commutator(generators, fock, 4)
        assert len(calls) == products
        assert (worst, witness[0]) == want
        _assert_witness(generators, fock, 4, worst, witness)


def test_family_check_builds_only_the_generators_entries(monkeypatch):
    # each bracket's block is summed from its unit monomials' block positions,
    # found once per monomial, with no entries of its own
    generators = dict(two_mode_oscillator().items())
    fock = FockRealization(8, 2)
    want = _dense_worst(generators, fock, 4)
    built, asked = [], []
    build, unit = focknum.entries, focknum._unit_monomial

    def counting(expr, realization):
        built.append(expr)
        return build(expr, realization)

    def recorded(*key):
        asked.append(key)
        return unit(*key)
    monkeypatch.setattr(focknum, "entries", counting)
    monkeypatch.setattr(focknum, "_unit_monomial", recorded)
    worst, witness = worst_protected_commutator(generators, fock, 4)
    assert built == list(generators.values())
    from_generators = sum(len(expr.terms) for expr in generators.values())
    by_brackets = asked[from_generators:]
    monomials = {(mono.cdeg, mono.adeg) for a, b in combinations(generators, 2)
                 for mono in commutator(generators[a], generators[b]).terms}
    assert len(by_brackets) == len(set(by_brackets)) == len(monomials)
    assert {key[1:] for key in by_brackets} == monomials
    assert (worst, witness[0]) == want
    _assert_witness(generators, fock, 4, worst, witness)


@settings(max_examples=40, deadline=None)
@given(gens=st.lists(_quadratics(), min_size=2, max_size=3),
       brackets=st.lists(st.one_of(_quadratics(), st.sampled_from(
           [expr for expr, _ in _ENTRY_EXAMPLES if expr.modes == 2])), min_size=3,
           max_size=3),
       cutoff=st.integers(4, 8), guard=st.integers(2, 3))
def test_bracket_blocks_equal_the_blocks_of_their_entries(gens, brackets, cutoff, guard):
    # any expression in place of the true bracket, so the bracket block sets
    # the maximum; the dense route takes each bracket's block from its entries
    generators = {f"G{k}": expr for k, expr in enumerate(gens)}
    pairs = list(combinations(generators, 2))
    chosen = {(generators[a], generators[b]): brackets[k] for k, (a, b) in enumerate(pairs)}

    def substituted(a, b):
        return chosen.get((a, b), OperatorExpr(2))
    fock = FockRealization(cutoff, 2)
    keep = fock.protected_indices(guard)
    want = []
    for k, (a, b) in enumerate(pairs):
        ma, mb = realize(generators[a], fock), realize(generators[b], fock)
        block = (ma[keep] @ mb[:, keep] - mb[keep] @ ma[:, keep]
                 - _block(chosen.get((generators[a], generators[b]), OperatorExpr(2)),
                          fock, keep, keep))
        want.append((float(np.max(np.abs(block))), (a, b)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(focknum, "bracket", substituted)
        worst, witness = worst_protected_commutator(generators, fock, guard)
    assert (worst, witness[0]) == max(want, key=lambda dev: dev[0])


_OTHER_KERNEL = """
import sys
sys.path.insert(0, sys.argv[1])
from test_focknum import (FockRealization, _assert_witness, _dense_worst,
                          two_mode_oscillator, worst_protected_commutator)
generators = dict(two_mode_oscillator().items())
for cutoff, guard in ((16, 4), (24, 6)):
    fock = FockRealization(cutoff, 2)
    worst, witness = worst_protected_commutator(generators, fock, guard)
    assert (worst, witness[0]) == _dense_worst(generators, fock, guard), (cutoff, worst)
    _assert_witness(generators, fock, guard, worst, witness)
"""


def test_family_worst_equals_the_dense_route_under_another_blas_kernel():
    # BA from (AB)^dagger and the diagonal scalings must match the dense products
    # under a kernel that orders its sums differently from the default one, with
    # one and two BLAS threads; at cutoff 24 the 576-wide inner dimension spans
    # more than one of the kernel's blocks
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _OTHER_KERNEL, str(here)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (threads, done.stderr)
