"""The paper's tables rebuilt outside the engine, with sympy as the oracle.

For every family and variant in the registry, sympy rebuilds the bracket
table from the catalog's exact entries alone: matrix families with exact
`Matrix` commutators, operator families with sympy's boson algebra
(`BosonOp` and `normal_ordered_form`, from [a, a^dagger] = 1), and each
bracket is expanded in the family basis with `gauss_jordan_solve`.  The
squeezed o32 generators are contracted with `sympy.limit`.  The module reads
only public `ladderlie` names: the catalog's entries go in, and the engine's
`structure_constants`, `commutator` and contraction limits are checked
against what comes out, so a change that moves the engine and its own
target tables the same way still fails here.
"""

import warnings
from functools import cache

import pytest
import sympy
from sympy.physics.quantum import Dagger
from sympy.physics.quantum.boson import BosonOp
from sympy.physics.quantum.operatorordering import normal_ordered_form

from ladderlie import (CONTRACTION_RELABEL, FAMILY_VARIANTS, ExactMatrix, commutator,
                       conjugate, contract_o32, family, limit, o32_matrices,
                       structure_constants)

_MODES = (BosonOp("a"), BosonOp("b"))
EPS = sympy.Symbol("eps", positive=True)
VARIANTS = [(name, variant) for name, variants in FAMILY_VARIANTS.items()
            for variant in variants]


def _scalar(x) -> sympy.Expr:
    """An ExactScalar q0 + q1 sqrt2 + q2 i + q3 i sqrt2 as a sympy number."""
    q0, q1, q2, q3 = (sympy.Rational(q.numerator, q.denominator)
                      for q in (x.q0, x.q1, x.q2, x.q3))
    return q0 + q1 * sympy.sqrt(2) + sympy.I * (q2 + q3 * sympy.sqrt(2))


def _matrix(m: ExactMatrix) -> sympy.Matrix:
    return sympy.Matrix([[_scalar(x) for x in row] for row in m.rows])


def _terms(expr) -> dict:
    """An OperatorExpr's terms as {(cdeg, adeg): sympy coefficient}."""
    return {(t.cdeg, t.adeg): _scalar(t.coeff) for t in expr.terms}


def _word(key):
    """The normally ordered word ad1^c1 ad2^c2 a1^d1 a2^d2 of a term key."""
    cdeg, adeg = key
    word = sympy.Integer(1)
    for op, c in zip(_MODES, cdeg):
        word *= Dagger(op) ** c
    for op, d in zip(_MODES, adeg):
        word *= op ** d
    return word


def _is_zero(x) -> bool:
    return sympy.expand(x) == 0


@cache
def _unit_commutator(left, right) -> dict:
    """[word(left), word(right)] in sympy's normal order, as {key: coefficient}."""
    x, y = _word(left), _word(right)
    with warnings.catch_warnings():
        # sympy gives up on deep rewrites with a warning and returns a partly
        # ordered result; that must fail the test, not pass it
        warnings.simplefilter("error")
        ordered = normal_ordered_form(sympy.expand(x * y - y * x), independent=True,
                                      recursive_limit=100)
    modes = len(left[0])
    out: dict = {}
    for term in sympy.Add.make_args(sympy.expand(ordered)):
        numbers, ops = term.args_cnc()
        cdeg, adeg = [0] * modes, [0] * modes
        for op in ops:
            base, exp = op.as_base_exp()
            mode = next(m for m, o in enumerate(_MODES) if base in (o, Dagger(o)))
            # normal order: every creator of a mode before its annihilators
            assert base == _MODES[mode] or not adeg[mode], ordered
            (cdeg if base == Dagger(_MODES[mode]) else adeg)[mode] += int(exp)
        key = (tuple(cdeg), tuple(adeg))
        out[key] = out.get(key, 0) + sympy.Mul(*numbers)
    return out


class Oracle:
    """One family's table, computed by sympy from the catalog's entries.

    Each generator and each bracket is a coordinate vector: matrix entries
    in row-major order, or the coefficients of normally ordered words.  A
    generator whose column gets no pivot in the Gauss-Jordan form of the
    basis is spanned by the earlier ones; otherwise `gauss_jordan_solve`
    expands each bracket in the basis, or finds that it leaves the span.
    """

    def __init__(self, fam):
        self.kind, self.labels = fam.kind, fam.labels
        if fam.kind == "matrix":
            self.matrices = {l: _matrix(m) for l, m in fam.items()}
            self.basis = {l: dict(enumerate(m)) for l, m in self.matrices.items()}
        else:
            self.basis = {l: _terms(x) for l, x in fam.items()}
        self.brackets = {(a, b): self.bracket(a, b) for a, b in fam.pairs()}
        keys = sorted({k for v in (*self.basis.values(), *self.brackets.values())
                       for k in v})
        columns = sympy.Matrix([[self.basis[l].get(k, 0) for l in self.labels]
                                for k in keys])
        _, pivots = columns.rref(iszerofunc=_is_zero)
        self.dependent = tuple(l for j, l in enumerate(self.labels) if j not in pivots)
        if not self.dependent:
            rhs = sympy.Matrix([[v.get(k, 0) for v in self.brackets.values()] for k in keys])
            # {(a, b): {label: coefficient}}, or None where [a, b] leaves the span
            self.table = dict(zip(self.brackets, self._expand(columns, rhs)))

    def _expand(self, columns, rhs) -> list:
        """Each column of rhs in the basis, as {label: coefficient}, or None
        where it leaves the span."""
        try:
            solution, _ = columns.gauss_jordan_solve(rhs)
        except ValueError:      # some column leaves the span: find which, one at a time
            if rhs.cols == 1:
                return [None]
            return [c for j in range(rhs.cols) for c in self._expand(columns, rhs[:, j])]
        return [{l: solution[i, j] for i, l in enumerate(self.labels)
                 if not _is_zero(solution[i, j])} for j in range(rhs.cols)]

    def bracket(self, a: str, b: str) -> dict:
        """Coordinates of [X_a, X_b]: sympy's matrix commutator, or the sum of
        sympy's commutators of the two generators' words."""
        if self.kind == "matrix":
            x, y = self.matrices[a], self.matrices[b]
            out = dict(enumerate(x * y - y * x))
        else:
            out = {}
            for k1, s1 in self.basis[a].items():
                for k2, s2 in self.basis[b].items():
                    for key, w in _unit_commutator(k1, k2).items():
                        out[key] = out.get(key, 0) + s1 * s2 * w
        return {k: v for k, v in out.items() if not _is_zero(v)}


@cache
def _oracle(name: str, variant: str) -> Oracle:
    return Oracle(family(name, variant))


@pytest.mark.parametrize("name, variant", VARIANTS)
def test_structure_constants_match_the_sympy_table(name, variant):
    oracle = _oracle(name, variant)
    report = structure_constants(family(name, variant))
    assert report.dependent == oracle.dependent
    if oracle.dependent:
        assert not report.closed and report.constants is None
        return
    outside = [pair for pair, coeffs in oracle.table.items() if coeffs is None]
    assert [pair for pair, _ in report.failures] == outside
    assert report.closed == (not outside)
    if report.closed:
        for (a, b), want in oracle.table.items():
            got = report.constants.bracket_coeffs(a, b)
            assert set(got) == set(want), (a, b)
            assert all(_is_zero(_scalar(got[c]) - want[c]) for c in want), (a, b)


@pytest.mark.parametrize("name, variant", [(n, v) for n, v in VARIANTS
                                           if family(n, v).kind == "operator"])
def test_operator_brackets_match_sympy_normal_ordering(name, variant):
    fam = family(name, variant)
    for (a, b), want in _oracle(name, variant).brackets.items():
        got = _terms(commutator(fam.element(a), fam.element(b)))
        assert set(got) == set(want), (a, b)
        assert all(_is_zero(got[k] - want[k]) for k in want), (a, b)


def test_squeezed_o32_generators_contract_to_the_poincare_generators():
    """eps^p C(eps) G C(eps)^-1 with C = diag(1/eps, 1/eps, 1/eps, 1/eps, eps),
    p = 2 for the generators that flatten onto a translation and 0 for the rest."""
    squeeze = sympy.diag(*([1 / EPS] * 4 + [EPS]))
    poincare = contract_o32()
    for label, g in o32_matrices().items():
        power = 0 if CONTRACTION_RELABEL[label] == label else 2
        squeezed = EPS ** power * squeeze * _matrix(g) * squeeze.inv()
        want = squeezed.applyfunc(lambda x: sympy.limit(x, EPS, 0))
        assert not want.is_zero_matrix, label
        for got in (limit(conjugate(g, power)),
                    poincare.element(CONTRACTION_RELABEL[label])):
            assert (_matrix(got) - want).expand().is_zero_matrix, label
