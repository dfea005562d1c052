"""Squeeze-parameter contraction of the ten-generator family."""

from fractions import Fraction
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ladderlie.catalog import (POINCARE_LABELS, o32_matrices,
                               poincare_bracket_targets, translation_matrices)
from ladderlie.contract import (CONTRACTION_POWERS, CONTRACTION_RELABEL,
                                DivergentLimit, conjugate, contract_family,
                                contract_o32, contract_via_inverse_squeeze,
                                dominant_part, eps_term, limit, numeric_conjugate)
from ladderlie.liecore import (StructureConstants, compare, jacobi_check,
                               structure_constants)
from ladderlie.matrices import ExactMatrix
from ladderlie.scalars import ExactScalar, HALF, I, ONE, SQRT2, ZERO


def _at(traj, eps: float) -> np.ndarray:
    """Evaluate an exact eps trajectory at one float eps."""
    out = np.zeros((traj.coeffs.n,) * 2, dtype=complex)
    for i, j, k, v in traj.entries():
        out[i, j] = v.to_complex() * eps ** k
    return out


@pytest.mark.parametrize("power", range(5))
def test_exact_trajectory_matches_float_conjugation(power):
    # numeric_conjugate multiplies the float matrices C, G and C^-1
    for label, g in o32_matrices().items():
        traj = conjugate(g, power)
        for eps in (0.5, 0.1):
            diff = _at(traj, eps) - numeric_conjugate(g, power, eps)
            assert np.max(np.abs(diff)) <= 1e-12, (label, power, eps)


def test_conjugating_the_identity_is_eps_free():
    traj = conjugate(ExactMatrix.identity(5), 0)
    assert list(traj.entries()) == [(k, k, 0, ONE) for k in range(5)]
    assert limit(traj) == ExactMatrix.identity(5)


def test_conjugated_q1_trajectory():
    fam = o32_matrices()
    traj = conjugate(fam.element("Q1"), 2)
    assert list(traj.entries()) == [(0, 4, 0, I), (4, 0, 4, I)]


def test_contraction_powers_derive_from_the_relabel_table():
    assert CONTRACTION_POWERS == {
        "J1": 0, "J2": 0, "J3": 0,
        "K1": 0, "K2": 0, "K3": 0,
        "Q1": 2, "Q2": 2, "Q3": 2, "S0": 2,
    }
    assert list(CONTRACTION_POWERS) == list(CONTRACTION_RELABEL)
    flattened = {CONTRACTION_RELABEL[l] for l, p in CONTRACTION_POWERS.items() if p}
    assert flattened == set(translation_matrices().labels)


def test_limits_land_on_translations():
    fam = o32_matrices()
    trans = translation_matrices()
    for src in ("Q1", "Q2", "Q3", "S0"):
        got = limit(conjugate(fam.element(src), 2))
        assert got == trans.element(CONTRACTION_RELABEL[src])


def test_rotations_and_boosts_are_fixed():
    fam = o32_matrices()
    for label in ("J1", "J2", "J3", "K1", "K2", "K3"):
        got = limit(conjugate(fam.element(label), 0))
        assert got == fam.element(label)


def test_unscaled_limit_diverges():
    fam = o32_matrices()
    with pytest.raises(DivergentLimit) as err:
        limit(conjugate(fam.element("Q1"), 0))
    entries = [(i, j) for i, j, _, _ in err.value.entries]
    assert (0, 4) in entries


def test_scale_power_two_is_unique():
    fam = o32_matrices()
    q1 = fam.element("Q1")
    for power in (0, 1):
        with pytest.raises(DivergentLimit):
            limit(conjugate(q1, power))
    for power in (3, 4):
        assert limit(conjugate(q1, power)).is_zero()
    assert not limit(conjugate(q1, 2)).is_zero()


def test_dominant_part():
    fam = o32_matrices()
    traj = conjugate(fam.element("Q1"), 0)
    dom = dominant_part(traj)
    assert list(dom.entries()) == [(0, 4, -2, I)]


def test_dual_route_equality():
    fam = o32_matrices()
    for label, g in fam.items():
        direct = limit(conjugate(g, CONTRACTION_POWERS[label]))
        via = contract_via_inverse_squeeze(g)
        assert direct == via


def test_contract_o32_family():
    fam = contract_o32()
    assert fam.name == "poincare"
    assert fam.labels == POINCARE_LABELS
    trans = translation_matrices()
    for label in ("P1", "P2", "P3", "P0"):
        assert fam.element(label) == trans.element(label)
    o32 = o32_matrices()
    for label in ("J1", "J2", "J3", "K1", "K2", "K3"):
        assert fam.element(label) == o32.element(label)


def test_contraction_idempotent():
    fam = contract_o32()
    powers = {l: 2 if l.startswith("P") else 0 for l in fam.labels}
    again = contract_family(fam, powers)
    for label in fam.labels:
        assert again.element(label) == fam.element(label)


def test_numeric_route_converges_quadratically():
    fam = o32_matrices()
    poincare = contract_o32()
    for eps in (1e-1, 1e-2, 1e-3):
        worst = 0.0
        for label, g in fam.items():
            power = CONTRACTION_POWERS[label]
            numeric = numeric_conjugate(g, power, eps)
            exact = poincare.element(CONTRACTION_RELABEL[label]).to_numpy()
            worst = max(worst, float(np.max(np.abs(numeric - exact))))
        assert worst <= eps ** 2 * (1 + 1e-9)
    # a loose eps confirms the error really is there before the limit
    assert np.max(np.abs(
        numeric_conjugate(fam.element("Q1"), 2, 0.5)
        - poincare.element("P1").to_numpy())) > 1e-3


def test_contracted_family_closes_on_target_table():
    rep = structure_constants(contract_o32())
    assert rep.closed and not rep.dependent
    want = StructureConstants.from_brackets(POINCARE_LABELS,
                                            poincare_bracket_targets())
    assert compare(rep.constants, want).match
    assert jacobi_check(rep.constants)


def test_contracted_translations_commute():
    rep = structure_constants(contract_o32())
    c = rep.constants
    ps = ("P1", "P2", "P3", "P0")
    for i, a in enumerate(ps):
        for b in ps[i + 1:]:
            assert c.bracket_coeffs(a, b) == {}


def test_contracted_boost_translation_sector():
    c = structure_constants(contract_o32()).constants
    assert c.bracket_coeffs("K1", "P1") == {"P0": -I}
    assert c.bracket_coeffs("K2", "P2") == {"P0": -I}
    assert c.bracket_coeffs("K1", "P2") == {}
    assert c.bracket_coeffs("K1", "P0") == {"P1": -I}
    assert c.bracket_coeffs("J1", "P0") == {}
    assert c.bracket_coeffs("J1", "P2") == {"P3": I}


def test_rotation_sector_survives_contraction():
    before = structure_constants(o32_matrices()).constants
    after = structure_constants(contract_o32()).constants
    for a, b in (("J1", "J2"), ("J1", "K2"), ("K1", "K2")):
        assert after.bracket_coeffs(a, b) == before.bracket_coeffs(a, b)


# ---------------------------------------------------------------------------
# reference: the Laurent-polynomial implementation the exponent bookkeeping
# replaced, kept verbatim under Ref names as an oracle
# ---------------------------------------------------------------------------


class RefEpsScalar:
    """Finite Laurent polynomial in eps: {exponent: ExactScalar}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, ExactScalar] | None = None):
        clean = {}
        if coeffs:
            for k, v in coeffs.items():
                v = ExactScalar.coerce(v)
                if not v.is_zero():
                    clean[int(k)] = v
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("EpsScalar is immutable")

    @staticmethod
    def of(value, exponent: int = 0) -> "RefEpsScalar":
        return RefEpsScalar({exponent: ExactScalar.coerce(value)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """(exponent, coefficient) pairs, exponent ascending."""
        return [(k, self.coeffs[k]) for k in sorted(self.coeffs)]

    def min_exponent(self):
        return min(self.coeffs) if self.coeffs else None

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for k, v in self.terms():
            body = f"({v})" if v.component_count() > 1 else str(v)
            if k == 0:
                bits.append(body)
            else:
                bits.append(f"{body}*eps^{k}")
        return " + ".join(bits)

    def __repr__(self):
        return f"EpsScalar({self})"


class RefEpsMatrix:
    """Square matrix of EpsScalar entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        body = tuple(tuple(x if isinstance(x, RefEpsScalar) else RefEpsScalar.of(x)
                           for x in row) for row in rows)
        if not body or any(len(r) != len(body) for r in body):
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "rows", body)

    def __setattr__(self, name, value):
        raise AttributeError("EpsMatrix is immutable")

    def entries(self):
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                yield i, j, x


def ref_squeeze(m: RefEpsMatrix, sign: int, power: int = 0) -> RefEpsMatrix:
    """Entry (i, j) times eps^(sign * (e_i - e_j) + power).

    sign +1 is C m C^-1, sign -1 is C^-1 m C, for the squeeze C(eps) of the
    module docstring.
    """
    n = len(m.rows)
    e = [-1] * (n - 1) + [1]
    return RefEpsMatrix([[RefEpsScalar({k + sign * (e[i] - e[j]) + power: v
                                        for k, v in x.coeffs.items()})
                          for j, x in enumerate(row)]
                         for i, row in enumerate(m.rows)])


def ref_conjugate(generator: ExactMatrix, scale_power: int = 0) -> RefEpsMatrix:
    """eps^scale_power * C(eps) G C(eps)^-1, exact in eps."""
    if generator.n < 2:
        raise ValueError("squeeze needs at least a 2-dimensional space")
    return ref_squeeze(RefEpsMatrix(generator.rows), 1, scale_power)


def ref_limit(m: RefEpsMatrix) -> ExactMatrix:
    """eps -> 0 limit; raises DivergentLimit if any entry blows up."""
    divergent = []
    rows = []
    for row in m.rows:
        out_row = []
        for x in row:
            for k, v in x.terms():
                if k < 0:
                    divergent.append((len(rows), len(out_row), k, v))
            out_row.append(x.coeffs.get(0, ZERO))
        rows.append(out_row)
    if divergent:
        raise DivergentLimit(divergent)
    return ExactMatrix(rows)


def ref_dominant_part(m: RefEpsMatrix) -> RefEpsMatrix:
    """Keep only the terms at the lowest eps exponent present in the matrix."""
    exps = [x.min_exponent() for _, _, x in m.entries() if not x.is_zero()]
    if not exps:
        return m
    d = min(exps)
    return RefEpsMatrix([[RefEpsScalar({d: x.coeffs[d]}) if d in x.coeffs else RefEpsScalar()
                          for x in row] for row in m.rows])


# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.just(ZERO), st.just(ZERO), st.just(ZERO),
    st.sampled_from([ONE, -I, HALF + SQRT2, I * SQRT2 * ExactScalar.rational(1, 3)]),
    st.builds(ExactScalar, *[st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))] * 4),
)
_matrices = st.integers(2, 5).flatmap(lambda n: st.builds(
    ExactMatrix, st.lists(st.lists(_scalars, min_size=n, max_size=n),
                          min_size=n, max_size=n)))


def _outcome(route, *args):
    """A limit route's matrix, or its divergent entries and message."""
    try:
        return route(*args)
    except DivergentLimit as exc:
        return exc.entries, str(exc)


def _ref_terms(m: RefEpsMatrix) -> list:
    return [(i, j, k, v) for i, j, x in m.entries() for k, v in x.terms()]


@settings(max_examples=300, deadline=None)
@given(_matrices, st.integers(-3, 4))
def test_exponent_bookkeeping_matches_laurent_reference(g, power):
    traj, ref = conjugate(g, power), ref_conjugate(g, power)
    assert list(traj.entries()) == _ref_terms(ref)
    assert [eps_term(v, k) for _, _, k, v in traj.entries()] \
        == [str(x) for _, _, x in ref.entries() if not x.is_zero()]
    assert _outcome(limit, traj) == _outcome(ref_limit, ref)
    assert list(dominant_part(traj).entries()) == _ref_terms(ref_dominant_part(ref))
    assert _outcome(contract_via_inverse_squeeze, g) == _outcome(
        lambda h: ref_limit(ref_squeeze(ref_dominant_part(ref_conjugate(h, 0)), -1)), g)
