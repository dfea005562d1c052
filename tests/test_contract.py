"""Squeeze-parameter contraction of the ten-generator family."""

import numpy as np
import pytest

from ladderlie.catalog import (POINCARE_LABELS, o32_matrices,
                               poincare_bracket_targets, translation_matrices)
from ladderlie.contract import (CONTRACTION_POWERS, CONTRACTION_RELABEL,
                                DivergentLimit, EpsScalar, conjugate,
                                contract_family, contract_o32,
                                contract_via_inverse_squeeze, dominant_part,
                                limit, numeric_conjugate)
from ladderlie.liecore import (StructureConstants, compare, jacobi_check,
                               structure_constants)
from ladderlie.matrices import ExactMatrix
from ladderlie.scalars import ExactScalar, I, ONE, ZERO


def test_eps_scalar_keeps_nonzero_terms_in_exponent_order():
    x = EpsScalar({2: I, -2: ONE, 1: ZERO})
    assert x.terms() == [(-2, ONE), (2, I)]
    assert x.min_exponent() == -2
    assert str(x) == "1*eps^-2 + i*eps^2"
    assert EpsScalar({3: ExactScalar.rational(3)}).terms() == [(3, ExactScalar.rational(3))]
    assert EpsScalar({0: ZERO}).is_zero()
    assert EpsScalar().min_exponent() is None


def _at(traj, eps: float) -> np.ndarray:
    """Evaluate an exact eps trajectory at one float eps."""
    out = np.zeros((len(traj.rows),) * 2, dtype=complex)
    for i, j, x in traj.entries():
        out[i, j] = sum(v.to_complex() * eps ** k for k, v in x.terms())
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
    assert [(i, j, x.terms()) for i, j, x in traj.entries() if not x.is_zero()] \
        == [(k, k, [(0, ONE)]) for k in range(5)]
    assert limit(traj) == ExactMatrix.identity(5)


def test_conjugated_q1_trajectory():
    fam = o32_matrices()
    traj = conjugate(fam.element("Q1"), 2)
    nz = {(i, j): x for i, j, x in traj.entries() if not x.is_zero()}
    assert set(nz) == {(0, 4), (4, 0)}
    assert nz[(0, 4)].terms() == [(0, I)]
    assert nz[(4, 0)].terms() == [(4, I)]


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
    nz = {(i, j): x for i, j, x in dom.entries() if not x.is_zero()}
    assert set(nz) == {(0, 4)}
    assert nz[(0, 4)].terms() == [(-2, I)]


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
    again = contract_family(fam, powers, name="poincare")
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
