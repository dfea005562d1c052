"""Acceptance gate: one check per shipped guarantee, one line each.

Run with `pytest -v tests/test_acceptance.py` to see a pass/fail line per
criterion, or with `-s` for the printed summary lines.
"""

import time

import numpy as np
import pytest

from ladderlie import catalog, cli, contract, focknum, phspace
from ladderlie.liecore import (NotInSpan, StructureConstants, compare, expand_in_basis,
                               factorize, jacobi_check, structure_constants)
from ladderlie.opalg import (OperatorExpr, annihilation_op, commutator,
                             creation_op, momentum, parse_expr, position)
from ladderlie.scalars import I, ONE, ZERO

_VERIFY_CACHE = {}


def _verify_checks():
    if "checks" not in _VERIFY_CACHE:
        config = cli.VerifyConfig()
        _VERIFY_CACHE["config"] = config
        _VERIFY_CACHE["checks"] = cli.run_verify(config)
    return _VERIFY_CACHE["checks"]


def _report(num, text, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {text}")
    assert passed, f"criterion {num}: {text}"


def test_criterion_01_ccr_foundation():
    t0 = time.perf_counter()
    ok = commutator(position(1, 1), momentum(1, 1)) == OperatorExpr.constant(I, 1)
    for i in (1, 2):
        for j in (1, 2):
            want = (OperatorExpr.constant(1, 2) if i == j
                    else OperatorExpr.zero(2))
            ok = ok and commutator(annihilation_op(i, 2),
                                   creation_op(j, 2)) == want
    elapsed = time.perf_counter() - t0
    _report(1, "commutation foundation exact and fast",
            ok and elapsed < 1.0)


def test_criterion_02_sp2_closure_three_representations():
    want = StructureConstants.from_brackets(
        catalog.SP2_LABELS, catalog.sp2_bracket_targets())
    ok = True
    reps = {}
    for fam in (catalog.sp2_oscillator(), catalog.sp2_pauli(),
                catalog.sp2_minkowski4()):
        rep = structure_constants(fam)
        ok = ok and rep.closed and compare(rep.constants, want).match
        reps[fam.name] = rep.constants
    ok = ok and compare(reps["sp2-oscillator"], reps["sp2-pauli"]).match
    ok = ok and compare(reps["sp2-oscillator"], reps["sp2-minkowski4"]).match
    # the as-printed variants that fail must surface as WARN, not FAIL
    closure = [c for c in _verify_checks() if c.suite == "closure"]
    warned = {c.name for c in closure if c.status == "WARN"}
    for tag in ("sp2-oscillator[text] closure", "sp2-oscillator[table] closure",
                "sp2-minkowski4[as-printed] closure"):
        ok = ok and tag in warned
    _report(2, "single-mode family closes identically in all three "
               "representations; printed variants warned", ok)


def test_criterion_03_ten_generator_algebra():
    rep = structure_constants(catalog.two_mode_oscillator())
    want = StructureConstants.from_brackets(
        catalog.TEN_LABELS, catalog.de_sitter_bracket_targets())
    ok = rep.closed and compare(rep.constants, want).match
    c = rep.constants
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            target = {"S0": -I} if i == j else {}
            ok = ok and c.bracket_coeffs(f"K{i}", f"Q{j}") == target
        ok = ok and c.bracket_coeffs(f"J{i}", "S0") == {}
    ok = ok and jacobi_check(c)
    _report(3, "two-mode family reproduces the full ten-generator table "
               "with exact Jacobi", ok)


def test_criterion_04_isomorphic_matrix_algebras():
    two = structure_constants(catalog.two_mode_oscillator()).constants
    sp4 = structure_constants(catalog.sp4_matrices()).constants
    o32 = structure_constants(catalog.o32_matrices()).constants
    ok = compare(two, sp4).match and compare(two, o32).match
    printed = structure_constants(catalog.sp4_matrices(catalog.AS_PRINTED))
    ok = ok and printed.dependent == ("Q3",)
    catalog_checks = [c for c in _verify_checks() if c.suite == "catalog"]
    ok = ok and any(c.status == "WARN" and "Q3" in c.detail
                    for c in catalog_checks)
    _report(4, "4x4 symplectic and 5x5 pseudo-orthogonal families share the "
               "operator structure constants; printed deviation warned", ok)


def test_criterion_05_contraction_limits():
    o32 = catalog.o32_matrices()
    trans = catalog.translation_matrices()
    ok = True
    for src in ("Q1", "Q2", "Q3", "S0"):
        got = contract.limit(contract.conjugate(o32.element(src), 2))
        ok = ok and got == trans.element(contract.CONTRACTION_RELABEL[src])
    for label in ("J1", "J2", "J3", "K1", "K2", "K3"):
        got = contract.limit(contract.conjugate(o32.element(label), 0))
        ok = ok and got == o32.element(label)
    eps = 1e-3
    for label, g in o32.items():
        numeric = contract.numeric_conjugate(
            g, contract.CONTRACTION_POWERS[label], eps)
        exact = contract.contract_o32().element(
            contract.CONTRACTION_RELABEL[label]).to_numpy()
        ok = ok and float(np.max(np.abs(numeric - exact))) <= 1e-5
    _report(5, "scaled conjugation limits land exactly on the translation "
               "matrices; numeric path within 1e-5 at eps = 1e-3", ok)


def test_criterion_06_contracted_family_output():
    rep = structure_constants(contract.contract_o32())
    want = StructureConstants.from_brackets(
        catalog.POINCARE_LABELS, catalog.poincare_bracket_targets())
    ok = rep.closed and compare(rep.constants, want).match
    ps = ("P1", "P2", "P3", "P0")
    for i, a in enumerate(ps):
        for b in ps[i + 1:]:
            ok = ok and rep.constants.bracket_coeffs(a, b) == {}
    checks = _verify_checks()
    notes = [c for c in checks if c.status == "NOTE"]
    ok = ok and len(notes) == 1 and "P0" in notes[0].detail
    ok = ok and cli.exit_code_for(checks) == 0
    _report(6, "contracted family is the closed translation-extended algebra; "
               "exit 0 with one documented bracket note", ok)


def test_criterion_07_fock_protected_commutators():
    t0 = time.perf_counter()
    fock = focknum.FockRealization(16, 2)
    fam = catalog.two_mode_oscillator()
    pairs = list(fam.pairs())
    worst = max(focknum.protected_commutator_check(
        fam.element(a), fam.element(b), fock, guard=4) for a, b in pairs)
    elapsed = time.perf_counter() - t0
    ok = len(pairs) == 45 and worst <= 1e-12 and elapsed < 10.0
    _report(7, f"45 protected commutators at cutoff 16 within 1e-12 "
               f"(max {worst:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_08_invariance_flows():
    ts = (-1.0, -0.5, 0.1, 0.5, 1.0)
    sp4 = phspace.flow_residuals(catalog.sp4_matrices(),
                                 phspace.symplectic_residual, ts)
    worst_sp4 = max(r for rows in sp4.values() for _, r in rows)
    o32 = phspace.flow_residuals(catalog.o32_matrices(),
                                 phspace.o32_residual, ts)
    worst_o32 = max(r for rows in o32.values() for _, r in rows)
    rng = np.random.default_rng(4)
    ground = phspace.ground_state()
    drift = 0.0
    for _ in range(100):
        t1, t2 = rng.uniform(0.0, 2 * np.pi, size=2)
        eta = rng.uniform(-0.5, 0.5)
        m = phspace.rotation(t1) @ phspace.squeeze(eta) @ phspace.rotation(t2)
        drift = max(drift, abs(phspace.apply_sp2(ground, m).det_cov - 0.25))
    ok = worst_sp4 <= 1e-10 and worst_o32 <= 1e-10 and drift <= 1e-12
    _report(8, f"flow residuals within 1e-10 (sp4 {worst_sp4:.1e}, o32 "
               f"{worst_o32:.1e}); det drift {drift:.1e} over 100 maps", ok)


def test_criterion_09_mass_shell_invariance():
    worst = 0.0
    for mass in (0.5, 1.0, 2.0):
        for axis in (1, 2, 3):
            p = phspace.FourMomentum.at_rest(mass)
            p = phspace.boost_momentum(p, axis, 2.0)
            p = phspace.rotate_momentum(p, axis % 3 + 1, 1.234)
            p = phspace.boost_momentum(p, (axis + 1) % 3 + 1, -2.0)
            p = phspace.rotate_momentum(p, axis, -0.777)
            worst = max(worst, abs(phspace.mass_shell(p) + mass ** 2))
    _report(9, f"mass shell invariant within 1e-10 under rapidity-2 boosts "
               f"on every axis (max {worst:.1e})", worst <= 1e-10)


def test_criterion_10_translation_action():
    ok = True
    for a, b, c, d in ((1.5, -2.0, 0.25, 3.0), (0.1, -2.5, 3.25, 1.75),
                       (-1.0, 0.5, 0.0, 2.0)):
        m = phspace.translate(a, b, c, d)
        # X = m - I lies in the last column only, so X^2 = 0 and exp(X) = I + X
        ok = ok and np.array_equal(m, np.eye(5) + phspace.translation_generator(a, b, c, d))
        v = m @ np.array([0.3, -1.0, 2.5, 4.0, 1.0])
        ok = ok and tuple(v) == (0.3 + a, -1.0 + b, 2.5 + c, 4.0 - d, 1.0)
    _report(10, "translation matrices act as (x+a, y+b, z+c, t-d, 1) and "
                "equal their nilpotent exponentials exactly", ok)


# The ten distinct entries of coupled_block_matrix(), in row-major order of
# first appearance, expanded in Dirac's ten generators (two_mode_oscillator):
# the nonzero entries of the 10 x 10 table; every other entry is 0.
_BLOCK_ENTRIES_IN_DIRAC = (
    ("ad1*a1 + 1/2", {"J3": ONE, "S0": ONE}),
    ("a1^2", {"K1": -ONE, "K2": I, "Q1": I, "Q2": ONE}),
    ("ad1*a2", {"J1": ONE, "J2": I}),
    ("a1*a2", {"K3": ONE, "Q3": -I}),
    ("ad1^2", {"K1": -ONE, "K2": -I, "Q1": -I, "Q2": ONE}),
    ("ad1*ad2", {"K3": ONE, "Q3": I}),
    ("ad2*a1", {"J1": ONE, "J2": -I}),
    ("ad2*a2 + 1/2", {"J3": -ONE, "S0": ONE}),
    ("a2^2", {"K1": ONE, "K2": I, "Q1": -I, "Q2": ONE}),
    ("ad2^2", {"K1": ONE, "K2": -I, "Q1": I, "Q2": ONE}),
)


def _distinct(entries) -> list:
    return list(dict.fromkeys(entries))


def _independent(entries) -> bool:
    labels = tuple(f"E{k}" for k in range(len(entries)))
    fam = catalog.GeneratorFamily("entries", labels, dict(zip(labels, entries)))
    return not factorize(fam).dependent


def test_criterion_11_block_matrix_entries_are_diracs_generators():
    sp2 = factorize(catalog.sp2_oscillator())
    single = _distinct(e for row in catalog.single_mode_block_matrix() for e in row)
    ok = (len(single) == 3 and _independent(single)
          and not any(isinstance(expand_in_basis(e, sp2), NotInSpan) for e in single))

    block = catalog.coupled_block_matrix()
    dirac = factorize(catalog.two_mode_oscillator())
    coupled = _distinct(e for row in block for e in row)
    want = [{label: coeffs.get(label, ZERO) for label in catalog.TEN_LABELS}
            for _, coeffs in _BLOCK_ENTRIES_IN_DIRAC]
    ok = (ok and coupled == [parse_expr(text, 2) for text, _ in _BLOCK_ENTRIES_IN_DIRAC]
          and _independent(coupled)
          and [expand_in_basis(e, dirac) for e in coupled] == want)
    support = {e: set(coeffs) for e, (_, coeffs) in zip(coupled, _BLOCK_ENTRIES_IN_DIRAC)}
    diagonal = _distinct(block[i][j] for i in range(4) for j in range(4) if i // 2 == j // 2)
    off_diagonal = [e for e in coupled if e not in diagonal]
    ok = (ok and len(diagonal) == 6 and len(off_diagonal) == 4
          and set().union(*map(support.get, diagonal)) == {"J3", "S0", "K1", "K2", "Q1", "Q2"}
          and set().union(*map(support.get, off_diagonal)) == {"J1", "J2", "K3", "Q3"})
    _report(11, "the single-mode block's 3 entries span sp(2); the coupled block's 10 "
                "are independent and expand in Dirac's ten, the diagonal blocks' six in "
                "{J3, S0, K1, K2, Q1, Q2} and the off-diagonal four in {J1, J2, K3, Q3}", ok)


def test_criterion_11_block_entry_constants_are_diracs_in_the_new_basis():
    # metamorphic companion: with the entries E_m = sum_a T_ma X_a in Dirac's
    # X_a, [E_m, E_n] = sum_abc T_ma T_nb f_abc X_c, expanded back in the E's
    two_osc = catalog.two_mode_oscillator()
    dirac = structure_constants(two_osc).constants
    in_dirac = factorize(two_osc)
    entries = _distinct(e for row in catalog.coupled_block_matrix() for e in row)
    labels = tuple(f"E{k}" for k in range(1, len(entries) + 1))
    blocks = catalog.GeneratorFamily("block entries", labels, dict(zip(labels, entries)))
    in_blocks = factorize(blocks)
    t = {m: {a: v for a, v in expand_in_basis(e, in_dirac).items() if not v.is_zero()}
         for m, e in zip(labels, entries)}
    got = structure_constants(blocks).constants
    pairs = [(m, n) for k, m in enumerate(labels) for n in labels[k + 1:]]
    ok = len(pairs) == 45
    for m, n in pairs:
        carried = OperatorExpr.zero(2)
        for a, tma in t[m].items():
            for b, tnb in t[n].items():
                for c, f in dirac.bracket_coeffs(a, b).items():
                    carried = carried + two_osc.elements[c] * (tma * tnb * f)
        want = {l: v for l, v in expand_in_basis(carried, in_blocks).items()
                if not v.is_zero()}
        ok = ok and want == got.bracket_coeffs(m, n)
    _report(11, "the structure constants of the coupled block's ten entries equal "
                "Dirac's carried through the change of basis, on all 45 pairs", ok)
