"""Command-line verification driver.

Subcommands: verify (the full check program), table (structure constants of
one family), contract (squeeze trajectory of one generator), wigner (CSV
grid), catalog (families and their matrices), flows (residual tables).

Exit codes: 0 all canonical checks pass, 1 a canonical check failed,
2 usage errors.  Reports are deterministic byte-for-byte for a fixed
configuration; WARN marks findings in the commonly tabulated variants,
NOTE marks documented discrepancies, and neither affects the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import catalog, contract, focknum, liecore, phspace
from .catalog import AS_PRINTED, CANONICAL
from .liecore import StructureConstants, compare, jacobi_check, structure_constants
from .matrices import ExactMatrix
from .opalg import (OperatorExpr, commutator, creation_op, annihilation_op,
                    momentum, normal_order, parse_expr, position)
from .scalars import ExactScalar, I

PASS, WARN, NOTE, FAIL = "PASS", "WARN", "NOTE", "FAIL"

SCHEMA_VERSION = 1

FAMILY_NAMES = tuple(catalog.FAMILY_VARIANTS) + ("poincare",)


# Input ceilings, checked before any work starts.  The Fock suite builds
# dense (cutoff^2 x cutoff^2) complex matrices: 16 MB each at cutoff 32,
# 268 MB at 64.  A wigner grid of n x n points is written as n^2 CSV lines.
MAX_FOCK_CUTOFF = 32
MAX_WIGNER_N = 1001


@dataclass(frozen=True)
class VerifyConfig:
    fock_cutoff: int = 16
    guard: int = 4
    tolerance: float = 1e-10
    variant_policy: str = "both"    # canonical | as-printed | both

    def __post_init__(self):
        if self.fock_cutoff > MAX_FOCK_CUTOFF:
            raise ValueError(f"fock cutoff {self.fock_cutoff} exceeds the ceiling of "
                             f"{MAX_FOCK_CUTOFF}")
        if self.fock_cutoff < self.guard + 2:
            raise ValueError("fock cutoff must be at least guard + 2")
        if self.guard < 0:
            raise ValueError("guard must be non-negative")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.variant_policy not in (CANONICAL, AS_PRINTED, "both"):
            raise ValueError("variant policy must be canonical, as-printed or both")

    @property
    def run_canonical(self) -> bool:
        return self.variant_policy in (CANONICAL, "both")

    @property
    def run_printed(self) -> bool:
        return self.variant_policy in (AS_PRINTED, "both")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    status: str
    detail: str = ""


def _fmt(x: float) -> str:
    return f"{x:.3e}"


def _canonical_status(ok: bool) -> str:
    return PASS if ok else FAIL


def _variant_status(ok: bool) -> str:
    return PASS if ok else WARN


# ---------------------------------------------------------------------------
# suite 1: canonical commutation relations and normal ordering
# ---------------------------------------------------------------------------


def run_ccr_suite(config: VerifyConfig) -> list:
    checks = []
    i_const = OperatorExpr.constant(I, 2)

    ok = all(commutator(position(i, 2), momentum(j, 2))
             == (i_const if i == j else OperatorExpr.zero(2))
             for i in (1, 2) for j in (1, 2))
    checks.append(CheckResult("ccr", "[x_i, p_j] = i delta_ij",
                              _canonical_status(ok), "exact, two modes"))

    one = OperatorExpr.constant(1, 2)
    ok = all(commutator(annihilation_op(i, 2), creation_op(j, 2))
             == (one if i == j else OperatorExpr.zero(2))
             for i in (1, 2) for j in (1, 2))
    checks.append(CheckResult("ccr", "[a_i, ad_j] = delta_ij",
                              _canonical_status(ok), "exact, two modes"))

    got = parse_expr("(1/2)*(a1*ad1 + ad1*a1)", 1)
    want = parse_expr("ad1*a1 + 1/2", 1)
    checks.append(CheckResult("ccr", "symmetrized quadratic normal form",
                              _canonical_status(got == want),
                              f"(a ad + ad a)/2 -> {got.render()}"))

    got = parse_expr("a1*a1*ad1*ad1", 1)
    want = parse_expr("ad1*ad1*a1*a1 + 4*ad1*a1 + 2", 1)
    checks.append(CheckResult("ccr", "double contraction normal form",
                              _canonical_status(got == want),
                              f"a^2 ad^2 -> {got.render()}"))

    xp = parse_expr("x1*p1 - p1*x1", 1)
    checks.append(CheckResult("ccr", "[x1, p1] from quadrature parse",
                              _canonical_status(xp == OperatorExpr.constant(I, 1)),
                              f"x1*p1 - p1*x1 -> {xp.render()}"))
    return checks


# ---------------------------------------------------------------------------
# suite 2: catalog golden structure
# ---------------------------------------------------------------------------


def _matrix_family_lie_condition(fam) -> float | None:
    """Exact check of G*metric + metric*G^T = 0; None when it holds."""
    metric = fam.metric
    for label, g in fam.items():
        r = g @ metric + metric @ g.transpose()
        if not r.is_zero():
            return label
    return None


def run_catalog_suite(config: VerifyConfig) -> list:
    checks = []

    if config.run_canonical:
        pauli = catalog.sp2_pauli()
        half_i = I * ExactScalar.rational(1, 2)
        ok = (pauli.element("J2")[0, 1] == -half_i
              and pauli.element("J2")[1, 0] == half_i
              and pauli.element("K1")[0, 1] == half_i
              and pauli.element("K3")[0, 0] == half_i)
        checks.append(CheckResult("catalog", "2x2 family entries",
                                  _canonical_status(ok),
                                  "rotation and squeeze generators as expected"))

        mink = catalog.sp2_minkowski4()
        ok = all(all(g[1, k].is_zero() and g[k, 1].is_zero() for k in range(4))
                 for _, g in mink.items())
        checks.append(CheckResult("catalog", "4x4 family leaves y untouched",
                                  _canonical_status(ok),
                                  "second row and column of each generator are null"))

        sp4 = catalog.sp4_matrices()
        bad = _matrix_family_lie_condition(sp4)
        checks.append(CheckResult("catalog", "sp4 generators satisfy G J + J G^T = 0",
                                  _canonical_status(bad is None),
                                  "exact symplectic Lie-algebra condition"
                                  if bad is None else f"violated by {bad}"))

        o32 = catalog.o32_matrices()
        bad = _matrix_family_lie_condition(o32)
        checks.append(CheckResult("catalog", "o32 generators satisfy G eta + eta G^T = 0",
                                  _canonical_status(bad is None),
                                  "exact pseudo-orthogonal condition"
                                  if bad is None else f"violated by {bad}"))

        trans = catalog.translation_matrices()
        ok = all((g @ g).is_zero() for _, g in trans.items())
        checks.append(CheckResult("catalog", "translation generators are nilpotent",
                                  _canonical_status(ok), "P @ P = 0 exactly"))

        two = catalog.two_mode_oscillator()
        ok = all(expr.adjoint() == expr for _, expr in two.items())
        checks.append(CheckResult("catalog", "two-mode generators self-adjoint",
                                  _canonical_status(ok), "exact under normal ordering"))

        for name, block in (("single-mode", catalog.single_mode_block_matrix()),
                            ("coupled", catalog.coupled_block_matrix())):
            n = len(block)
            ok = all(block[i][j].adjoint() == block[j][i]
                     for i in range(n) for j in range(n))
            checks.append(CheckResult("catalog", f"{name} block matrix self-adjoint",
                                      _canonical_status(ok),
                                      f"{n}x{n} operator-valued matrix"))

    if config.run_printed:
        sp4p = catalog.sp4_matrices(AS_PRINTED)
        dup = sp4p.element("Q3") == sp4p.element("S0")
        checks.append(CheckResult("catalog", "sp4 as-printed Q3 slot",
                                  WARN if dup else PASS,
                                  "Q3 repeats the S0 matrix; family is linearly dependent"
                                  if dup else "entries independent"))
        minkp = catalog.sp2_minkowski4(AS_PRINTED)
        j2 = minkp.element("J2")
        symmetric = j2 == j2.transpose()
        checks.append(CheckResult("catalog", "4x4 as-printed J2 symmetry",
                                  WARN if symmetric else PASS,
                                  "J2 as tabulated is symmetric, breaking the rotation "
                                  "Lie condition" if symmetric else "J2 antisymmetric"))
    return checks


# ---------------------------------------------------------------------------
# suite 3: closure, Jacobi and cross-representation comparison
# ---------------------------------------------------------------------------


def _first_bracket_mismatch(got: StructureConstants, want: StructureConstants) -> str:
    for i, a in enumerate(got.labels):
        for b in got.labels[i + 1:]:
            ga = got.bracket_coeffs(a, b)
            wa = want.bracket_coeffs(a, b)
            if ga != wa:
                return (f"[{a}, {b}] = {liecore.render_combination(ga, got.labels)}"
                        f" (target {liecore.render_combination(wa, want.labels)})")
    return ""


def _closure_check(fam, targets: dict, canonical: bool, suite: str):
    """Closure and Jacobi checks of one family; returns (checks, ClosureReport)."""
    status_of = _canonical_status if canonical else _variant_status
    checks = []
    rep = structure_constants(fam)
    tag = f"{fam.name}[{fam.variant}]"
    if rep.dependent:
        checks.append(CheckResult(
            suite, f"{tag} closure", status_of(False),
            f"linearly dependent: {', '.join(rep.dependent)} spanned by earlier "
            "generators; structure constants are not well-defined"))
        return checks, rep
    if not rep.closed:
        (a, b), _ = rep.failures[0]
        checks.append(CheckResult(
            suite, f"{tag} closure", status_of(False),
            f"[{a}, {b}] leaves the span of the family"))
        return checks, rep
    want = StructureConstants.from_brackets(fam.labels, targets)
    cmp = compare(rep.constants, want)
    npairs = len(list(fam.pairs()))
    if cmp.match:
        detail = (f"{len(fam.labels)}/{len(fam.labels)} generators closed, "
                  f"{npairs} brackets verified against the target table")
        checks.append(CheckResult(suite, f"{tag} closure", PASS, detail))
    else:
        checks.append(CheckResult(
            suite, f"{tag} closure", status_of(False),
            "closes with a different table: "
            + _first_bracket_mismatch(rep.constants, want)))
    if rep.constants is not None:
        ok = jacobi_check(rep.constants)
        checks.append(CheckResult(suite, f"{tag} Jacobi identity",
                                  status_of(ok), "exact f-tensor contraction"))
    return checks, rep


def _tables_match(reports) -> bool:
    """All closed, with identical structure constants."""
    tables = [rep.constants for rep in reports]
    return (all(t is not None for t in tables)
            and all(compare(tables[0], t).match for t in tables[1:]))


def run_closure_suite(config: VerifyConfig) -> list:
    checks = []
    sp2_targets = catalog.sp2_bracket_targets()
    ten_targets = catalog.de_sitter_bracket_targets()

    if config.run_canonical:
        mink_family = catalog.sp2_minkowski4()
        single = []
        for fam in (catalog.sp2_oscillator(), catalog.sp2_pauli(), mink_family):
            found, rep = _closure_check(fam, sp2_targets, True, "closure")
            checks += found
            single.append(rep)
        checks.append(CheckResult(
            "closure", "single-mode cross-representation match",
            _canonical_status(_tables_match(single)),
            "identical structure constants for the operator, 2x2 and 4x4 forms"))

        pauli = single[1].constants
        mink3 = structure_constants(mink_family.restrict((0, 2, 3)))
        ok = mink3.closed and compare(mink3.constants, pauli).match
        checks.append(CheckResult(
            "closure", "4x4 family restricted to (x, z, t)",
            _canonical_status(ok), "restriction drops the idle row, same table"))

        ten = []
        for fam in (catalog.two_mode_oscillator(), catalog.sp4_matrices(),
                    catalog.o32_matrices()):
            found, rep = _closure_check(fam, ten_targets, True, "closure")
            checks += found
            ten.append(rep)
        checks.append(CheckResult(
            "closure", "ten-generator cross-representation match",
            _canonical_status(_tables_match(ten)),
            "operator, 4x4 symplectic and 5x5 pseudo-orthogonal tables identical"))

    if config.run_printed:
        printed = [(catalog.sp2_oscillator(v), sp2_targets) for v in ("text", "table")]
        printed += [(catalog.sp2_minkowski4(AS_PRINTED), sp2_targets),
                    (catalog.two_mode_oscillator(AS_PRINTED), ten_targets),
                    (catalog.sp4_matrices(AS_PRINTED), ten_targets)]
        for fam, targets in printed:
            checks += _closure_check(fam, targets, False, "closure")[0]
    return checks


# ---------------------------------------------------------------------------
# suite 4: contraction pipeline
# ---------------------------------------------------------------------------


def run_contraction_suite(config: VerifyConfig) -> list:
    checks = []
    o32 = catalog.o32_matrices()
    trans = catalog.translation_matrices()

    poincare = contract.contract_o32()
    ok = all(poincare.element(contract.CONTRACTION_RELABEL[q]) == trans.element(
        contract.CONTRACTION_RELABEL[q]) for q in ("Q1", "Q2", "Q3", "S0"))
    checks.append(CheckResult("contraction", "squeezed limits land on translations",
                              _canonical_status(ok),
                              "eps^2-scaled limits equal the translation matrices exactly"))

    ok = all(poincare.element(l) == o32.element(l)
             for l in ("J1", "J2", "J3", "K1", "K2", "K3"))
    checks.append(CheckResult("contraction", "rotations and boosts are fixed points",
                              _canonical_status(ok), "unscaled conjugation is exact"))

    try:
        contract.limit(contract.conjugate(o32.element("Q1"), 0))
        diverged = False
    except contract.DivergentLimit:
        diverged = True
    checks.append(CheckResult("contraction", "unscaled Q1 limit diverges",
                              _canonical_status(diverged),
                              "eps^-2 entry survives without the eps^2 scale"))

    unique = True
    for power in (0, 1, 3, 4):
        try:
            m = contract.limit(contract.conjugate(o32.element("Q1"), power))
            if power < 2:
                unique = False      # should have diverged
            elif not m.is_zero():
                unique = False      # should have vanished
        except contract.DivergentLimit:
            if power >= 2:
                unique = False
    checks.append(CheckResult("contraction", "scale power 2 is the unique choice",
                              _canonical_status(unique),
                              "powers < 2 diverge, powers > 2 vanish"))

    ok = all(contract.contract_via_inverse_squeeze(g)
             == poincare.element(contract.CONTRACTION_RELABEL[l])
             for l, g in o32.items())
    checks.append(CheckResult("contraction", "inverse-squeeze route agrees",
                              _canonical_status(ok),
                              "dominant part conjugated back equals the direct limit"))

    powers = {l: 2 if l.startswith("P") else 0 for l in poincare.labels}
    again = contract.contract_family(poincare, powers, name="poincare")
    ok = all(again.element(l) == poincare.element(l) for l in poincare.labels)
    checks.append(CheckResult("contraction", "contraction is idempotent",
                              _canonical_status(ok),
                              "re-contracting the output changes nothing"))

    worst = 0.0
    for eps in (1e-1, 1e-2, 1e-3):
        for label, g in o32.items():
            power = contract.CONTRACTION_POWERS[label]
            numeric = contract.numeric_conjugate(g, power, eps)
            exact = poincare.element(contract.CONTRACTION_RELABEL[label]).to_numpy()
            worst = max(worst, float(np.max(np.abs(numeric - exact))) / eps ** 2)
    ok = worst <= 1.0 + 1e-9        # O(eps^2) with unit constant for this family
    checks.append(CheckResult("contraction", "numeric path converges as O(eps^2)",
                              _canonical_status(ok),
                              f"max |numeric - exact| / eps^2 = {_fmt(worst)} "
                              "over eps in {1e-1, 1e-2, 1e-3}"))

    rep = structure_constants(poincare)
    want = StructureConstants.from_brackets(catalog.POINCARE_LABELS,
                                            catalog.poincare_bracket_targets())
    ok = rep.closed and compare(rep.constants, want).match
    checks.append(CheckResult("contraction", "contracted family closure",
                              _canonical_status(ok),
                              "10/10 generators closed; translations commute; "
                              "boost/translation sector verified"))
    if rep.closed:
        ok = jacobi_check(rep.constants)
        checks.append(CheckResult("contraction", "contracted family Jacobi identity",
                                  _canonical_status(ok), "exact f-tensor contraction"))
        zero_pp = all(not rep.constants.bracket_coeffs(f"P{i}", f"P{j}")
                      for i in (1, 2, 3) for j in (1, 2, 3) if i < j) \
            and all(not rep.constants.bracket_coeffs(f"P{i}", "P0") for i in (1, 2, 3))
        checks.append(CheckResult("contraction", "[P_mu, P_nu] = 0",
                                  _canonical_status(zero_pp),
                                  "all translation brackets vanish exactly"))
    checks.append(CheckResult("contraction", "boost/translation bracket convention",
                              NOTE, catalog.PRINTED_BOOST_TRANSLATION_NOTE))
    return checks


# ---------------------------------------------------------------------------
# suite 5: truncated number-basis checks
# ---------------------------------------------------------------------------


def run_fock_suite(config: VerifyConfig) -> list:
    checks = []
    fock = focknum.FockRealization(config.fock_cutoff, 2)
    fam = catalog.two_mode_oscillator()
    tol = min(1e-12, config.tolerance)

    herm = 0.0
    for _, expr in fam.items():
        m = focknum.realize(expr, fock)
        herm = max(herm, float(np.max(np.abs(m - m.conj().T))))
    checks.append(CheckResult("fock", "realized generators Hermitian",
                              _canonical_status(herm <= tol),
                              f"max |M - M^dagger| = {_fmt(herm)} on the full "
                              "truncated space"))

    s0 = focknum.realize(fam.element("S0"), fock)
    occ = fock.basis_occupations()
    expected = np.diag([(sum(o) + 1) / 2 for o in occ])
    dev = float(np.max(np.abs(s0 - expected)))
    checks.append(CheckResult("fock", "S0 spectrum is (n1 + n2 + 1)/2",
                              _canonical_status(dev <= tol),
                              f"max deviation {_fmt(dev)}"))

    worst = 0.0
    pairs = 0
    for a, b in fam.pairs():
        worst = max(worst, focknum.protected_commutator_check(
            fam.element(a), fam.element(b), fock, config.guard))
        pairs += 1
    checks.append(CheckResult("fock", "protected commutators match symbolic brackets",
                              _canonical_status(worst <= tol),
                              f"{pairs} pairs at cutoff {config.fock_cutoff}, guard "
                              f"{config.guard}; max deviation {_fmt(worst)}"))

    one_mode = focknum.FockRealization(config.fock_cutoff, 1)
    a = focknum.realize(annihilation_op(1, 1), one_mode)
    ad = focknum.realize(creation_op(1, 1), one_mode)
    comm = a @ ad - ad @ a
    edge = abs(comm[-1, -1] - (1 - config.fock_cutoff))
    interior = float(np.max(np.abs(comm[:-1, :-1] - np.eye(config.fock_cutoff - 1))))
    ok = edge <= tol and interior <= tol
    checks.append(CheckResult("fock", "truncation artifact localized at the edge",
                              _canonical_status(ok),
                              "matrix CCR equals 1 except the last level, where it is "
                              f"1 - cutoff = {1 - config.fock_cutoff}"))
    return checks


# ---------------------------------------------------------------------------
# suite 6: phase-space invariance
# ---------------------------------------------------------------------------


def run_phspace_suite(config: VerifyConfig) -> list:
    checks = []
    tol = config.tolerance
    tight = min(1e-12, config.tolerance)

    ground = phspace.ground_state()
    dev = max(abs(phspace.wigner_eval(ground, 0.0, 0.0) - 1.0 / np.pi),
              abs(phspace.wigner_eval(ground, 1.0, 0.0) - np.exp(-1.0) / np.pi))
    checks.append(CheckResult("phspace", "vacuum Wigner density values",
                              _canonical_status(dev <= 1e-15),
                              f"W(0,0) = 1/pi, W(1,0) = e^-1/pi; deviation {_fmt(dev)}"))

    xs = np.linspace(-8.0, 8.0, 801)
    grid = phspace.wigner_grid(ground, xs, xs)
    integral = float(np.trapezoid(np.trapezoid(grid, xs, axis=1), xs))
    checks.append(CheckResult("phspace", "Wigner density integrates to 1",
                              _canonical_status(abs(integral - 1.0) <= 1e-6),
                              f"trapezoid quadrature error {_fmt(abs(integral - 1.0))}"))

    rotated = phspace.apply_sp2(ground, phspace.rotation(0.7))
    dev = float(np.max(np.abs(rotated.cov - ground.cov)))
    checks.append(CheckResult("phspace", "vacuum invariant under rotation",
                              _canonical_status(dev <= tight),
                              f"covariance deviation {_fmt(dev)}"))

    eta = 0.8
    squeezed = phspace.apply_sp2(ground, phspace.squeeze(eta))
    want = 0.5 * np.diag([np.exp(2 * eta), np.exp(-2 * eta)])
    dev = float(np.max(np.abs(squeezed.cov - want)))
    checks.append(CheckResult("phspace", "squeeze reshapes the vacuum ellipse",
                              _canonical_status(dev <= tight),
                              f"covariance deviation {_fmt(dev)}"))

    rng = np.random.default_rng(20190814)
    drift = 0.0
    for _ in range(100):
        t1, t2 = rng.uniform(0.0, 2 * np.pi, size=2)
        e = rng.uniform(-0.5, 0.5)
        m = phspace.rotation(t1) @ phspace.squeeze(e) @ phspace.rotation(t2)
        out = phspace.apply_sp2(ground, m)
        drift = max(drift, abs(out.det_cov - ground.det_cov))
    checks.append(CheckResult("phspace", "det covariance under random unit-det maps",
                              _canonical_status(drift <= tight),
                              f"100 seeded maps; max drift {_fmt(drift)}"))

    ts = (-1.0, -0.5, 0.1, 0.5, 1.0)
    res = phspace.flow_residuals(catalog.sp4_matrices(),
                                 phspace.symplectic_residual, ts)
    worst = max(r for samples in res.values() for _, r in samples)
    checks.append(CheckResult("phspace", "sp4 flows preserve the symplectic form",
                              _canonical_status(worst <= tol),
                              f"10 generators x {len(ts)} samples; "
                              f"max residual {_fmt(worst)}"))

    res = phspace.flow_residuals(catalog.o32_matrices(), phspace.o32_residual, ts)
    worst = max(r for samples in res.values() for _, r in samples)
    checks.append(CheckResult("phspace", "o32 flows preserve the metric",
                              _canonical_status(worst <= tol),
                              f"10 generators x {len(ts)} samples; "
                              f"max residual {_fmt(worst)}"))

    ok = (abs(phspace.symplectic_residual(np.diag([2.0, 1.0, 1.0, 1.0])) - 1.0) == 0.0
          and abs(phspace.o32_residual(2.0 * np.eye(5)) - 3.0) == 0.0)
    checks.append(CheckResult("phspace", "residual detectors reject non-canonical maps",
                              _canonical_status(ok),
                              "diag(2,1,1,1) residual 1; 2*identity residual 3"))

    samples = ((1.5, -2.0, 0.25, 3.0), (0.1, -2.5, 3.25, 1.75), (0.0, 0.0, 0.0, 2.0))
    exact_eq = True
    action_ok = True
    for a, b, c, d in samples:
        closed = phspace.translate(a, b, c, d)
        viaexp = phspace.translate_via_exponential(a, b, c, d)
        exact_eq = exact_eq and np.array_equal(closed, viaexp)
        v = phspace.Affine5Vector(0.3, -1.0, 2.5, 4.0).transformed(closed)
        action_ok = action_ok and (v.x, v.y, v.z, v.t) == (0.3 + a, -1.0 + b,
                                                           2.5 + c, 4.0 - d)
    checks.append(CheckResult("phspace", "translation matrix equals its exponential",
                              _canonical_status(exact_eq),
                              "nilpotent series terminates; equality is exact"))
    checks.append(CheckResult("phspace", "translation action on (x, y, z, t, 1)",
                              _canonical_status(action_ok),
                              "x+a, y+b, z+c, t-d with the fifth component fixed"))

    worst = 0.0
    for mass in (0.5, 1.0, 2.0):
        p = phspace.FourMomentum.at_rest(mass)
        p = phspace.boost_momentum(p, 1, 2.0)
        p = phspace.boost_momentum(p, 2, -1.3)
        p = phspace.rotate_momentum(p, 3, 0.9)
        p = phspace.boost_momentum(p, 3, 0.7)
        worst = max(worst, abs(phspace.mass_shell(p) + mass ** 2))
    checks.append(CheckResult("phspace", "mass shell invariant under boosts",
                              _canonical_status(worst <= tol),
                              f"masses 0.5, 1, 2; max |p^2 - p0^2 + m^2| = {_fmt(worst)}"))
    return checks


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

SUITES = (
    ("ccr", run_ccr_suite),
    ("catalog", run_catalog_suite),
    ("closure", run_closure_suite),
    ("contraction", run_contraction_suite),
    ("fock", run_fock_suite),
    ("phspace", run_phspace_suite),
)


def run_verify(config: VerifyConfig) -> list:
    checks = []
    for _, suite in SUITES:
        checks.extend(suite(config))
    return checks


def exit_code_for(checks) -> int:
    return 1 if any(c.status == FAIL for c in checks) else 0


def render_verify_text(config: VerifyConfig, checks) -> str:
    lines = ["verification report",
             f"config: fock-n={config.fock_cutoff} guard={config.guard} "
             f"tolerance={config.tolerance:g} variant={config.variant_policy}",
             ""]
    for c in checks:
        lines.append(f"[{c.status}] {c.suite}: {c.name}")
        if c.detail:
            lines.append(f"       {c.detail}")
    counts = {s: sum(1 for c in checks if c.status == s)
              for s in (PASS, WARN, NOTE, FAIL)}
    lines.append("")
    lines.append(f"summary: {counts[PASS]} pass, {counts[WARN]} warn, "
                 f"{counts[NOTE]} note, {counts[FAIL]} fail")
    return "\n".join(lines) + "\n"


def render_verify_json(config: VerifyConfig, checks) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "config": {
            "fock_cutoff": config.fock_cutoff,
            "guard": config.guard,
            "tolerance": config.tolerance,
            "variant": config.variant_policy,
        },
        "checks": [{"suite": c.suite, "name": c.name,
                    "status": c.status, "detail": c.detail} for c in checks],
        "summary": {s.lower(): sum(1 for c in checks if c.status == s)
                    for s in (PASS, WARN, NOTE, FAIL)},
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# other subcommands
# ---------------------------------------------------------------------------


def _build_family(name: str, variant: str):
    if name == "poincare":
        if variant != CANONICAL:
            raise ValueError("family 'poincare' has no variant "
                             f"{variant!r}; available: canonical")
        return contract.contract_o32()
    return catalog.family(name, variant)


def cmd_table(name: str, variant: str, fmt: str, out) -> int:
    try:
        fam = _build_family(name, variant)
    except KeyError:
        print(f"error: unknown family {name!r}; known: "
              + ", ".join(FAMILY_NAMES), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = structure_constants(fam)
    if fmt == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "family": fam.name,
            "variant": fam.variant,
            "closed": rep.closed,
            "dependent": list(rep.dependent),
            "failures": [[a, b] for (a, b), _ in rep.failures],
        }
        if rep.constants is not None:
            payload.update(rep.constants.to_json_dict())
            payload["jacobi"] = jacobi_check(rep.constants)
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0
    out.write(f"family {fam.name} ({fam.variant})\n")
    out.write(f"generators: {', '.join(fam.labels)}\n")
    if rep.dependent:
        out.write("linearly dependent: "
                  + ", ".join(rep.dependent)
                  + " spanned by earlier generators; no structure constants\n")
        return 0
    if not rep.closed:
        for (a, b), _ in rep.failures:
            out.write(f"[{a}, {b}] leaves the span (closure fails)\n")
        return 0
    for line in liecore.render_bracket_lines(rep.constants):
        out.write(line + "\n")
    out.write(f"jacobi: {'ok' if jacobi_check(rep.constants) else 'VIOLATED'}\n")
    return 0


def cmd_contract(label: str, power: int | None, fmt: str, out) -> int:
    fam = catalog.o32_matrices()
    if label not in fam.labels:
        print(f"error: unknown generator {label!r}; known: "
              + ", ".join(fam.labels), file=sys.stderr)
        return 2
    if power is None:
        power = contract.CONTRACTION_POWERS[label]
    traj = contract.conjugate(fam.element(label), power)
    entries = [(i, j, x) for i, j, x in traj.entries() if not x.is_zero()]
    try:
        lim = contract.limit(traj)
        divergent = None
    except contract.DivergentLimit as exc:
        lim = None
        divergent = exc.entries
    if fmt == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "generator": label,
            "scale_power": power,
            "trajectory": [{"entry": [i, j],
                            "terms": [[k, str(v)] for k, v in x.terms()]}
                           for i, j, x in entries],
            "limit": None if lim is None else [[str(v) for v in row]
                                               for row in lim.rows],
            "divergent": None if divergent is None else
            [[i, j, k, str(v)] for i, j, k, v in divergent],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0
    out.write(f"contract {label} (scale power {power})\n")
    out.write("trajectory of eps^p * C(eps) G C(eps)^-1:\n")
    for i, j, x in entries:
        out.write(f"  ({i + 1},{j + 1}): {x}\n")
    if lim is None:
        out.write("limit: divergent at "
                  + ", ".join(f"({i + 1},{j + 1})" for i, j, _, _ in divergent) + "\n")
    else:
        out.write("limit:\n")
        out.write(lim.render() + "\n")
    return 0


def cmd_wigner(n: int, extent: float, theta: float, eta: float, out) -> int:
    if n < 2 or extent <= 0:
        print("error: grid needs n >= 2 and a positive extent", file=sys.stderr)
        return 2
    if n > MAX_WIGNER_N:
        print(f"error: grid n {n} exceeds the ceiling of {MAX_WIGNER_N}",
              file=sys.stderr)
        return 2
    state = phspace.ground_state()
    if eta:
        state = phspace.apply_sp2(state, phspace.squeeze(eta))
    if theta:
        state = phspace.apply_sp2(state, phspace.rotation(theta))
    xs = np.linspace(-extent, extent, n)
    grid = phspace.wigner_grid(state, xs, xs)
    out.write("x,p,w\n")
    for i, x in enumerate(xs):
        for j, p in enumerate(xs):
            out.write(f"{x:.12g},{p:.12g},{grid[i, j]:.12g}\n")
    return 0


def cmd_catalog(name: str | None, variant: str, fmt: str, out) -> int:
    if name is None:
        if fmt == "json":
            payload = {"schema": SCHEMA_VERSION,
                       "families": [{"name": n,
                                     "variants": list(catalog.FAMILY_VARIANTS.get(
                                         n, (CANONICAL,)))}
                                    for n in FAMILY_NAMES]}
            out.write(json.dumps(payload, indent=2) + "\n")
            return 0
        for n in FAMILY_NAMES:
            variants = catalog.FAMILY_VARIANTS.get(n, (CANONICAL,))
            out.write(f"{n}: variants {', '.join(variants)}\n")
        return 0
    try:
        fam = _build_family(name, variant)
    except KeyError:
        print(f"error: unknown family {name!r}; known: "
              + ", ".join(FAMILY_NAMES), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if fmt == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "family": fam.name,
            "variant": fam.variant,
            "kind": fam.kind,
            "provenance": fam.provenance,
            "generators": {},
        }
        for label, el in fam.items():
            if fam.kind == "matrix":
                payload["generators"][label] = [[str(v) for v in row]
                                                for row in el.rows]
            else:
                payload["generators"][label] = el.render()
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0
    out.write(f"family {fam.name} ({fam.variant})\n")
    out.write(f"{fam.provenance}\n")
    for label, el in fam.items():
        out.write(f"\n{label}:\n")
        if fam.kind == "matrix":
            out.write(el.render() + "\n")
        else:
            out.write(el.render() + "\n")
    return 0


def cmd_flows(out) -> int:
    ts = (-1.0, -0.5, 0.1, 0.5, 1.0)
    sp4 = phspace.flow_residuals(catalog.sp4_matrices(),
                                 phspace.symplectic_residual, ts)
    o32 = phspace.flow_residuals(catalog.o32_matrices(), phspace.o32_residual, ts)
    payload = {
        "schema": SCHEMA_VERSION,
        "convention": "exp(t * (-i * G))",
        "samples": list(ts),
        "sp4": {label: [r for _, r in rows] for label, rows in sp4.items()},
        "o32": {label: [r for _, r in rows] for label, rows in o32.items()},
    }
    out.write(json.dumps(payload, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladderlie",
        description="verify the Lie structure of bosonic ladder-operator families")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full verification program")
    p.add_argument("--fock-n", type=int, default=16,
                   help="number-basis cutoff per mode (default 16, at most "
                   f"{MAX_FOCK_CUTOFF})")
    p.add_argument("--guard", type=int, default=4,
                   help="protected-subspace guard band (default 4)")
    p.add_argument("--tolerance", type=float, default=1e-10,
                   help="tolerance for floating suites (default 1e-10)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--variant", choices=(CANONICAL, AS_PRINTED, "both"),
                   default="both")

    p = sub.add_parser("table", help="structure constants of one family")
    p.add_argument("family")
    p.add_argument("--variant", default=CANONICAL)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("contract", help="squeeze trajectory of one generator")
    p.add_argument("generator")
    p.add_argument("--power", type=int, default=None,
                   help="eps scale power (default: the canonical power)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("wigner", help="CSV grid of a Gaussian Wigner density")
    p.add_argument("--n", type=int, default=41,
                   help=f"points per axis (default 41, at most {MAX_WIGNER_N})")
    p.add_argument("--extent", type=float, default=3.0,
                   help="half-width of the square grid")
    p.add_argument("--theta", type=float, default=0.0, help="rotation angle")
    p.add_argument("--eta", type=float, default=0.0, help="squeeze parameter")

    p = sub.add_parser("catalog", help="list families or render one")
    p.add_argument("family", nargs="?", default=None)
    p.add_argument("--variant", default=CANONICAL)
    p.add_argument("--format", choices=("text", "json"), default="text")

    sub.add_parser("flows", help="flow residual tables as JSON")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)

    out = sys.stdout
    if args.command == "verify":
        try:
            config = VerifyConfig(args.fock_n, args.guard, args.tolerance,
                                  args.variant)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        checks = run_verify(config)
        if args.format == "json":
            out.write(render_verify_json(config, checks))
        else:
            out.write(render_verify_text(config, checks))
        return exit_code_for(checks)
    if args.command == "table":
        return cmd_table(args.family, args.variant, args.format, out)
    if args.command == "contract":
        return cmd_contract(args.generator, args.power, args.format, out)
    if args.command == "wigner":
        return cmd_wigner(args.n, args.extent, args.theta, args.eta, out)
    if args.command == "catalog":
        return cmd_catalog(args.family, args.variant, args.format, out)
    if args.command == "flows":
        return cmd_flows(out)
    return 2


if __name__ == "__main__":
    sys.exit(main())
