"""The check program behind `ladderlie verify`.

Each suite maps a VerifyConfig to (name, status, detail) rows; `run_verify`
tags them with the suite's SUITES name.  The settings, the statuses and the
renderers live in `ladderlie.report`.
"""

from __future__ import annotations

import numpy as np

from . import catalog, contract, focknum, phspace
from .catalog import AS_PRINTED
from .liecore import (StructureConstants, compare, jacobi_check, render_combination,
                      structure_constants)
from .opalg import (OperatorExpr, commutator, creation_op, annihilation_op, momentum,
                    parse_expr, position)
from .report import FAIL, NOTE, PASS, WARN, CheckResult, VerifyConfig
from .scalars import ExactScalar, I

# Flow parameters t of exp(t * (-i * G)), shared with `ladderlie flows`.
FLOW_SAMPLES = (-1.0, -0.5, 0.1, 0.5, 1.0)

# Each flow family with the residual that detects a map leaving its group and
# what that residual keeps: Dirac's sp(4) = o(3,2) pair.  Shared with
# `ladderlie flows`.
FLOW_CHECKS = (
    (catalog.sp4_matrices, phspace.symplectic_residual, "the symplectic form"),
    (catalog.o32_matrices, phspace.o32_residual, "the metric"),
)

# Rows of the Wigner normalization grid sampled and integrated at a time: a
# 32 x 801 band is 205 KB and stays in cache.  Each row's inner trapezoid sum
# is the one numpy takes on the whole grid, so the integral keeps its bits.
WIGNER_BAND_ROWS = 32


def _status(ok: bool, canonical: bool = True) -> str:
    """PASS, else FAIL for a canonical check and WARN for a variant check."""
    if ok:
        return PASS
    return FAIL if canonical else WARN


# ---------------------------------------------------------------------------
# suite 1: canonical commutation relations and normal ordering
# ---------------------------------------------------------------------------


def run_ccr_suite(config: VerifyConfig) -> list:
    rows = []
    for name, left, right, unit in (
            ("[x_i, p_j] = i delta_ij", position, momentum, OperatorExpr.constant(I, 2)),
            ("[a_i, ad_j] = delta_ij", annihilation_op, creation_op,
             OperatorExpr.constant(1, 2))):
        ok = all(commutator(left(i, 2), right(j, 2))
                 == (unit if i == j else OperatorExpr.zero(2))
                 for i in (1, 2) for j in (1, 2))
        rows.append((name, _status(ok), "exact, two modes"))

    for name, text, want, shown in (
            ("symmetrized quadratic normal form", "(1/2)*(a1*ad1 + ad1*a1)",
             "ad1*a1 + 1/2", "(a ad + ad a)/2"),
            ("double contraction normal form", "a1*a1*ad1*ad1",
             "ad1*ad1*a1*a1 + 4*ad1*a1 + 2", "a^2 ad^2"),
            ("[x1, p1] from quadrature parse", "x1*p1 - p1*x1", "i", "x1*p1 - p1*x1")):
        got = parse_expr(text, 1)
        rows.append((name, _status(got == parse_expr(want, 1)),
                     f"{shown} -> {got.render()}"))
    return rows


# ---------------------------------------------------------------------------
# suite 2: catalog golden structure
# ---------------------------------------------------------------------------


def run_catalog_suite(config: VerifyConfig) -> list:
    rows = []

    if config.run_canonical:
        pauli = catalog.sp2_pauli()
        half_i = I * ExactScalar.rational(1, 2)
        ok = (pauli.element("J2")[0, 1] == -half_i
              and pauli.element("J2")[1, 0] == half_i
              and pauli.element("K1")[0, 1] == half_i
              and pauli.element("K3")[0, 0] == half_i)
        rows.append(("2x2 family entries", _status(ok),
                     "rotation and squeeze generators as expected"))

        mink = catalog.sp2_minkowski4()
        ok = all(all(g[1, k].is_zero() and g[k, 1].is_zero() for k in range(4))
                 for _, g in mink.items())
        rows.append(("4x4 family leaves y untouched", _status(ok),
                     "second row and column of each generator are null"))

        for fam, metric, condition in (
                (catalog.sp4_matrices(), "J", "exact symplectic Lie-algebra condition"),
                (catalog.o32_matrices(), "eta", "exact pseudo-orthogonal condition")):
            bad = next((l for l, g in fam.items()
                        if not (g @ fam.metric + fam.metric @ g.transpose()).is_zero()), None)
            rows.append((f"{fam.name} generators satisfy G {metric} + {metric} G^T = 0",
                         _status(bad is None),
                         condition if bad is None else f"violated by {bad}"))

        trans = catalog.translation_matrices()
        ok = all((g @ g).is_zero() for _, g in trans.items())
        rows.append(("translation generators are nilpotent", _status(ok),
                     "P @ P = 0 exactly"))

        two = catalog.two_mode_oscillator()
        ok = all(expr.adjoint() == expr for _, expr in two.items())
        rows.append(("two-mode generators self-adjoint", _status(ok),
                     "exact under normal ordering"))

        for name, block in (("single-mode", catalog.single_mode_block_matrix()),
                            ("coupled", catalog.coupled_block_matrix())):
            n = len(block)
            ok = all(block[i][j].adjoint() == block[j][i]
                     for i in range(n) for j in range(n))
            rows.append((f"{name} block matrix self-adjoint", _status(ok),
                         f"{n}x{n} operator-valued matrix"))

    if config.run_printed:
        sp4p = catalog.sp4_matrices(AS_PRINTED)
        dup = sp4p.element("Q3") == sp4p.element("S0")
        rows.append(("sp4 as-printed Q3 slot", _status(not dup, canonical=False),
                     "Q3 repeats the S0 matrix; family is linearly dependent"
                     if dup else "entries independent"))
        j2 = catalog.sp2_minkowski4(AS_PRINTED).element("J2")
        symmetric = j2 == j2.transpose()
        rows.append(("4x4 as-printed J2 symmetry", _status(not symmetric, canonical=False),
                     "J2 as tabulated is symmetric, breaking the rotation "
                     "Lie condition" if symmetric else "J2 antisymmetric"))
    return rows


# ---------------------------------------------------------------------------
# suite 3: closure, Jacobi and cross-representation comparison
# ---------------------------------------------------------------------------


def _closure_rows(fam, targets: dict, canonical: bool):
    """Closure and Jacobi rows of one family; returns (rows, ClosureReport)."""
    rep = structure_constants(fam)
    name = f"{fam.name}[{fam.variant}] closure"
    if rep.dependent:
        return [(name, _status(False, canonical),
                 f"linearly dependent: {', '.join(rep.dependent)} spanned by earlier "
                 "generators; structure constants are not well-defined")], rep
    if not rep.closed:
        (a, b), _ = rep.failures[0]
        return [(name, _status(False, canonical),
                 f"[{a}, {b}] leaves the span of the family")], rep
    want = StructureConstants.from_brackets(fam.labels, targets)
    cmp = compare(rep.constants, want)
    if cmp.match:
        n = len(fam.labels)
        detail = (f"{n}/{n} generators closed, "
                  f"{len(list(fam.pairs()))} brackets verified against the target table")
    else:
        # compare scans labels in order, so its first mismatch is the first a < b pair
        a, b = cmp.mismatches[0][:2]
        got = render_combination(rep.constants.bracket_coeffs(a, b), fam.labels)
        target = render_combination(want.bracket_coeffs(a, b), fam.labels)
        detail = f"closes with a different table: [{a}, {b}] = {got} (target {target})"
    return [(name, _status(cmp.match, canonical), detail),
            (f"{fam.name}[{fam.variant}] Jacobi identity",
             _status(jacobi_check(rep.constants), canonical),
             "exact f-tensor contraction")], rep


def run_closure_suite(config: VerifyConfig) -> list:
    rows = []
    sp2_targets = catalog.sp2_bracket_targets()
    ten_targets = catalog.de_sitter_bracket_targets()

    if config.run_canonical:
        mink = catalog.sp2_minkowski4()
        for group, families, targets, detail in (
                ("single-mode", (catalog.sp2_oscillator(), catalog.sp2_pauli(), mink),
                 sp2_targets,
                 "identical structure constants for the operator, 2x2 and 4x4 forms"),
                ("ten-generator", (catalog.two_mode_oscillator(), catalog.sp4_matrices(),
                                   catalog.o32_matrices()),
                 ten_targets,
                 "operator, 4x4 symplectic and 5x5 pseudo-orthogonal tables identical")):
            reports = []
            for fam in families:
                found, rep = _closure_rows(fam, targets, True)
                rows += found
                reports.append(rep)
            tables = [rep.constants for rep in reports]
            ok = (all(t is not None for t in tables)
                  and all(compare(tables[0], t).match for t in tables[1:]))
            rows.append((f"{group} cross-representation match", _status(ok), detail))
            if group == "single-mode":     # the 4x4 family also closes on (x, z, t)
                restricted = structure_constants(mink.restrict((0, 2, 3)))
                ok = (restricted.closed
                      and compare(restricted.constants, reports[1].constants).match)
                rows.append(("4x4 family restricted to (x, z, t)", _status(ok),
                             "restriction drops the idle row, same table"))

    if config.run_printed:
        printed = [(catalog.sp2_oscillator(v), sp2_targets) for v in ("text", "table")]
        printed += [(catalog.sp2_minkowski4(AS_PRINTED), sp2_targets),
                    (catalog.two_mode_oscillator(AS_PRINTED), ten_targets),
                    (catalog.sp4_matrices(AS_PRINTED), ten_targets)]
        for fam, targets in printed:
            rows += _closure_rows(fam, targets, False)[0]
    return rows


# ---------------------------------------------------------------------------
# suite 4: contraction pipeline
# ---------------------------------------------------------------------------


def run_contraction_suite(config: VerifyConfig) -> list:
    rows = []
    o32 = catalog.o32_matrices()
    trans = catalog.translation_matrices()

    relabel, powers = contract.CONTRACTION_RELABEL, contract.CONTRACTION_POWERS
    poincare = contract.contract_o32()
    ok = all(poincare.element(relabel[l]) == trans.element(relabel[l])
             for l, power in powers.items() if power)
    rows.append(("squeezed limits land on translations", _status(ok),
                 "eps^2-scaled limits equal the translation matrices exactly"))

    ok = all(poincare.element(l) == o32.element(l)
             for l, power in powers.items() if not power)
    rows.append(("rotations and boosts are fixed points", _status(ok),
                 "unscaled conjugation is exact"))

    limits = {}                     # scale power -> limit of Q1, None if divergent
    for power in (0, 1, 3, 4):
        try:
            limits[power] = contract.limit(contract.conjugate(o32.element("Q1"), power))
        except contract.DivergentLimit:
            limits[power] = None
    rows.append(("unscaled Q1 limit diverges", _status(limits[0] is None),
                 "eps^-2 entry survives without the eps^2 scale"))
    unique = all((m is None) if power < 2 else (m is not None and m.is_zero())
                 for power, m in limits.items())
    rows.append(("scale power 2 is the unique choice", _status(unique),
                 "powers < 2 diverge, powers > 2 vanish"))

    ok = all(contract.contract_via_inverse_squeeze(g) == poincare.element(relabel[l])
             for l, g in o32.items())
    rows.append(("inverse-squeeze route agrees", _status(ok),
                 "dominant part conjugated back equals the direct limit"))

    again = contract.contract_family(poincare, {relabel[l]: p for l, p in powers.items()})
    ok = all(again.element(l) == poincare.element(l) for l in poincare.labels)
    rows.append(("contraction is idempotent", _status(ok),
                 "re-contracting the output changes nothing"))

    worst = 0.0
    for eps in (1e-1, 1e-2, 1e-3):
        for label, g in o32.items():
            numeric = contract.numeric_conjugate(g, powers[label], eps)
            exact = poincare.element(relabel[label]).to_numpy()
            worst = max(worst, float(np.max(np.abs(numeric - exact))) / eps ** 2)
    ok = worst <= 1.0 + 1e-9        # O(eps^2) with unit constant for this family
    rows.append(("numeric path converges as O(eps^2)", _status(ok),
                 f"max |numeric - exact| / eps^2 = {worst:.3e} "
                 "over eps in {1e-1, 1e-2, 1e-3}"))

    rep = structure_constants(poincare)
    want = StructureConstants.from_brackets(catalog.POINCARE_LABELS,
                                            catalog.poincare_bracket_targets())
    ok = rep.closed and compare(rep.constants, want).match
    rows.append(("contracted family closure", _status(ok),
                 "10/10 generators closed; translations commute; "
                 "boost/translation sector verified"))
    if rep.closed:
        rows.append(("contracted family Jacobi identity",
                     _status(jacobi_check(rep.constants)), "exact f-tensor contraction"))
        zero_pp = all(not rep.constants.bracket_coeffs(a, b) for a, b in trans.pairs())
        rows.append(("[P_mu, P_nu] = 0", _status(zero_pp),
                     "all translation brackets vanish exactly"))
    rows.append(("boost/translation bracket convention", NOTE,
                 catalog.PRINTED_BOOST_TRANSLATION_NOTE))
    return rows


# ---------------------------------------------------------------------------
# suite 5: truncated number-basis checks
# ---------------------------------------------------------------------------


def run_fock_suite(config: VerifyConfig) -> list:
    rows = []
    fock = focknum.FockRealization(config.fock_cutoff, 2)
    fam = catalog.two_mode_oscillator()
    tol = min(1e-12, config.tolerance)

    generators = dict(fam.items())
    built = {}
    for label, expr in generators.items():
        ent = focknum.entries(expr, fock)
        built[label] = ent, focknum.hermitian_deviation(ent, fock)
    herm = max(dev for _, dev in built.values())
    rows.append(("realized generators Hermitian", _status(herm <= tol),
                 f"max |M - M^dagger| = {herm:.3e} on the full truncated space"))

    dev = focknum.diagonal_deviation(built["S0"][0], fock,
                                     (fock.occupations.sum(axis=1) + 1) / 2)
    rows.append(("S0 spectrum is (n1 + n2 + 1)/2", _status(dev <= tol),
                 f"max deviation {dev:.3e}"))

    worst, witness = focknum.worst_protected_commutator(generators, fock, config.guard,
                                                        built)
    detail = (f"{len(list(fam.pairs()))} pairs at cutoff {config.fock_cutoff}, guard "
              f"{config.guard}; max deviation {worst:.3e}")
    ok = worst <= tol
    if not ok:
        (a, b), row, col = witness
        ket = [", ".join(map(str, fock.occupations[k])) for k in (row, col)]
        detail += f" at [{a}, {b}], row |{ket[0]}>, column |{ket[1]}>"
    rows.append(("protected commutators match symbolic brackets", _status(ok), detail))

    one_mode = focknum.FockRealization(config.fock_cutoff, 1)
    a = focknum.realize(annihilation_op(1, 1), one_mode)
    ad = focknum.realize(creation_op(1, 1), one_mode)
    comm = a @ ad - ad @ a
    edge = abs(comm[-1, -1] - (1 - config.fock_cutoff))
    interior = float(np.max(np.abs(comm[:-1, :-1] - np.eye(config.fock_cutoff - 1))))
    rows.append(("truncation artifact localized at the edge",
                 _status(edge <= tol and interior <= tol),
                 "matrix CCR equals 1 except the last level, where it is "
                 f"1 - cutoff = {1 - config.fock_cutoff}"))
    return rows


# ---------------------------------------------------------------------------
# suite 6: phase-space invariance
# ---------------------------------------------------------------------------


def _wigner_row_integrals(state: phspace.GaussianState, xs: np.ndarray) -> np.ndarray:
    """Trapezoid integrals over p of W on the square grid xs x xs, one per x,
    sampled and integrated WIGNER_BAND_ROWS rows at a time."""
    return np.concatenate([
        np.trapezoid(phspace.wigner_grid(state, xs[k:k + WIGNER_BAND_ROWS], xs), xs, axis=1)
        for k in range(0, len(xs), WIGNER_BAND_ROWS)])


def _seeded_maps() -> np.ndarray:
    """The stack of 100 seeded unit-det maps rotation(t1) @ squeeze(e) @
    rotation(t2), with t1 and t2 uniform in [0, 2 pi) and e in [-0.5, 0.5).
    Each map draws t1, t2 and then e, the order of one draw at a time."""
    rng = np.random.default_rng(20190814)
    t1, t2, e = rng.uniform((0.0, 0.0, -0.5), (2 * np.pi, 2 * np.pi, 0.5), size=(100, 3)).T
    return phspace.rotation(t1) @ phspace.squeeze(e) @ phspace.rotation(t2)


def run_phspace_suite(config: VerifyConfig) -> list:
    rows = []
    tol = config.tolerance
    tight = min(1e-12, config.tolerance)

    ground = phspace.ground_state()
    dev = max(abs(phspace.wigner_eval(ground, 0.0, 0.0) - 1.0 / np.pi),
              abs(phspace.wigner_eval(ground, 1.0, 0.0) - np.exp(-1.0) / np.pi))
    rows.append(("vacuum Wigner density values", _status(dev <= 1e-15),
                 f"W(0,0) = 1/pi, W(1,0) = e^-1/pi; deviation {dev:.3e}"))

    xs = np.linspace(-8.0, 8.0, 801)
    integral = float(np.trapezoid(_wigner_row_integrals(ground, xs), xs))
    rows.append(("Wigner density integrates to 1",
                 _status(abs(integral - 1.0) <= 1e-6),
                 f"trapezoid quadrature error {abs(integral - 1.0):.3e}"))

    eta = 0.8
    for name, m, want in (
            ("vacuum invariant under rotation", phspace.rotation(0.7), ground.cov),
            ("squeeze reshapes the vacuum ellipse", phspace.squeeze(eta),
             0.5 * np.diag([np.exp(2 * eta), np.exp(-2 * eta)]))):
        dev = float(np.max(np.abs(phspace.apply_sp2(ground, m).cov - want)))
        rows.append((name, _status(dev <= tight), f"covariance deviation {dev:.3e}"))

    out = phspace.apply_sp2(ground, _seeded_maps())
    drift = float(np.max(np.abs(out.det_cov - ground.det_cov)))
    rows.append(("det covariance under random unit-det maps", _status(drift <= tight),
                 f"100 seeded maps; max drift {drift:.3e}"))

    for build, residual, preserved in FLOW_CHECKS:
        fam = build()
        res = phspace.flow_residuals(fam, residual, FLOW_SAMPLES)
        worst = max(r for samples in res.values() for _, r in samples)
        rows.append((f"{fam.name} flows preserve {preserved}", _status(worst <= tol),
                     f"{len(fam.labels)} generators x {len(FLOW_SAMPLES)} samples; "
                     f"max residual {worst:.3e}"))

    ok = (abs(phspace.symplectic_residual(np.diag([2.0, 1.0, 1.0, 1.0])) - 1.0) == 0.0
          and abs(phspace.o32_residual(2.0 * np.eye(5)) - 3.0) == 0.0)
    rows.append(("residual detectors reject non-canonical maps", _status(ok),
                 "diag(2,1,1,1) residual 1; 2*identity residual 3"))

    samples = ((1.5, -2.0, 0.25, 3.0), (0.1, -2.5, 3.25, 1.75), (0.0, 0.0, 0.0, 2.0))
    exact_eq = True
    action_ok = True
    for a, b, c, d in samples:
        closed = phspace.translate(a, b, c, d)
        # X = T - I has entries in its last column only, so X^2 = 0 and exp(X) = I + X
        x = phspace.translation_generator(a, b, c, d)
        exact_eq = exact_eq and np.array_equal(closed, np.eye(5) + x)
        v = closed @ np.array([0.3, -1.0, 2.5, 4.0, 1.0])
        action_ok = action_ok and tuple(v) == (0.3 + a, -1.0 + b, 2.5 + c, 4.0 - d, 1.0)
    rows.append(("translation matrix equals its exponential", _status(exact_eq),
                 "nilpotent series terminates; equality is exact"))
    rows.append(("translation action on (x, y, z, t, 1)", _status(action_ok),
                 "x+a, y+b, z+c, t-d with the fifth component fixed"))

    worst = 0.0
    for mass in (0.5, 1.0, 2.0):
        p = phspace.FourMomentum.at_rest(mass)
        p = phspace.boost_momentum(p, 1, 2.0)
        p = phspace.boost_momentum(p, 2, -1.3)
        p = phspace.rotate_momentum(p, 3, 0.9)
        p = phspace.boost_momentum(p, 3, 0.7)
        worst = max(worst, abs(phspace.mass_shell(p) + mass ** 2))
    rows.append(("mass shell invariant under boosts", _status(worst <= tol),
                 f"masses 0.5, 1, 2; max |p^2 - p0^2 + m^2| = {worst:.3e}"))
    return rows


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
    """Every suite's rows in SUITES order, as CheckResults."""
    return [CheckResult(suite, *row) for suite, run in SUITES for row in run(config)]
