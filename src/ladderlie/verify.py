"""The check program behind `ladderlie verify`: the exact suites of
`ladderlie.proof`, then the float cross-checks in the Fock and phase spaces.

Each suite maps a VerifyConfig to (name, status, detail) rows; `run_verify`
tags them with the suite's SUITES name.  The settings, the statuses and the
renderers live in `ladderlie.report`.
"""

from __future__ import annotations

import numpy as np

from . import catalog, focknum, phspace
from .opalg import creation_op, annihilation_op
from .proof import run_catalog_suite, run_ccr_suite, run_closure_suite, run_contraction_suite
from .report import CheckResult, VerifyConfig, status

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
    rows.append(("realized generators Hermitian", status(herm <= tol),
                 f"max |M - M^dagger| = {herm:.3e} on the full truncated space"))

    dev = focknum.diagonal_deviation(built["S0"][0], fock,
                                     (fock.occupations.sum(axis=1) + 1) / 2)
    rows.append(("S0 spectrum is (n1 + n2 + 1)/2", status(dev <= tol),
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
    rows.append(("protected commutators match symbolic brackets", status(ok), detail))

    one_mode = focknum.FockRealization(config.fock_cutoff, 1)
    a = focknum.realize(annihilation_op(1, 1), one_mode)
    ad = focknum.realize(creation_op(1, 1), one_mode)
    comm = a @ ad - ad @ a
    edge = abs(comm[-1, -1] - (1 - config.fock_cutoff))
    interior = float(np.max(np.abs(comm[:-1, :-1] - np.eye(config.fock_cutoff - 1))))
    rows.append(("truncation artifact localized at the edge",
                 status(edge <= tol and interior <= tol),
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
    rows.append(("vacuum Wigner density values", status(dev <= 1e-15),
                 f"W(0,0) = 1/pi, W(1,0) = e^-1/pi; deviation {dev:.3e}"))

    xs = np.linspace(-8.0, 8.0, 801)
    integral = float(np.trapezoid(_wigner_row_integrals(ground, xs), xs))
    rows.append(("Wigner density integrates to 1",
                 status(abs(integral - 1.0) <= 1e-6),
                 f"trapezoid quadrature error {abs(integral - 1.0):.3e}"))

    eta = 0.8
    for name, m, want in (
            ("vacuum invariant under rotation", phspace.rotation(0.7), ground.cov),
            ("squeeze reshapes the vacuum ellipse", phspace.squeeze(eta),
             0.5 * np.diag([np.exp(2 * eta), np.exp(-2 * eta)]))):
        dev = float(np.max(np.abs(phspace.apply_sp2(ground, m).cov - want)))
        rows.append((name, status(dev <= tight), f"covariance deviation {dev:.3e}"))

    out = phspace.apply_sp2(ground, _seeded_maps())
    drift = float(np.max(np.abs(out.det_cov - ground.det_cov)))
    rows.append(("det covariance under random unit-det maps", status(drift <= tight),
                 f"100 seeded maps; max drift {drift:.3e}"))

    for build, residual, preserved in FLOW_CHECKS:
        fam = build()
        res = phspace.flow_residuals(fam, residual, FLOW_SAMPLES)
        worst = max(r for samples in res.values() for _, r in samples)
        rows.append((f"{fam.name} flows preserve {preserved}", status(worst <= tol),
                     f"{len(fam.labels)} generators x {len(FLOW_SAMPLES)} samples; "
                     f"max residual {worst:.3e}"))

    ok = (abs(phspace.symplectic_residual(np.diag([2.0, 1.0, 1.0, 1.0])) - 1.0) == 0.0
          and abs(phspace.o32_residual(2.0 * np.eye(5)) - 3.0) == 0.0)
    rows.append(("residual detectors reject non-canonical maps", status(ok),
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
    rows.append(("translation matrix equals its exponential", status(exact_eq),
                 "nilpotent series terminates; equality is exact"))
    rows.append(("translation action on (x, y, z, t, 1)", status(action_ok),
                 "x+a, y+b, z+c, t-d with the fifth component fixed"))

    worst = 0.0
    for mass in (0.5, 1.0, 2.0):
        p = phspace.FourMomentum.at_rest(mass)
        p = phspace.boost_momentum(p, 1, 2.0)
        p = phspace.boost_momentum(p, 2, -1.3)
        p = phspace.rotate_momentum(p, 3, 0.9)
        p = phspace.boost_momentum(p, 3, 0.7)
        worst = max(worst, abs(phspace.mass_shell(p) + mass ** 2))
    rows.append(("mass shell invariant under boosts", status(worst <= tol),
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
