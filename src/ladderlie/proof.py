"""The exact proof behind `ladderlie verify`: the ccr, catalog, closure and
contraction suites, each mapping a VerifyConfig to (name, status, detail) rows.

No numpy or scipy loads with it: the contraction suite's one float row calls
`contract.numeric_conjugate`, which imports numpy when it runs.
"""

from __future__ import annotations

from . import catalog, contract
from .catalog import AS_PRINTED
from .liecore import (StructureConstants, compare, jacobi_check, render_combination,
                      structure_constants)
from .opalg import (OperatorExpr, commutator, creation_op, annihilation_op, momentum,
                    parse_expr, position)
from .report import NOTE, VerifyConfig, status
from .scalars import ExactScalar, I


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
        rows.append((name, status(ok), "exact, two modes"))

    for name, text, want, shown in (
            ("symmetrized quadratic normal form", "(1/2)*(a1*ad1 + ad1*a1)",
             "ad1*a1 + 1/2", "(a ad + ad a)/2"),
            ("double contraction normal form", "a1*a1*ad1*ad1",
             "ad1*ad1*a1*a1 + 4*ad1*a1 + 2", "a^2 ad^2"),
            ("[x1, p1] from quadrature parse", "x1*p1 - p1*x1", "i", "x1*p1 - p1*x1")):
        got = parse_expr(text, 1)
        rows.append((name, status(got == parse_expr(want, 1)),
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
        rows.append(("2x2 family entries", status(ok),
                     "rotation and squeeze generators as expected"))

        mink = catalog.sp2_minkowski4()
        ok = all(all(g[1, k].is_zero() and g[k, 1].is_zero() for k in range(4))
                 for _, g in mink.items())
        rows.append(("4x4 family leaves y untouched", status(ok),
                     "second row and column of each generator are null"))

        for fam, metric, condition in (
                (catalog.sp4_matrices(), "J", "exact symplectic Lie-algebra condition"),
                (catalog.o32_matrices(), "eta", "exact pseudo-orthogonal condition")):
            bad = next((l for l, g in fam.items()
                        if not (g @ fam.metric + fam.metric @ g.transpose()).is_zero()), None)
            rows.append((f"{fam.name} generators satisfy G {metric} + {metric} G^T = 0",
                         status(bad is None),
                         condition if bad is None else f"violated by {bad}"))

        trans = catalog.translation_matrices()
        ok = all((g @ g).is_zero() for _, g in trans.items())
        rows.append(("translation generators are nilpotent", status(ok),
                     "P @ P = 0 exactly"))

        two = catalog.two_mode_oscillator()
        ok = all(expr.adjoint() == expr for _, expr in two.items())
        rows.append(("two-mode generators self-adjoint", status(ok),
                     "exact under normal ordering"))

        for name, block in (("single-mode", catalog.single_mode_block_matrix()),
                            ("coupled", catalog.coupled_block_matrix())):
            n = len(block)
            ok = all(block[i][j].adjoint() == block[j][i]
                     for i in range(n) for j in range(n))
            rows.append((f"{name} block matrix self-adjoint", status(ok),
                         f"{n}x{n} operator-valued matrix"))

    if config.run_printed:
        sp4p = catalog.sp4_matrices(AS_PRINTED)
        dup = sp4p.element("Q3") == sp4p.element("S0")
        rows.append(("sp4 as-printed Q3 slot", status(not dup, canonical=False),
                     "Q3 repeats the S0 matrix; family is linearly dependent"
                     if dup else "entries independent"))
        j2 = catalog.sp2_minkowski4(AS_PRINTED).element("J2")
        symmetric = j2 == j2.transpose()
        rows.append(("4x4 as-printed J2 symmetry", status(not symmetric, canonical=False),
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
        return [(name, status(False, canonical),
                 f"linearly dependent: {', '.join(rep.dependent)} spanned by earlier "
                 "generators; structure constants are not well-defined")], rep
    if not rep.closed:
        (a, b), _ = rep.failures[0]
        return [(name, status(False, canonical),
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
    return [(name, status(cmp.match, canonical), detail),
            (f"{fam.name}[{fam.variant}] Jacobi identity",
             status(jacobi_check(rep.constants), canonical),
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
            rows.append((f"{group} cross-representation match", status(ok), detail))
            if group == "single-mode":     # the 4x4 family also closes on (x, z, t)
                restricted = structure_constants(mink.restrict((0, 2, 3)))
                ok = (restricted.closed
                      and compare(restricted.constants, reports[1].constants).match)
                rows.append(("4x4 family restricted to (x, z, t)", status(ok),
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
    rows.append(("squeezed limits land on translations", status(ok),
                 "eps^2-scaled limits equal the translation matrices exactly"))

    ok = all(poincare.element(l) == o32.element(l)
             for l, power in powers.items() if not power)
    rows.append(("rotations and boosts are fixed points", status(ok),
                 "unscaled conjugation is exact"))

    limits = {}                     # scale power -> limit of Q1, None if divergent
    for power in (0, 1, 3, 4):
        try:
            limits[power] = contract.limit(contract.conjugate(o32.element("Q1"), power))
        except contract.DivergentLimit:
            limits[power] = None
    rows.append(("unscaled Q1 limit diverges", status(limits[0] is None),
                 "eps^-2 entry survives without the eps^2 scale"))
    unique = all((m is None) if power < 2 else (m is not None and m.is_zero())
                 for power, m in limits.items())
    rows.append(("scale power 2 is the unique choice", status(unique),
                 "powers < 2 diverge, powers > 2 vanish"))

    ok = all(contract.contract_via_inverse_squeeze(g) == poincare.element(relabel[l])
             for l, g in o32.items())
    rows.append(("inverse-squeeze route agrees", status(ok),
                 "dominant part conjugated back equals the direct limit"))

    again = contract.contract_family(poincare, {relabel[l]: p for l, p in powers.items()})
    ok = all(again.element(l) == poincare.element(l) for l in poincare.labels)
    rows.append(("contraction is idempotent", status(ok),
                 "re-contracting the output changes nothing"))

    worst = 0.0
    for eps in (1e-1, 1e-2, 1e-3):
        for label, g in o32.items():
            numeric = contract.numeric_conjugate(g, powers[label], eps)
            exact = poincare.element(relabel[label]).to_numpy()
            worst = max(worst, float(abs(numeric - exact).max()) / eps ** 2)
    ok = worst <= 1.0 + 1e-9        # O(eps^2) with unit constant for this family
    rows.append(("numeric path converges as O(eps^2)", status(ok),
                 f"max |numeric - exact| / eps^2 = {worst:.3e} "
                 "over eps in {1e-1, 1e-2, 1e-3}"))

    rep = structure_constants(poincare)
    want = StructureConstants.from_brackets(catalog.POINCARE_LABELS,
                                            catalog.poincare_bracket_targets())
    ok = rep.closed and compare(rep.constants, want).match
    rows.append(("contracted family closure", status(ok),
                 "10/10 generators closed; translations commute; "
                 "boost/translation sector verified"))
    if rep.closed:
        rows.append(("contracted family Jacobi identity",
                     status(jacobi_check(rep.constants)), "exact f-tensor contraction"))
        zero_pp = all(not rep.constants.bracket_coeffs(a, b) for a, b in trans.pairs())
        rows.append(("[P_mu, P_nu] = 0", status(zero_pp),
                     "all translation brackets vanish exactly"))
    rows.append(("boost/translation bracket convention", NOTE,
                 catalog.PRINTED_BOOST_TRANSLATION_NOTE))
    return rows
