"""Command-line driver.

Subcommands: verify (the full check program, which lives in
`ladderlie.verify`), table (structure constants of one family), contract
(squeeze trajectory of one generator), wigner (CSV grid), catalog (families
and their matrices), flows (residual tables).

Exit codes: 0 all canonical checks pass, 1 a canonical check failed,
2 usage errors.  Reports are deterministic byte-for-byte for a fixed
configuration.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import catalog, contract, liecore, phspace
from .catalog import AS_PRINTED, CANONICAL
from .liecore import jacobi_check, structure_constants
# SCHEMA_VERSION and SUITES are re-exported: callers find them on `ladderlie.cli`
from .verify import (FLOW_SAMPLES, MAX_FOCK_CUTOFF, SCHEMA_VERSION, SUITES,  # noqa: F401
                     VerifyConfig, exit_code_for, render_json, render_verify_json,
                     render_verify_text, run_verify)

# A wigner grid of n x n points is written as n^2 CSV lines; checked before
# any work starts.
MAX_WIGNER_N = 1001


# ---------------------------------------------------------------------------
# subcommands besides verify
# ---------------------------------------------------------------------------


def _build_family(name: str, variant: str):
    """The family `table` and `catalog` show; None after a usage error."""
    try:
        return catalog.family(name, variant)
    except KeyError:
        print(f"error: unknown family {name!r}; known: "
              + ", ".join(catalog.FAMILY_VARIANTS), file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def cmd_table(name: str, variant: str, fmt: str, out) -> int:
    fam = _build_family(name, variant)
    if fam is None:
        return 2
    rep = structure_constants(fam)
    if fmt == "json":
        payload = {
            "family": fam.name,
            "variant": fam.variant,
            "closed": rep.closed,
            "dependent": list(rep.dependent),
            "failures": [[a, b] for (a, b), _ in rep.failures],
        }
        if rep.constants is not None:
            payload.update(rep.constants.to_json_dict())
            payload["jacobi"] = jacobi_check(rep.constants)
        out.write(render_json(payload))
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
    try:
        lim = contract.limit(traj)
        divergent = None
    except contract.DivergentLimit as exc:
        lim = None
        divergent = exc.entries
    if fmt == "json":
        out.write(render_json({
            "generator": label,
            "scale_power": power,
            "trajectory": [{"entry": [i, j], "terms": [[k, str(v)]]}
                           for i, j, k, v in traj.entries()],
            "limit": None if lim is None else [[str(v) for v in row]
                                               for row in lim.rows],
            "divergent": None if divergent is None else
            [[i, j, k, str(v)] for i, j, k, v in divergent],
        }))
        return 0
    out.write(f"contract {label} (scale power {power})\n")
    out.write("trajectory of eps^p * C(eps) G C(eps)^-1:\n")
    for i, j, k, v in traj.entries():
        out.write(f"  ({i + 1},{j + 1}): {contract.eps_term(v, k)}\n")
    if lim is None:
        out.write("limit: divergent at "
                  + ", ".join(f"({i + 1},{j + 1})" for i, j, _, _ in divergent) + "\n")
    else:
        out.write("limit:\n")
        out.write(lim.render() + "\n")
    return 0


def cmd_wigner(n: int, extent: float, theta: float, eta: float, out) -> int:
    if not all(math.isfinite(v) for v in (extent, theta, eta)):
        print("error: --extent, --theta and --eta must be finite", file=sys.stderr)
        return 2
    if n < 2 or extent <= 0:
        print("error: grid needs n >= 2 and a positive extent", file=sys.stderr)
        return 2
    if n > MAX_WIGNER_N:
        print(f"error: grid n {n} exceeds the ceiling of {MAX_WIGNER_N}",
              file=sys.stderr)
        return 2
    # an overflow would print inf or NaN densities; refuse the input instead
    try:
        with np.errstate(over="raise", invalid="raise"):
            state = phspace.apply_sp2(phspace.ground_state(), phspace.squeeze(eta))
            state = phspace.apply_sp2(state, phspace.rotation(theta))
            xs = np.linspace(-extent, extent, n)
            grid = phspace.wigner_grid(state, xs, xs)
    except (ValueError, FloatingPointError) as exc:
        print(f"error: no Wigner grid for --extent {extent:g} --theta {theta:g} "
              f"--eta {eta:g}: {exc}", file=sys.stderr)
        return 2
    out.write("x,p,w\n")
    for i, x in enumerate(xs):
        for j, p in enumerate(xs):
            out.write(f"{x:.12g},{p:.12g},{grid[i, j]:.12g}\n")
    return 0


def cmd_catalog(name: str | None, variant: str, fmt: str, out) -> int:
    if name is None:
        if fmt == "json":
            families = [{"name": n, "variants": list(v)}
                        for n, v in catalog.FAMILY_VARIANTS.items()]
            out.write(render_json({"families": families}))
            return 0
        for n, v in catalog.FAMILY_VARIANTS.items():
            out.write(f"{n}: variants {', '.join(v)}\n")
        return 0
    fam = _build_family(name, variant)
    if fam is None:
        return 2
    if fmt == "json":
        out.write(render_json({
            "family": fam.name,
            "variant": fam.variant,
            "kind": fam.kind,
            "provenance": fam.provenance,
            "generators": {label: [[str(v) for v in row] for row in el.rows]
                           if fam.kind == "matrix" else el.render()
                           for label, el in fam.items()},
        }))
        return 0
    out.write(f"family {fam.name} ({fam.variant})\n")
    out.write(f"{fam.provenance}\n")
    for label, el in fam.items():
        out.write(f"\n{label}:\n{el.render()}\n")
    return 0


def cmd_flows(out) -> int:
    sp4 = phspace.flow_residuals(catalog.sp4_matrices(),
                                 phspace.symplectic_residual, FLOW_SAMPLES)
    o32 = phspace.flow_residuals(catalog.o32_matrices(), phspace.o32_residual,
                                 FLOW_SAMPLES)
    out.write(render_json({
        "convention": "exp(t * (-i * G))",
        "samples": list(FLOW_SAMPLES),
        "sp4": {label: [r for _, r in rows] for label, rows in sp4.items()},
        "o32": {label: [r for _, r in rows] for label, rows in o32.items()},
    }))
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
                   help="protected-subspace guard band (default 4, at least 2)")
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
