"""Dump every CLI report to one file per case, for byte-identity checks.

    PYTHONPATH=src python3 tools/dump_reports.py <outdir>

Runs `ladderlie.cli.main` in-process, once per case, and writes argv, exit
code, standard output and standard error to `<outdir>/<case>.txt`.  It
imports whichever `ladderlie` is on the path, so two checkouts are compared
by dumping each into its own directory and running `diff -r` on the two.
It uses only the standard library and `ladderlie`.

The cases, in text and JSON wherever the command has both formats:

* `table` and `catalog` for every family and variant, an unknown family and
  an unknown variant, and `catalog` with no family;
* `contract` for all ten generators at the default power and at powers
  -1..4, plus an unknown generator;
* `flows`;
* `wigner` at its defaults and at `--n 81 --extent 4 --eta 0.6 --theta 0.4`;
* `verify` at the default config, at `--fock-n 24 --guard 6`, at
  `--fock-n 32 --guard 6`, and with `--variant canonical` and
  `--variant as-printed`;
* the refused inputs `verify --fock-n 33`, `verify --guard 1`,
  `verify --tolerance inf`, `wigner --n 1002` and `wigner --eta 800`;
* `--help` at the top level and for each of the six subcommands.

That is 245 cases with the `ladderlie` of this checkout.  The family cases
come from `catalog.FAMILY_VARIANTS`, so a checkout with a different registry
yields a different set.

    PYTHONPATH=src python3 tools/dump_reports.py --manifest

writes instead `tests/golden/dump.sha256`: one line per case, its name and
the SHA-256 of its record, for every case but the KERNEL_DEPENDENT ones.
`tests/test_cli.py` runs the cases in-process and names each one whose hash
moved.  Write the manifest with the parent checkout's `src` on the path, so
that the test checks a change against the bytes it started from.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import sys

from ladderlie import catalog, cli

FORMATS = (("--format", "text"), ("--format", "json"))
SUBCOMMANDS = ("verify", "table", "contract", "wigner", "catalog", "flows")
VERIFY_CONFIGS = ((), ("--fock-n", "24", "--guard", "6"), ("--fock-n", "32", "--guard", "6"),
                  ("--variant", catalog.CANONICAL), ("--variant", catalog.AS_PRINTED))
MANIFEST = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "dump.sha256"

# Cases whose bytes depend on the OpenBLAS kernel, so the manifest leaves them
# out: the `verify` reports print float figures from BLAS and LAPACK (the
# goldens in tests/golden pin them on an AVX-512 kernel), and `flows` prints
# the residuals of `scipy.linalg.expm`, which moved under Sandybridge.
KERNEL_DEPENDENT = {("flows",)} | {("verify", *config, *fmt)
                                   for config in VERIFY_CONFIGS for fmt in FORMATS}


def cases():
    """Every argv the dump runs, in a fixed order."""
    for command in ("table", "catalog"):
        for name, variants in catalog.FAMILY_VARIANTS.items():
            for variant in variants:
                for fmt in FORMATS:
                    yield (command, name, "--variant", variant, *fmt)
        for name, variant in (("nosuch", catalog.CANONICAL), ("sp4", "nosuch"),
                              ("poincare", "nosuch")):
            for fmt in FORMATS:
                yield (command, name, "--variant", variant, *fmt)
    for fmt in FORMATS:
        yield ("catalog", *fmt)
    for label in (*catalog.TEN_LABELS, "nosuch"):
        for power in (None, -1, 0, 1, 2, 3, 4):
            extra = () if power is None else ("--power", str(power))
            for fmt in FORMATS:
                yield ("contract", label, *extra, *fmt)
    yield ("flows",)
    yield ("wigner",)
    yield ("wigner", "--n", "81", "--extent", "4", "--eta", "0.6", "--theta", "0.4")
    for config in VERIFY_CONFIGS:
        for fmt in FORMATS:
            yield ("verify", *config, *fmt)
    yield from (("verify", "--fock-n", "33"), ("verify", "--guard", "1"),
                ("verify", "--tolerance", "inf"), ("wigner", "--n", "1002"),
                ("wigner", "--eta", "800"))
    yield ("--help",)
    for command in SUBCOMMANDS:
        yield (command, "--help")


def run_case(argv) -> str:
    """One case's record: argv, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return (f"argv: {' '.join(argv)}\nexit: {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def case_name(argv) -> str:
    return "_".join(argv)


def digest(argv) -> str:
    """SHA-256 of one case's record, as hex."""
    return hashlib.sha256(run_case(argv).encode()).hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: dump_reports.py <outdir> | --manifest", file=sys.stderr)
        return 2
    if args[0] == "--manifest":
        lines = [f"{case_name(case)} {digest(case)}\n" for case in cases()
                 if case not in KERNEL_DEPENDENT]
        MANIFEST.write_text("".join(lines))
        print(f"wrote {len(lines)} case hashes to {MANIFEST}")
        return 0
    outdir = pathlib.Path(args[0])
    outdir.mkdir(parents=True, exist_ok=True)
    count = 0
    for case in cases():
        (outdir / f"{case_name(case)}.txt").write_text(run_case(case))
        count += 1
    print(f"wrote {count} cases to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
