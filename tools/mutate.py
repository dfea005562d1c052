"""Mutation check: each named mutation of the sources must make its tests fail.

Each row of MUTATIONS names a file of the repository, a text that occurs in
it exactly once, the text that replaces it, and the pytest node ids that must
catch the change.  For each row the tool copies `src/`, `tests/` and
`pyproject.toml` into a temporary directory, makes the one edit there (the
checkout is never touched), and runs that row's tests in one pytest process
that imports the copy.  A `conftest.py` written into the copy alone loads a
hypothesis profile without shrinking and without an example database: a
kill needs only the first failing example, not its smallest form.  A run
that fails kills the mutation; a run that passes means the mutation
survived.  Before any mutation, every listed test is run once on an
unmutated copy, so a kill is not a test that fails anyway.

    python3 tools/mutate.py             # every mutation
    python3 tools/mutate.py NAME ...    # the named ones
    python3 tools/mutate.py --list      # names, files and tests

Exit status: 0 when every mutation is killed, 1 when one survives, 2 when a
row cannot be applied (its old text does not occur exactly once), a test id
is not found, or the unmutated tests fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
CONFTEST = """\
from hypothesis import Phase, settings

settings.register_profile("mutate", database=None,
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("mutate")
"""


class Mutation(NamedTuple):
    name: str
    path: str           # relative to the repository root
    old: str            # occurs exactly once in `path`
    new: str
    tests: tuple        # pytest node ids, relative to the repository root


MUTATIONS = (
    Mutation("scalars-inverse-drops-denominator", "src/ladderlie/scalars.py",
             "return zbar * _make(u * d, -v * d, 0, 0, m)",
             "return zbar * _make(u, -v, 0, 0, m)",
             ("tests/test_scalars.py::test_inverse_over_the_full_field",
              "tests/test_scalars.py::test_matches_fraction_reference")),
    Mutation("sparse-neg-drops-sign", "src/ladderlie/sparse.py",
             "{key: -v for key, v in self._nonzero.items()}",
             "{key: v for key, v in self._nonzero.items()}",
             ("tests/test_opalg.py::test_internal_results_are_canonical",
              "tests/test_matrices.py::test_results_equal_the_coerced_reference")),
    Mutation("sparse-of-keeps-zeros", "src/ladderlie/sparse.py",
             "            del nonzero[key]\n",
             "            pass\n",
             ("tests/test_opalg.py::test_internal_results_are_canonical",
              "tests/test_matrices.py::test_sparse_matrix_agrees_with_the_dense_oracle")),
    Mutation("opalg-builder-keys-swapped", "src/ladderlie/opalg.py",
             "(unit, zero) if creation else (zero, unit)",
             "(zero, unit) if creation else (unit, zero)",
             ("tests/test_opalg.py::test_each_builder_gives_one_unit_key",
              "tests/test_opalg.py::test_ccr_single_mode")),
    Mutation("opalg-integer-rule-passes-bools", "src/ladderlie/opalg.py",
             "if isinstance(value, bool) or not isinstance(value, Integral):",
             "if not isinstance(value, Integral):",
             ("tests/test_opalg.py::test_modes_and_mode_counts_must_be_integers",)),
    Mutation("opalg-product-rule-drops-factorial", "src/ladderlie/opalg.py",
             "w = w * (d - k) * (c - k) // (k + 1)\n",
             "w = w * (d - k) * (c - k) // (k + 1) ** 2\n",
             ("tests/test_opalg.py::test_deepest_benchmark_commutator_matches_sympy",
              "tests/test_focknum.py::test_family_brackets_are_exact_in_the_bargmann_gauge",
              "tests/test_focknum.py::"
              "test_random_quadratic_brackets_are_exact_in_the_bargmann_gauge")),
    Mutation("opalg-commutator-box-takes-the-smaller-side", "src/ladderlie/opalg.py",
             "top = max(min(y1, x2), min(y2, x1))",
             "top = min(min(y1, x2), min(y2, x1))",
             ("tests/test_opalg.py::"
              "test_commutator_of_deep_polynomials_is_the_difference_of_products",)),
    Mutation("opalg-lexer-drops-name-start-check", "src/ladderlie/opalg.py",
             'text[k].isalpha() or text[k] == "†"',
             "True",
             ("tests/test_opalg.py::test_parse_rejects_unreadable_integer_literals",
              "tests/test_opalg.py::"
              "test_lexer_classes_are_the_str_predicates_on_every_bmp_code_point")),
    Mutation("matrices-imports-numpy", "src/ladderlie/matrices.py",
             "from .sparse import SparseExact\n",
             "import numpy\nfrom .sparse import SparseExact\n",
             ("tests/test_cli.py::test_exact_modules_load_without_numpy_or_scipy",)),
    Mutation("matmul-assigns-instead-of-accumulating", "src/ladderlie/matrices.py",
             "            out[at] = out[at] + p if at in out else p\n"
             "        return ExactMatrix._of(self.n, out)\n",
             "            out[at] = p\n"
             "        return ExactMatrix._of(self.n, out)\n",
             ("tests/test_matrices.py::test_product_equals_the_dense_loop_on_zero_heavy_matrices",
              "tests/test_matrices.py::test_results_equal_the_coerced_reference")),
    Mutation("catalog-b-for-b-dagger", "src/ladderlie/catalog.py",
             "left = _single_mode_block(1, 2) + b_dagger",
             "left = _single_mode_block(1, 2) + b",
             ("tests/test_catalog.py::test_block_matrices_self_adjoint",
              "tests/test_catalog.py::test_coupled_block_matrix_entries")),
    Mutation("liecore-skips-residual-check", "src/ladderlie/liecore.py",
             "        if residual:    # keys outside",
             "        if False:    # keys outside",
             ("tests/test_liecore.py::test_expand_in_basis_not_in_span",
              "tests/test_liecore.py::test_out_of_span_term_gives_not_in_span")),
    Mutation("liecore-pivot-keys-unpermuted", "src/ladderlie/liecore.py",
             "tuple(keys[p] for p in order[:r])",
             "tuple(keys[:r])",
             ("tests/test_liecore.py::test_sparse_factorization_agrees_with_the_dense_oracle",
              "tests/test_liecore.py::test_factorization_inverts_the_pivot_block")),
    Mutation("liecore-memo-bracket-flipped", "src/ladderlie/liecore.py",
             "    return x.commutator(y)\n",
             "    return y.commutator(x)\n",
             ("tests/test_liecore.py::test_memoized_bracket_equals_the_uncached_commutator",
              "tests/test_oracle.py::test_structure_constants_match_the_sympy_table")),
    Mutation("contract-squeeze-sign-flipped", "src/ladderlie/contract.py",
             "k + sign * (e[i] - e[j]) + power",
             "k + sign * (e[j] - e[i]) + power",
             ("tests/test_contract.py::test_limits_land_on_translations",
              "tests/test_oracle.py::"
              "test_squeezed_o32_generators_contract_to_the_poincare_generators")),
    Mutation("focknum-bracket-block-assigns", "src/ladderlie/focknum.py",
             "diff[found[key]] += coeff.to_complex() * weight",
             "diff[found[key]] = coeff.to_complex() * weight",
             ("tests/test_focknum.py::test_family_brackets_are_exact_in_the_bargmann_gauge",
              "tests/test_focknum.py::test_bracket_blocks_equal_the_blocks_of_their_entries")),
    Mutation("focknum-band-drops-bracket-shifts", "src/ladderlie/focknum.py",
             "frozenset(unit_block(key)[0] for _, key in terms))",
             "frozenset())",
             ("tests/test_focknum.py::test_bracket_blocks_equal_the_blocks_of_their_entries",)),
    Mutation("focknum-witness-takes-last-max", "src/ladderlie/focknum.py",
             "at = int(dev.argmax())",
             "at = len(dev) - 1 - int(dev[::-1].argmax())",
             ("tests/test_focknum.py::test_all_zero_block_has_its_witness_at_the_first_position",
              "tests/test_focknum.py::test_family_worst_is_the_max_of_the_dense_route",
              "tests/test_focknum.py::"
              "test_family_worst_of_cubic_generators_equals_the_dense_route")),
    Mutation("focknum-entries-assign", "src/ladderlie/focknum.py",
             "values[at[start:start + len(part)]] += part",
             "values[at[start:start + len(part)]] = part",
             ("tests/test_focknum.py::test_realize_matches_kron_chain_exactly",
              "tests/test_focknum.py::test_family_brackets_are_exact_in_the_bargmann_gauge")),
    Mutation("report-exit-code-ignores-fail", "src/ladderlie/report.py",
             "any(c.status == FAIL for c in checks)",
             "all(c.status == FAIL for c in checks)",
             ("tests/test_cli.py::test_verify_impossible_tolerance_fails",)),
    Mutation("phspace-checks-first-member-only", "src/ladderlie/phspace.py",
             "np.any(np.linalg.det(cov) <= 0.0)",
             "np.any(np.linalg.det(cov).reshape(-1)[:1] <= 0.0)",
             ("tests/test_phspace.py::test_each_member_of_a_stack_is_checked_as_one",)),
)


def check_table(root: Path = ROOT) -> list:
    """Rows whose old text does not occur exactly once, as (name, count)."""
    return [(m.name, n) for m in MUTATIONS
            if (n := (root / m.path).read_text().count(m.old)) != 1]


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest / name)
    (dest / "conftest.py").write_text(CONFTEST)


# A mutation that makes its tests run longer than this (say, a loop that no
# longer ends) counts as killed.
TIMEOUT_S = 600


def _pytest(copy: Path, tests) -> int:
    """Exit code of one pytest process over `tests`, importing the copy's src;
    -1 when it runs out of time."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", *tests], cwd=copy, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1
    return done.returncode


def run(mutations) -> int:
    with tempfile.TemporaryDirectory(prefix="ladderlie-mutate-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        every = sorted({t for m in mutations for t in m.tests})
        if (code := _pytest(copy, every)) != 0:
            print(f"the unmutated tests fail (pytest exit {code}); nothing to check")
            return 2
        survived, status = [], 0
        for m in mutations:
            target = copy / m.path
            original = target.read_text()
            target.write_text(original.replace(m.old, m.new, 1))
            start = time.perf_counter()
            code = _pytest(copy, m.tests)
            target.write_text(original)
            if code in (4, 5):          # usage error or no tests collected
                print(f"ERROR    {m.name}: a test id is not found (pytest exit {code})")
                status = 2
                continue
            verdict = "survived" if code == 0 else "killed"
            print(f"{verdict:8} {m.name} ({time.perf_counter() - start:.1f} s)")
            if code == 0:
                survived.append(m.name)
        if survived:
            print(f"{len(survived)} of {len(mutations)} mutation(s) survived: "
                  + ", ".join(survived))
            return 1
        return status


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args == ["--list"]:
        for m in MUTATIONS:
            print(f"{m.name}  {m.path}\n    " + "\n    ".join(m.tests))
        return 0
    if bad := check_table():
        for name, count in bad:
            print(f"ERROR    {name}: old text occurs {count} times, not once")
        return 2
    by_name = {m.name: m for m in MUTATIONS}
    unknown = [name for name in args if name not in by_name]
    if unknown:
        print(f"unknown mutation(s): {', '.join(unknown)}")
        return 2
    return run([by_name[name] for name in args] if args else MUTATIONS)


if __name__ == "__main__":
    sys.exit(main())
