"""End-to-end checks of the command-line driver."""

import argparse
import ast
import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ladderlie
from ladderlie import catalog, cli, focknum, liecore, opalg, phspace, report
from ladderlie.catalog import two_mode_oscillator
from ladderlie.cli import MAX_FOCK_CUTOFF, MAX_WIGNER_N, VerifyConfig, main
from ladderlie.opalg import parse_expr
from ladderlie.report import MIN_GUARD, exit_code_for, render_json
from ladderlie.verify import run_fock_suite, run_verify

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def verify_report():
    """`verify` reports by argument tuple; each distinct run happens once per module."""
    reports = {}

    def run(*argv):
        if argv not in reports:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["verify", *argv])
            reports[argv] = (code, out.getvalue())
        return reports[argv]
    return run


def test_verify_default_passes(verify_report):
    code, out = verify_report()
    assert code == 0
    assert "10/10 generators closed" in out
    assert "[FAIL]" not in out
    assert "0 fail" in out


def test_verify_reports_printed_variant_findings(verify_report):
    code, out = verify_report()
    assert code == 0
    assert "[WARN]" in out
    assert "Q3 repeats the S0 matrix" in out
    assert "[NOTE]" in out


def test_verify_canonical_only_has_no_warnings(verify_report):
    code, out = verify_report("--variant", "canonical")
    assert code == 0
    assert "0 warn" in out


# The default variant is `both`.  Regenerate a golden file only for an
# intended report change, e.g. `ladderlie verify --format json >
# tests/golden/verify-both.json`.
@pytest.mark.parametrize("golden, argv", [
    ("verify-both.txt", ()),
    ("verify-both.json", ("--format", "json")),
    ("verify-canonical.txt", ("--variant", "canonical")),
    ("verify-canonical.json", ("--variant", "canonical", "--format", "json")),
    ("verify-fock24.txt", ("--fock-n", "24", "--guard", "6")),
    ("verify-fock24.json", ("--fock-n", "24", "--guard", "6", "--format", "json")),
    ("verify-printed.txt", ("--variant", "as-printed")),
    ("verify-printed.json", ("--variant", "as-printed", "--format", "json")),
    ("verify-fock32.txt", ("--fock-n", "32", "--guard", "6")),
    ("verify-fock32.json", ("--fock-n", "32", "--guard", "6", "--format", "json")),
])
def test_verify_report_matches_golden_bytes(verify_report, golden, argv):
    code, out = verify_report(*argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_verify_impossible_tolerance_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tolerance", "1e-20")
    assert code == 1
    assert "[FAIL]" in out


def test_failing_fock_row_names_its_worst_entry(capsys, monkeypatch):
    # a perturbed [J1, K3] bracket: (1/1000) ad1 a2 is largest, sqrt(6 * 6) / 1000,
    # from |5, 6> to |6, 5>, on the protected states n1 + n2 <= 11
    fam = two_mode_oscillator()
    pair = fam.element("J1"), fam.element("K3")
    bump = parse_expr("(1/1000)*ad1*a2", 2)
    bracket = focknum.bracket

    def perturbed(a, b):
        return bracket(a, b) + bump if (a, b) == pair else bracket(a, b)
    monkeypatch.setattr(focknum, "bracket", perturbed)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    at = next(k for k, line in enumerate(lines) if "protected commutators" in line)
    assert lines[at].startswith("[FAIL]")
    assert lines[at + 1].endswith(
        "max deviation 6.000e-03 at [J1, K3], row |6, 5>, column |5, 6>")
    # the bracket memo holds the true [J1, K3], never the perturbed one
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "[FAIL]" not in out


def test_verify_computes_each_bracket_and_unit_monomial_once(monkeypatch):
    commutator, calls = opalg.commutator, []

    def counted(a, b):
        calls.append((a, b))
        return commutator(a, b)
    for name, mod in list(sys.modules.items()):     # every module that holds it
        if name.split(".")[0] == "ladderlie":
            for attr, value in list(vars(mod).items()):
                if value is commutator:
                    monkeypatch.setattr(mod, attr, counted)
    assert opalg.OperatorExpr.commutator is commutator      # the method the memo calls
    monkeypatch.setattr(opalg.OperatorExpr, "commutator", counted)
    unit, asked = focknum._unit_monomial, []

    def recorded(*key):
        asked.append(key)
        return unit(*key)
    monkeypatch.setattr(focknum, "_unit_monomial", recorded)
    liecore._memo_bracket.cache_clear()
    unit.cache_clear()
    rows = run_verify(VerifyConfig())
    assert exit_code_for(rows) == 0
    # 152 calls before the bracket memo, on the same 86 distinct pairs
    assert len(calls) == len(set(calls)) == 86
    # 11 two-mode monomials (the ten quadratics and the identity), a and ad
    distinct = set(asked)
    assert len(distinct) == 13
    info = unit.cache_info()
    assert (info.misses, info.hits) == (len(distinct), len(asked) - len(distinct))
    for array in unit(*asked[0]):
        with pytest.raises(ValueError):
            array[0] = 0


def test_verify_counts_its_float_work(monkeypatch):
    calls = {"expm": [], "entries": [], "hermitian_deviation": []}

    def counted(mod, name):
        real = getattr(mod, name)

        def wrapper(*args):
            calls[name].append(args)
            return real(*args)
        monkeypatch.setattr(mod, name, wrapper)
    counted(phspace, "expm")
    counted(focknum, "entries")
    counted(focknum, "hermitian_deviation")
    phspace._lorentz_block.cache_clear()
    focknum._unit_monomial.cache_clear()
    liecore._memo_bracket.cache_clear()
    assert exit_code_for(run_verify(VerifyConfig())) == 0
    # one stacked expm per flow family (10 generators x 5 samples each), and
    # one per distinct Lorentz map of the mass-shell row (32 before stacking)
    shapes = [args[0].shape for args in calls["expm"]]
    assert shapes == [(10, 5, 4, 4), (10, 5, 5, 5)] + [(5, 5)] * 4
    # entries for the ten generators and none per bracket; the edge row's a and
    # ad are one-mode matrices, realized through entries too
    fam = two_mode_oscillator()
    two_mode = [expr for expr, fock in calls["entries"] if fock.modes == 2]
    assert two_mode == [expr for _, expr in fam.items()]
    assert len(calls["entries"]) == 12
    # one Hermitian deviation per generator (18 before)
    assert len(calls["hermitian_deviation"]) == 10


def test_fock_suite_forms_no_two_mode_matrix(monkeypatch):
    realize = focknum.realize

    def one_mode_only(expr, fock):
        if fock.modes == 2:
            raise AssertionError("two-mode matrix realized")
        return realize(expr, fock)
    monkeypatch.setattr(focknum, "realize", one_mode_only)
    rows = run_fock_suite(VerifyConfig(fock_cutoff=16, guard=4))
    golden = json.loads((GOLDEN / "verify-both.json").read_text(encoding="utf-8"))
    assert [list(row) for row in rows] == [
        [check["name"], check["status"], check["detail"]]
        for check in golden["checks"] if check["suite"] == "fock"]


def test_fock_suite_builds_each_generator_entries_once(monkeypatch):
    fam = two_mode_oscillator()
    labels = {id(expr): label for label, expr in fam.items()}
    build, built = focknum.entries, []

    def counted(expr, fock):
        if id(expr) in labels:
            built.append(labels[id(expr)])
        return build(expr, fock)
    monkeypatch.setattr(catalog, "two_mode_oscillator", lambda: fam)
    monkeypatch.setattr(focknum, "entries", counted)
    run_fock_suite(VerifyConfig(fock_cutoff=8, guard=4))
    assert sorted(built) == sorted(fam.labels)


def test_verify_json_schema(verify_report):
    code, out = verify_report("--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["summary"]["fail"] == 0
    assert payload["config"]["fock_cutoff"] == 16
    statuses = {c["status"] for c in payload["checks"]}
    assert statuses <= {"PASS", "WARN", "NOTE"}


def test_verify_output_is_stable(capsys):
    _, first, _ = run_cli(capsys, "verify", "--format", "json")
    _, second, _ = run_cli(capsys, "verify", "--format", "json")
    assert first == second


def test_verify_rejects_bad_config(capsys):
    code, _, err = run_cli(capsys, "verify", "--fock-n", "3", "--guard", "4")
    assert code == 2
    assert "guard" in err
    # a quadratic generator moves a protected state 2 quanta: guards 0 and 1
    # would fail the protected-commutator check on a correct algebra
    for guard in ("0", "1"):
        code, out, err = run_cli(capsys, "verify", "--fock-n", "16", "--guard", guard)
        assert (code, out) == (2, "")
        assert "guard must be at least 2" in err
    for tolerance in ("0", "inf"):
        code, _, err = run_cli(capsys, "verify", "--tolerance", tolerance)
        assert code == 2
        assert "tolerance must be positive and finite" in err


def _refuse_work(monkeypatch):
    def boom(*_args, **_kwargs):
        raise AssertionError("work started on a rejected input")
    monkeypatch.setattr(cli, "run_verify", boom)
    monkeypatch.setattr(focknum, "FockRealization", boom)
    monkeypatch.setattr(phspace, "ground_state", boom)
    monkeypatch.setattr(phspace, "wigner_grid", boom)


def test_verify_rejects_fock_cutoff_above_ceiling(capsys, monkeypatch):
    _refuse_work(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--fock-n", "200")
    assert code == 2
    assert out == ""
    assert f"exceeds the ceiling of {MAX_FOCK_CUTOFF}" in err
    code, _, _ = run_cli(capsys, "verify", "--fock-n", str(MAX_FOCK_CUTOFF + 1))
    assert code == 2
    VerifyConfig(fock_cutoff=24, guard=6)
    VerifyConfig(fock_cutoff=MAX_FOCK_CUTOFF)


def test_wigner_rejects_grid_above_ceiling(capsys, monkeypatch):
    _refuse_work(monkeypatch)
    code, out, err = run_cli(capsys, "wigner", "--n", "100000000")
    assert code == 2
    assert out == ""
    assert f"exceeds the ceiling of {MAX_WIGNER_N}" in err
    code, _, _ = run_cli(capsys, "wigner", "--n", str(MAX_WIGNER_N + 1))
    assert code == 2


def test_verify_parser_defaults_are_the_config_defaults():
    args = cli.build_parser().parse_args(["verify"])
    assert ((args.fock_n, args.guard, args.tolerance, args.variant)
            == dataclasses.astuple(VerifyConfig()))


def test_verify_config_validation_direct():
    with pytest.raises(ValueError):
        VerifyConfig(fock_cutoff=4, guard=4)
    for guard in (-1, 0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            VerifyConfig(fock_cutoff=16, guard=guard)
    VerifyConfig(fock_cutoff=4, guard=2)
    with pytest.raises(ValueError):
        VerifyConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        VerifyConfig(variant_policy="sideways")


def test_integer_fields_refuse_floats_and_bools():
    for kwargs in ({"fock_cutoff": 16, "guard": 4.5}, {"fock_cutoff": 16.5},
                   {"fock_cutoff": 16.0}, {"guard": True}):
        with pytest.raises(ValueError, match="must be an integer, got"):
            VerifyConfig(**kwargs)
    for cutoff, modes in ((4.5, 2), (4, 2.0), (True, 2), (4, True)):
        with pytest.raises(ValueError, match="must be an integer, got"):
            focknum.FockRealization(cutoff, modes)
    assert VerifyConfig(np.int64(16), np.int32(4)).guard == 4
    assert focknum.FockRealization(np.int64(3), np.int8(2)).dim == 9


def test_tolerance_must_be_a_real_number():
    # a comparison with a string or a complex would raise a bare TypeError
    for tolerance in ("1", 1j, None, True):
        with pytest.raises(ValueError, match=f"tolerance must be a real number, got "
                                             f"{re.escape(repr(tolerance))}$"):
            VerifyConfig(tolerance=tolerance)
    for tolerance in (0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^tolerance must be positive and finite$"):
            VerifyConfig(tolerance=tolerance)
    for tolerance in (1, Fraction(1, 10**9), np.float64(1e-12)):
        assert VerifyConfig(tolerance=tolerance).tolerance == tolerance


def test_guard_floor_and_policy_names_are_stated_once(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0
    assert f"at least {MIN_GUARD})" in " ".join(out.split())
    with pytest.raises(ValueError, match="variant policy must be canonical, as-printed "
                                         "or both$"):
        VerifyConfig(variant_policy="sideways")
    # the check and its messages follow the two constants
    monkeypatch.setattr(report, "MIN_GUARD", 3)
    monkeypatch.setattr(report, "VARIANT_POLICIES", ("w", "x", "y", "z"))
    with pytest.raises(ValueError, match="guard must be at least 3:"):
        VerifyConfig(guard=2)
    with pytest.raises(ValueError, match="variant policy must be w, x, y or z$"):
        VerifyConfig(variant_policy="both")
    VerifyConfig(variant_policy="z")


def test_table_contains_expected_brackets(capsys):
    code, out, _ = run_cli(capsys, "table", "two-mode-oscillator")
    assert code == 0
    assert "[K1, Q1] = -i S0" in out
    assert "[J1, J2] = i J3" in out
    assert "jacobi: ok" in out


def test_table_poincare(capsys):
    code, out, _ = run_cli(capsys, "table", "poincare")
    assert code == 0
    assert "[P1, P2] = 0" in out
    assert "[K1, P1] = -i P0" in out


def test_table_as_printed_variant(capsys):
    code, out, _ = run_cli(capsys, "table", "sp4", "--variant", "as-printed")
    assert code == 0
    assert "linearly dependent" in out


def test_table_unknown_family(capsys):
    code, _, err = run_cli(capsys, "table", "nonexistent")
    assert code == 2
    assert "unknown family" in err


def test_json_reports_share_one_envelope():
    assert render_json({"b": [1], "a": None}) == (
        '{\n  "schema": 1,\n  "b": [\n    1\n  ],\n  "a": null\n}\n')


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "sp2-pauli", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["closed"] is True
    assert payload["jacobi"] is True
    assert ["J2", "K1", "K3", "-i"] in payload["triplets"]


# Generated from `ladderlie contract Q1 [--power 0] [--format json]` before the
# squeeze was rewritten as a per-entry rule.
@pytest.mark.parametrize("golden, argv", [
    ("contract-Q1.txt", ()),
    ("contract-Q1.json", ("--format", "json")),
    ("contract-Q1-power0.txt", ("--power", "0")),
    ("contract-Q1-power0.json", ("--power", "0", "--format", "json")),
])
def test_contract_matches_golden_bytes(capsys, golden, argv):
    code, out, _ = run_cli(capsys, "contract", "Q1", *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_contract_default_power(capsys):
    code, out, _ = run_cli(capsys, "contract", "Q1")
    assert code == 0
    assert "scale power 2" in out
    assert "limit:" in out


def test_contract_divergent_power(capsys):
    code, out, _ = run_cli(capsys, "contract", "Q1", "--power", "0")
    assert code == 0
    assert "divergent" in out


def test_contract_fixed_point(capsys):
    code, out, _ = run_cli(capsys, "contract", "J1")
    assert code == 0
    assert "scale power 0" in out


def test_contract_unknown_generator(capsys):
    code, _, err = run_cli(capsys, "contract", "Z9")
    assert code == 2
    assert "unknown generator" in err


def test_contract_json(capsys):
    code, out, _ = run_cli(capsys, "contract", "S0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["generator"] == "S0"
    assert payload["limit"] is not None


def test_wigner_csv(capsys):
    code, out, _ = run_cli(capsys, "wigner", "--n", "3", "--extent", "1.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,p,w"
    assert len(lines) == 10
    x, p, w = lines[5].split(",")
    assert (x, p) == ("0", "0")
    assert abs(float(w) - 0.3183098861837907) < 1e-12


def test_wigner_rejects_degenerate_grid(capsys):
    code, _, err = run_cli(capsys, "wigner", "--n", "1")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("--extent", "nan"), "must be finite"),
    (("--theta", "nan"), "must be finite"),
    (("--eta", "inf"), "must be finite"),
    (("--eta", "800"), "--eta 800: overflow"),
    (("--eta", "360"), "--eta 360: overflow"),
    (("--extent", "1e200", "--theta", "0.7", "--eta", "0.5"), "overflow"),
])
def test_wigner_rejects_unformable_input(capsys, argv, message):
    code, out, err = run_cli(capsys, "wigner", "--n", "3", *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_closed_pipe_exits_1_without_a_traceback():
    # `ladderlie wigner | head -1`: the reader closes the pipe after one
    # line.  At --n 201 the CSV is about 1.6 MB, far more than a pipe buffer
    # holds, so the writer is still writing when the pipe closes.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    with subprocess.Popen([sys.executable, "-m", "ladderlie.cli", "wigner", "--n", "201"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert first == b"x,p,w\n"
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err
    assert code == 1


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    for name in ("sp2-oscillator", "two-mode-oscillator", "o32", "poincare"):
        assert name in out


def test_catalog_render_family(capsys):
    code, out, _ = run_cli(capsys, "catalog", "sp2-oscillator")
    assert code == 0
    assert "J2" in out and "ad1" in out


def test_catalog_json(capsys):
    code, out, _ = run_cli(capsys, "catalog", "o32", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "matrix"
    assert len(payload["generators"]) == 10
    assert payload["generators"]["Q1"][0][4] == "i"


def test_flows_json(capsys):
    code, out, _ = run_cli(capsys, "flows")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert set(payload["sp4"]) == set(payload["o32"])
    worst = max(max(v) for v in payload["sp4"].values())
    assert worst < 1e-10


def _load_tool(name):
    path = Path(__file__).parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dump_reports_covers_every_registry_family():
    cases = set(_load_tool("dump_reports").cases())
    for command in ("table", "catalog"):
        for name, variants in catalog.FAMILY_VARIANTS.items():
            for variant in variants:
                for fmt in ("text", "json"):
                    assert (command, name, "--variant", variant, "--format", fmt) in cases
        for name, variant in (("nosuch", "canonical"), ("sp4", "nosuch"),
                              ("poincare", "nosuch")):
            assert (command, name, "--variant", variant, "--format", "text") in cases
    assert ("--help",) in cases
    for command in _subparsers():
        assert (command, "--help") in cases


def test_dump_cases_match_the_manifest_hashes():
    """Every kernel-independent dump case keeps the bytes the manifest pins;
    rewrite it with `tools/dump_reports.py --manifest`."""
    dump = _load_tool("dump_reports")
    want = dict(line.split() for line in dump.MANIFEST.read_text().splitlines())
    got = {dump.case_name(case): dump.digest(case) for case in dump.cases()
           if case not in dump.KERNEL_DEPENDENT}
    assert set(got) == set(want), "the manifest lists other cases"
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"{len(moved)} case(s) moved: {', '.join(moved)}"


def test_mutation_table_applies_to_the_sources():
    """Each row of `tools/mutate.py` finds its old text exactly once and names
    tests that exist, so a refactor that moves one must update the table."""
    mutate = _load_tool("mutate")
    assert mutate.check_table() == []
    assert len({m.name for m in mutate.MUTATIONS}) == len(mutate.MUTATIONS)
    root = Path(__file__).parent.parent
    for m in mutate.MUTATIONS:
        assert m.tests and m.old != m.new
        for test in m.tests:
            path, _, name = test.partition("::")
            assert f"\ndef {name}(" in (root / path).read_text(), test


# Public names that no package module reads, each with the reason it stays.
UNREAD_PUBLIC_NAMES = {
    "SQRT2": "a constant of the coefficient field, beside ZERO, ONE, HALF and I",
    "dependent_labels": "a perfbench hook target until the hooks are retargeted",
    "protected_commutator_check": "a perfbench hook target until the hooks are retargeted",
}


def test_every_public_name_is_read_inside_the_package():
    """A name of `ladderlie.__all__` that no module but `__init__.py` reads,
    as a name or as `module.name`, is dead API: remove it, or list it above."""
    src = Path(ladderlie.__file__).parent
    modules = {path.stem for path in src.glob("*.py")}
    read = set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add(node.attr)
    assert sorted(set(ladderlie.__all__) - read) == sorted(UNREAD_PUBLIC_NAMES)


# The exact layer and the report contract: standard library only.
EXACT_MODULES = ("scalars", "sparse", "opalg", "matrices", "catalog", "liecore", "contract",
                 "report")


def test_exact_modules_load_without_numpy_or_scipy():
    """A stub `ladderlie` package, whose `__init__` does not run, holds the
    path of the sources; the exact modules then load no float stack."""
    script = "\n".join([
        "import importlib, sys, types",
        "stub = types.ModuleType('ladderlie')",
        f"stub.__path__ = [{str(Path(ladderlie.__file__).parent)!r}]",
        "sys.modules['ladderlie'] = stub",
        f"for name in {EXACT_MODULES!r}:",
        "    importlib.import_module('ladderlie.' + name)",
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('numpy', 'scipy')))",
    ])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_report_imports_only_the_standard_library_and_two_exact_modules():
    tree = ast.parse(Path(report.__file__).read_text(encoding="utf-8"))
    absolute, relative = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                relative.add(node.module)
            else:
                absolute.add(node.module.partition(".")[0])
    assert absolute <= sys.stdlib_module_names
    assert relative == {"catalog", "opalg"}


def test_record_bench_trajectory_reads_both_formats(tmp_path):
    root = Path(__file__).parent.parent
    (tmp_path / "BENCHMARK.json").write_text((root / "BENCHMARK.json").read_text())
    names = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]]

    def run(scale, failed=0):
        return {"correct": True, "attempted": 10, "failed": failed,
                "metrics": {name: {"value": scale * (k + 1), "unit": "-"}
                            for k, name in enumerate(names)}}
    old = {"format": 1, "pr": 12, "end_to_end": {"w": run(1.0, failed=1)}}
    new = {"format": 2, "pr": 3, "end_to_end": {
        "w": {**run(2.0), "raw": {"wall_s": 0.125, "op_p50_ms": 7.5, "ref_samples": 3}},
        "v": run(4.0)}}
    for record in (old, new):
        (tmp_path / f"BENCH_{record['pr']}.json").write_text(json.dumps(record))
    lines = _load_tool("record_bench").trajectory(tmp_path).splitlines()
    assert (lines[0], lines[4], lines[5], len(lines)) == ("w", "", "v", 8)
    assert lines[1].split() == (["PR", "format", "wall_s", "[raw]", "setup_s", "peak_rss_mb",
                                 "op_p50_ms", "[raw]", "op_p75_ms", "failed/attempted"])
    assert lines[2].split() == ["3", "2", "2", "[0.125]", "4", "6", "8", "[7.5]", "10", "0/10"]
    assert lines[3].split() == ["12", "1", "1", "[-]", "2", "3", "4", "[-]", "5", "1/10"]
    assert [line.split()[0] for line in lines[6:]] == ["PR", "3"]
    # the recorded files: one row per file that holds the workload
    recorded = _load_tool("record_bench").trajectory(root)
    prs = sorted(int(p.stem.split("_")[1]) for p in root.glob("BENCH_*.json"))
    rows = recorded.split("\n\n")[0].splitlines()[2:]
    assert [int(row.split()[0]) for row in rows] == prs


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2


# ---------------------------------------------------------------------------
# fuzz: argv drawn from the parser's own actions
# ---------------------------------------------------------------------------


def _subparsers() -> dict:
    """{subcommand: its parser}, as build_parser() defines them."""
    parser = cli.build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# NaN, infinities, exponents past the float range, huge and negative integers,
# empty strings, non-ASCII digits (int() and float() accept them) and a
# literal past Python's integer digit limit.
_AWKWARD = st.one_of(
    st.sampled_from(("nan", "NaN", "inf", "-inf", "+inf", "1e400", "-1e400", "1e-400",
                     "", " ", "-0", "0x10", "1_0", "\u0663", "\uff11\uff16", "\U0001d7d2",
                     str(2 ** 64), str(-2 ** 63), "9" * 5000, "nosuch")),
    st.integers(-2 ** 80, 2 ** 80).map(str), st.floats().map(repr), st.text(max_size=6))
_NAMES = (*catalog.FAMILY_VARIANTS, *catalog.TEN_LABELS, catalog.AS_PRINTED)
# The slowest draw `_heavy` lets through is a default verify, about 0.1 s.
CASE_SECONDS = 5.0


def _values(action):
    """Draws for one argument: one of its choices (argparse refuses the rest),
    else a plausible value of its kind or an awkward one."""
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        plausible = st.integers(-3, 40).map(str)
    elif action.type is float:
        plausible = st.floats(-5, 5).map(repr)
    else:
        plausible = st.sampled_from(_NAMES)
    return st.one_of(plausible, _AWKWARD)


@st.composite
def _argv(draw):
    """One subcommand with a draw for each of its arguments, in any order, and
    now and then a stray token."""
    command, parser = draw(st.sampled_from(list(_subparsers().items())))
    groups = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            if action.nargs is None or draw(st.booleans()):
                groups.append([draw(_values(action))])
        elif draw(st.booleans()):
            flag = draw(st.sampled_from(action.option_strings))
            groups.append([flag] if action.nargs == 0 else [flag, draw(_values(action))])
    if draw(st.integers(0, 4)) == 0:
        groups.append([draw(_AWKWARD)])
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


def _heavy(argv) -> bool:
    """A verify above the default cutoff, or a wigner grid above 101 points a
    side: valid, but too slow to run on every draw."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = cli.build_parser().parse_args(argv)
    except SystemExit:
        return False
    if args.command == "verify":
        return VerifyConfig().fock_cutoff < args.fock_n <= MAX_FOCK_CUTOFF
    return args.command == "wigner" and 101 < args.n <= MAX_WIGNER_N


@settings(max_examples=100, deadline=None)
@given(argv=_argv())
def test_no_argv_ends_in_a_traceback(argv):
    assume(not _heavy(argv))
    # an exception escaping main() is a traceback at the console entry point;
    # here it fails the test by itself
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < CASE_SECONDS
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().strip()
