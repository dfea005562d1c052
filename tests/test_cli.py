"""End-to-end checks of the command-line driver."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from ladderlie import catalog, cli, focknum, phspace
from ladderlie.catalog import two_mode_oscillator
from ladderlie.cli import MAX_FOCK_CUTOFF, MAX_WIGNER_N, VerifyConfig, main
from ladderlie.opalg import parse_expr
from ladderlie.verify import render_json, run_fock_suite

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
    bracket = focknum.commutator

    def perturbed(a, b):
        return bracket(a, b) + bump if (a, b) == pair else bracket(a, b)
    monkeypatch.setattr(focknum, "commutator", perturbed)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    at = next(k for k, line in enumerate(lines) if "protected commutators" in line)
    assert lines[at].startswith("[FAIL]")
    assert lines[at + 1].endswith(
        "max deviation 6.000e-03 at [J1, K3], row |6, 5>, column |5, 6>")


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


def test_dump_reports_covers_every_registry_family():
    path = Path(__file__).parent.parent / "tools" / "dump_reports.py"
    spec = importlib.util.spec_from_file_location("dump_reports", path)
    dump_reports = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump_reports)
    cases = set(dump_reports.cases())
    for command in ("table", "catalog"):
        for name, variants in catalog.FAMILY_VARIANTS.items():
            for variant in variants:
                for fmt in ("text", "json"):
                    assert (command, name, "--variant", variant, "--format", fmt) in cases
        for name, variant in (("nosuch", "canonical"), ("sp4", "nosuch"),
                              ("poincare", "nosuch")):
            assert (command, name, "--variant", variant, "--format", "text") in cases


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2
