"""Tests of the benchmark itself: oracle, correctness checks and trace hooks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import speedclock  # noqa: E402
import worker  # noqa: E402

sympy = pytest.importorskip("sympy")
from sympy.physics.quantum import Dagger  # noqa: E402
from sympy.physics.quantum.boson import BosonOp  # noqa: E402
from sympy.physics.quantum.operatorordering import normal_ordered_form  # noqa: E402

ONE = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def _sympy_terms(expr, ops) -> dict:
    """sympy normal-ordered polynomial -> {(cdeg, adeg): int coefficient}."""
    out = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        coeff, factors = term.as_coeff_mul()
        cdeg = [0] * len(ops)
        adeg = [0] * len(ops)
        for factor in factors:
            base, exp = factor.as_base_exp()
            for m, op in enumerate(ops):
                if base == op:
                    adeg[m] += int(exp)
                elif base == Dagger(op):
                    cdeg[m] += int(exp)
        key = (tuple(cdeg), tuple(adeg))
        out[key] = out.get(key, 0) + int(coeff)
    return out


@pytest.mark.parametrize("d,c", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (0, 2), (2, 0)])
def test_oracle_single_mode_matches_sympy(d, c):
    a = BosonOp("a")
    want = _sympy_terms(normal_ordered_form(a ** d * Dagger(a) ** c), [a])
    got = oracle.monomial_product(((0,), (d,)), ((c,), (0,)))
    assert got == want


def test_oracle_two_modes_matches_sympy():
    a, b = BosonOp("a"), BosonOp("b")
    expr = Dagger(a) * a ** 2 * b * Dagger(a) ** 2 * Dagger(b) ** 2 * b
    want = _sympy_terms(normal_ordered_form(expr, independent=True), [a, b])
    got = oracle.monomial_product(((1, 0), (2, 1)), ((2, 2), (0, 1)))
    assert got == want


def test_oracle_commutator_of_ladder_operators():
    a = {((0,), (1,)): ONE}
    ad = {((1,), (0,)): ONE}
    assert oracle.commutator(a, ad) == {((0,), (0,)): ONE}


def test_workload_inputs_repeat_per_seed_and_differ_across_seeds():
    assert worker.make_pairs(3) == worker.make_pairs(3)
    assert worker.make_pairs(3) != worker.make_pairs(4)
    degrees = {max(max(c), max(d)) for pair in worker.make_pairs(3)
               for poly in pair for c, d in poly}
    assert max(degrees) == worker.MAX_DEGREE


def test_seed_draws_coefficient_values_but_not_shapes_or_nonzero_patterns():
    def layout(seed):
        return sorted(sorted((key, tuple(part != 0 for part in q)) for key, q in poly.items())
                      for pair in worker.make_pairs(seed) for poly in pair)
    assert layout(3) == layout(4)


def test_speed_clock_leaves_out_its_loops_and_rescales_by_local_loop_time():
    clock = speedclock.SpeedClock()
    # loops of 2 ms, one 40 ms outlier that the median window damps
    clock.samples = [(0.0, 0.002), (0.102, 0.104), (0.204, 0.244), (0.344, 0.346),
                     (0.446, 0.448)]
    clock._smooth()
    assert clock.wall(0.0, 0.448) == pytest.approx(0.4)
    assert clock.wall(0.05, 0.15) == pytest.approx(0.098)
    assert clock.scaled(0.0, 0.448) == pytest.approx(0.4 * speedclock.REF_S / 0.002)


def test_speed_clock_samples_while_the_workload_runs():
    with speedclock.SpeedClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * speedclock.PERIOD_S:
            pass
        end = time.perf_counter()
    assert len(clock.samples) >= 4
    assert 0 < clock.wall(start, end) < end - start
    assert clock.scaled(start, end) > 0


def _small_batch():
    import ladderlie
    pairs = worker.make_pairs(7)
    light = sorted(pairs, key=lambda p: sum(sum(c) + sum(d) for poly in p for c, d in poly))[:3]
    results = [ladderlie.commutator(ladderlie.parse_expr(worker.poly_text(a), worker.MODES),
                                    ladderlie.parse_expr(worker.poly_text(b), worker.MODES))
               for a, b in light]
    return light, results


def test_commutator_check_passes_ladderlie_results():
    pairs, results = _small_batch()
    assert worker.count_commutator_failures(results, pairs) == 0


def test_perturbed_coefficient_counts_as_failure():
    import ladderlie
    pairs, results = _small_batch()
    target = results[1]
    mono = target.terms[0]
    bump = ladderlie.OperatorExpr(target.modes, {(mono.cdeg, mono.adeg): Fraction(1, 7)})
    corrupted = [results[0], target + bump, results[2]]
    assert worker.count_commutator_failures(corrupted, pairs) == 1
    assert worker.count_commutator_failures([results[0], ValueError("x"), results[2]],
                                            pairs) == 1


def _report(rows) -> str:
    return json.dumps({"checks": [{"suite": s, "name": n, "status": st, "detail": ""}
                                  for s, n, st in rows]})


def test_verify_check_accepts_recorded_statuses():
    assert worker.check_verify(_report(worker.EXPECTED_VERIFY), 0) == (64, 0)


def test_flipped_verify_status_counts_as_failure():
    rows = list(worker.EXPECTED_VERIFY)
    suite, name, status = rows[5]
    rows[5] = (suite, name, "FAIL" if status == "PASS" else "PASS")
    assert worker.check_verify(_report(rows), 0) == (64, 1)
    assert worker.check_verify(_report(worker.EXPECTED_VERIFY[:-1]), 0) == (64, 1)
    assert worker.check_verify(_report(worker.EXPECTED_VERIFY), 1) == (64, 64)


def test_expected_statuses_are_the_recorded_summary():
    statuses = [s for _, _, s in worker.EXPECTED_VERIFY]
    assert [statuses.count(s) for s in ("PASS", "WARN", "NOTE", "FAIL")] == [56, 7, 1, 0]


HOOK_PROBE = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import hooks
    hooks.SPAN_TARGETS["liecore.gone"] = ["ladderlie.liecore:no_such_function"]
    import ladderlie.cli as cli
    tracer = hooks.Tracer()
    tracer.install()
    import io, contextlib
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["table", "sp2-oscillator"])
    ccr = cli.SUITES[0][1](cli.VerifyConfig())
    print(json.dumps({"rc": rc, "metrics": tracer.metrics(1.0), "missing": tracer.missing,
                      "suite_wrapped": hasattr(cli.SUITES[0][1], "__wrapped__"),
                      "ccr_checks": len(ccr)}))
""")


def test_hooks_reach_calls_made_from_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", HOOK_PROBE, str(BENCH)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    metrics = probe["metrics"]
    assert probe["rc"] == 0
    # cli imported structure_constants and jacobi_check by name
    assert metrics["liecore.structure_constants.calls"] == 1
    assert metrics["liecore.jacobi_check.calls"] == 1
    assert metrics["liecore.expand_in_basis.calls"] >= 3
    assert metrics["catalog.build.calls"] >= 1
    assert metrics["scalars.mul.calls"] > 0 and metrics["scalars.add.calls"] > 0
    # the refilled SUITES table reaches the suite span
    assert probe["suite_wrapped"] and probe["ccr_checks"] == 5
    assert metrics["cli.suite.ccr_s"] > 0
    assert metrics["opalg.commutator.calls"] >= 8
    # a vanished target is reported, not fatal
    assert probe["missing"] == ["ladderlie.liecore:no_such_function"]
    assert not any(name.startswith("liecore.gone") for name in metrics)
