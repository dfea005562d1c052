"""The exact proof alone: its rows head the default `verify` report, and its
rendered report is a golden that holds under every BLAS kernel."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ladderlie import proof
from ladderlie.report import CheckResult, VerifyConfig, render_verify_json, render_verify_text
from ladderlie.verify import run_verify

GOLDEN = Path(__file__).parent / "golden"

PROOF_SUITES = ("ccr", "catalog", "closure", "contraction")

# To regenerate after an intended report change, write `_rendered()` to the two files.
PROOF_GOLDENS = {"proof-both.txt": render_verify_text, "proof-both.json": render_verify_json}


def _proof_checks(config):
    return [CheckResult(suite, *row) for suite in PROOF_SUITES
            for row in getattr(proof, f"run_{suite}_suite")(config)]


def _rendered() -> dict:
    """Golden file name -> the proof suites at the default config, rendered."""
    config = VerifyConfig()
    checks = _proof_checks(config)
    return {name: render(config, checks) for name, render in PROOF_GOLDENS.items()}


def test_proof_rows_are_the_head_of_the_default_verify_report():
    full = run_verify(VerifyConfig())
    checks = _proof_checks(VerifyConfig())
    assert (len(checks), len(full)) == (49, 64)
    assert full[:len(checks)] == checks
    assert {c.suite for c in full[len(checks):]} == {"fock", "phspace"}


@pytest.mark.parametrize("name", sorted(PROOF_GOLDENS))
def test_proof_report_matches_golden_bytes(name):
    assert _rendered()[name] == (GOLDEN / name).read_text(encoding="utf-8")


_OTHER_KERNEL = """
import sys
sys.path.insert(0, sys.argv[1])
from test_proof import GOLDEN, _rendered
for name, text in _rendered().items():
    assert text == (GOLDEN / name).read_text(encoding="utf-8"), name
"""


def test_proof_golden_holds_under_another_blas_kernel():
    # the contraction suite's O(eps^2) row is the proof's one float figure: each
    # entry of C G C^-1 has one nonzero term, so no kernel's summation order moves it
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _OTHER_KERNEL, str(here)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (threads, done.stderr)
