"""What a report looks like: the `verify` settings, the four statuses and the
JSON envelope that every JSON report shares.

FAIL sets the exit code; WARN (an as-printed variant's finding) and NOTE (a
documented discrepancy) do not.  Standard library only, besides the exact
`catalog` and `opalg`, so the settings and renderers load without numpy.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .catalog import AS_PRINTED, CANONICAL
from .opalg import check_integer_fields

PASS, WARN, NOTE, FAIL = "PASS", "WARN", "NOTE", "FAIL"

SCHEMA_VERSION = 1

# The Fock suite forms no cutoff^2 x cutoff^2 matrix, but the protected commutators are
# still dense (K x cutoff^2) @ (cutoff^2 x K) products over K protected states (up to
# about cutoff^2 / 2), one per pair: the 28 of them would cost about 3 * 10^11
# multiply-adds at 64.  The 17 pairs with S0 or J3 take none: those two are diagonal
# with real entries, so each entry of their products has one nonzero term and is
# an elementwise scaling, with the same bits as the BLAS product under any kernel.
MAX_FOCK_CUTOFF = 32

VARIANT_POLICIES = (CANONICAL, AS_PRINTED, "both")

# Smallest `--guard`: a quadratic generator moves a protected state up to 2
# quanta, so a smaller band lets a product reach the truncation edge.
MIN_GUARD = 2


@dataclass(frozen=True)
class VerifyConfig:
    fock_cutoff: int = 16
    guard: int = 4
    tolerance: float = 1e-10
    variant_policy: str = "both"    # one of VARIANT_POLICIES

    def __post_init__(self):
        check_integer_fields(fock_cutoff=self.fock_cutoff, guard=self.guard)
        if self.fock_cutoff > MAX_FOCK_CUTOFF:
            raise ValueError(f"fock cutoff {self.fock_cutoff} exceeds the ceiling of "
                             f"{MAX_FOCK_CUTOFF}")
        if self.guard < MIN_GUARD:
            raise ValueError(f"guard must be at least {MIN_GUARD}: a quadratic generator "
                             "moves a protected state up to 2 quanta, onto the "
                             "truncation edge")
        if self.fock_cutoff < self.guard + 2:
            raise ValueError("fock cutoff must be at least guard + 2")
        if not 0 < self.tolerance < float("inf"):
            raise ValueError("tolerance must be positive and finite")
        if self.variant_policy not in VARIANT_POLICIES:
            raise ValueError(f"variant policy must be {', '.join(VARIANT_POLICIES[:-1])} "
                             f"or {VARIANT_POLICIES[-1]}")

    @property
    def run_canonical(self) -> bool:
        return self.variant_policy in (CANONICAL, "both")

    @property
    def run_printed(self) -> bool:
        return self.variant_policy in (AS_PRINTED, "both")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    status: str
    detail: str = ""


def exit_code_for(checks) -> int:
    return 1 if any(c.status == FAIL for c in checks) else 0


def _status_counts(checks) -> dict:
    counts = Counter(c.status for c in checks)
    return {s: counts[s] for s in (PASS, WARN, NOTE, FAIL)}


def render_verify_text(config: VerifyConfig, checks) -> str:
    lines = ["verification report",
             f"config: fock-n={config.fock_cutoff} guard={config.guard} "
             f"tolerance={config.tolerance:g} variant={config.variant_policy}",
             ""]
    for c in checks:
        lines.append(f"[{c.status}] {c.suite}: {c.name}")
        if c.detail:
            lines.append(f"       {c.detail}")
    counts = _status_counts(checks)
    lines.append("")
    lines.append(f"summary: {counts[PASS]} pass, {counts[WARN]} warn, "
                 f"{counts[NOTE]} note, {counts[FAIL]} fail")
    return "\n".join(lines) + "\n"


def render_json(payload: dict) -> str:
    """A JSON report: `schema` first, then `payload`, indented, newline-terminated."""
    return json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2) + "\n"


def render_verify_json(config: VerifyConfig, checks) -> str:
    return render_json({
        "config": {
            "fock_cutoff": config.fock_cutoff,
            "guard": config.guard,
            "tolerance": config.tolerance,
            "variant": config.variant_policy,
        },
        "checks": [{"suite": c.suite, "name": c.name,
                    "status": c.status, "detail": c.detail} for c in checks],
        "summary": {s.lower(): n for s, n in _status_counts(checks).items()},
    })
