"""One repetition of a workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload verify-default --seed 1 --trace 0

`run.py` starts this with PYTHONPATH pointing at the checkout's `src`.  The
timed phase goes through the public entry points only: `ladderlie.cli.main`
for the verify workloads and `ladderlie.commutator` for the normal-order
batch.  Outputs are checked after the timed phase.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from speedclock import SpeedClock  # noqa: E402

VERIFY_ARGS = {
    "verify-default": ["--fock-n", "16", "--guard", "4", "--variant", "both"],
    "verify-fock24": ["--fock-n", "24", "--guard", "6"],
}
NORMAL_ORDER = "normal-order-deg4"
WORKLOADS = tuple(VERIFY_ARGS) + (NORMAL_ORDER,)

# The (suite, name, status) list `verify` printed when the benchmark was
# defined; both verify configs produce the same list.
EXPECTED_VERIFY = [tuple(row) for row in
                   json.loads((HERE / "expected_verify.json").read_text())]

# Normal-order batch.  Rewriting cost grows steeply with the degrees (the
# product a1^4 a2^4 * ad1^4 ad2^4 has 209^2 = 43681 contraction patterns,
# a1 * ad1 has 2), and a coefficient costs more the more of its four
# Q(i, sqrt2) components are nonzero.  A seed that drew either would set the
# batch time more than the code does.
# The degree shapes and the nonzero pattern of every coefficient are
# therefore one fixed deck, drawn once with DECK_SEED; the workload seed
# draws the coefficient values, which operand comes first and the order of
# the batch.
DECK_SEED = 20191108
DECK_SIZE = 45
MODES = 2
TERMS = 3
MAX_DEGREE = 4


def _shape(rng: random.Random) -> list:
    keys = set()
    while len(keys) < TERMS:
        keys.add((tuple(rng.randint(0, MAX_DEGREE) for _ in range(MODES)),
                  tuple(rng.randint(0, MAX_DEGREE) for _ in range(MODES))))
    return sorted(keys)


def _nonzero_pattern(rng: random.Random) -> tuple:
    """Which of the four components of a coefficient are nonzero; never none."""
    while True:
        pattern = tuple(rng.random() < 0.5 for _ in range(4))
        if any(pattern):
            return pattern


def deck() -> list:
    """[(shape_a, shape_b)], each shape a sorted list of ((cdeg, adeg), pattern)."""
    rng = random.Random(DECK_SEED)
    shapes = [(_shape(rng), _shape(rng)) for _ in range(DECK_SIZE)]
    return [tuple([(key, _nonzero_pattern(rng)) for key in shape] for shape in pair)
            for pair in shapes]


def _coefficient(rng: random.Random, pattern: tuple) -> tuple:
    """Element of Q(i, sqrt2) as four Fractions, nonzero where `pattern` says."""
    return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
                 if nonzero else Fraction(0) for nonzero in pattern)


def _term_text(cdeg, adeg, q) -> str:
    factors = [f"({oracle.render(q)})"]
    factors += [f"ad{m + 1}^{k}" for m, k in enumerate(cdeg) if k]
    factors += [f"a{m + 1}^{k}" for m, k in enumerate(adeg) if k]
    return "*".join(factors)


def make_pairs(seed: int) -> list:
    """Seeded batch: [(poly_a, poly_b)], each poly a dict {(cdeg, adeg): q}."""
    rng = random.Random(seed)
    pairs = []
    for shape_a, shape_b in deck():
        a = {key: _coefficient(rng, pattern) for key, pattern in shape_a}
        b = {key: _coefficient(rng, pattern) for key, pattern in shape_b}
        pairs.append((b, a) if rng.random() < 0.5 else (a, b))
    rng.shuffle(pairs)
    return pairs


def poly_text(poly: dict) -> str:
    return " + ".join(_term_text(c, d, q) for (c, d), q in sorted(poly.items()))


def expr_terms(expr) -> dict:
    """OperatorExpr -> {(cdeg, adeg): coefficient text}.

    Compared as printed text, the exact form the golden reports pin, so the
    check does not depend on how ladderlie stores its scalars.
    """
    return {(tuple(m.cdeg), tuple(m.adeg)): str(m.coeff) for m in expr.terms}


def count_commutator_failures(results: list, pairs: list) -> int:
    """Results that raised or differ from the closed-form oracle."""
    failed = 0
    for got, (a, b) in zip(results, pairs):
        want = {key: oracle.render(q) for key, q in oracle.commutator(a, b).items()}
        failed += isinstance(got, Exception) or expr_terms(got) != want
    return failed


def check_verify(report: str, exit_code: int) -> tuple:
    """(attempted, failed): one operation per expected check."""
    attempted = len(EXPECTED_VERIFY)
    if exit_code != 0:
        return attempted, attempted
    try:
        rows = [(c["suite"], c["name"], c["status"]) for c in json.loads(report)["checks"]]
    except (ValueError, KeyError, TypeError):
        return attempted, attempted
    failed = sum(1 for k, want in enumerate(EXPECTED_VERIFY)
                 if k >= len(rows) or rows[k] != want)
    return attempted, failed + max(0, len(rows) - attempted)


def run_verify(workload: str, clock) -> dict:
    from ladderlie import cli
    report = io.StringIO()
    with clock or contextlib.nullcontext():
        start = time.perf_counter()
        with contextlib.redirect_stdout(report):
            try:
                exit_code = cli.main(["verify", "--format", "json", *VERIFY_ARGS[workload]])
            except Exception as exc:  # a crash fails every check
                print(f"verify raised {exc!r}", file=sys.stderr)
                exit_code = None
        end = time.perf_counter()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed = check_verify(report.getvalue(), exit_code)
    return {"intervals": [(start, end)], "wall": (start, end), "rss_kb": rss,
            "attempted": attempted, "failed": failed}


def run_normal_order(seed: int, clock) -> dict:
    import ladderlie
    pairs = make_pairs(seed)
    exprs = [(ladderlie.parse_expr(poly_text(a), MODES), ladderlie.parse_expr(poly_text(b), MODES))
             for a, b in pairs]
    results, intervals = [], []
    now = time.perf_counter
    with clock or contextlib.nullcontext():
        start = now()
        for a, b in exprs:
            t = now()
            try:
                results.append(ladderlie.commutator(a, b))
            except Exception as exc:  # a raising call is one failed operation
                print(f"commutator raised {exc!r}", file=sys.stderr)
                results.append(exc)
            intervals.append((t, now()))
        end = now()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"intervals": intervals, "wall": (start, end), "rss_kb": rss,
            "attempted": len(pairs), "failed": count_commutator_failures(results, pairs)}


def timings(rep: dict, clock) -> dict:
    """Wall and per-operation seconds; with a clock, also at reference speed.

    With a clock the wall seconds leave out its reference loops.
    """
    intervals = [rep.pop("wall")] + rep.pop("intervals")
    if clock is None:
        wall = [b - a for a, b in intervals]
    else:
        wall = [clock.wall(a, b) for a, b in intervals]
    rep["wall_s"], rep["op_s"] = wall[0], wall[1:]
    if clock is not None:
        scaled = [clock.scaled(a, b) for a, b in intervals]
        rep["ref_wall_s"], rep["ref_op_s"] = scaled[0], scaled[1:]
        rep["ref_samples"] = len(clock.samples)
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="file for the raw spans (traced run)")
    args = parser.parse_args(argv)

    import ladderlie
    import numpy
    src = (ROOT / "src").resolve()
    if Path(ladderlie.__file__).resolve().parent.parent != src:
        print(f"error: imported ladderlie from {ladderlie.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from hooks import Tracer
        import ladderlie.cli  # noqa: F401  (hooks rebind names cli imported)
        tracer = Tracer()
        tracer.install()

    # The traced run times raw spans, so only the untraced run samples host speed.
    clock = None if args.trace else SpeedClock()
    if args.workload == NORMAL_ORDER:
        rep = run_normal_order(args.seed, clock)
    else:
        rep = run_verify(args.workload, clock)
    rep = timings(rep, clock)

    if tracer is not None:
        rep["layers"] = tracer.metrics(rep["wall_s"])
        rep["missing"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
    rep["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
