"""Benchmark for ladderlie: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from its `src`, so
nothing needs installing.  Each repetition of a workload runs in a fresh
process (worker.py), one at a time.  With --trace 0 the run repeats the
workload while the next repetition is expected to finish inside --seconds
(at least once) and reports medians of times taken at reference speed
(speedclock.py), which takes out much of the host's own speed drift.  With
--trace 1 it runs the workload once untraced and once traced, and reports
the traced run's layers; the difference of the two raw wall times is
`trace.overhead_s`.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A copy of each result, with the environment
it ran in, is written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from worker import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170        # a run must end within 180 s
SETUP_REPEATS = 5
REPETITION_KEYS = ("wall_s", "op_s", "ref_wall_s", "ref_op_s", "ref_samples", "rss_kb")


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def _child(cmd: list, deadline: float) -> str:
    """Run one child to completion (or kill it at the deadline); its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd[1:3]))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:])} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{err.strip()}")
    if err.strip():
        print(err.strip(), file=sys.stderr)
    return out


def measure_setup(deadline: float) -> float:
    """Median time, in fresh processes, to import ladderlie and ladderlie.cli.

    Each import is timed at reference speed (speedclock.py).
    """
    code = (f"import sys, time; sys.path.append({str(HERE)!r})\n"
            "from speedclock import SpeedClock\n"
            "with SpeedClock() as clock:\n"
            "    t = time.perf_counter(); import ladderlie, ladderlie.cli; end = time.perf_counter()\n"
            "print(clock.scaled(t, end))")
    cmd = [sys.executable, "-c", code]
    _child(cmd, deadline)        # first import compiles the bytecode cache
    return statistics.median(float(_child(cmd, deadline)) for _ in range(SETUP_REPEATS))


def host_probe_s() -> float:
    """Time of a fixed pure-Python loop: shows a slow or contended host."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - start


def run_worker(workload: str, seed: int, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
    lines = _child(cmd, deadline).strip().splitlines()
    if not lines:
        raise BenchError(f"worker for {workload} printed nothing")
    return json.loads(lines[-1])


def quantile(values: list, q: float) -> float:
    """Linear-interpolation quantile; a single value is its own quantile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run(workload: str, seed: int, seconds: int, trace: int, specs: list) -> dict:
    """One benchmark run; `specs` are the BENCHMARK.json metrics to report."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    env = {"python": sys.version.split()[0], "nproc": nproc(),
           "loadavg_start": list(os.getloadavg()), "host_probe_s": host_probe_s()}
    OUT.mkdir(exist_ok=True)

    reps = []
    if trace:
        reps.append(run_worker(workload, seed, 0, deadline))
        reps.append(run_worker(workload, seed, 1, deadline))
    else:
        setup_s = measure_setup(deadline)
        timed_start = time.monotonic()
        while True:
            rep_start = time.monotonic()
            reps.append(run_worker(workload, seed, 0, deadline))
            now = time.monotonic()
            if now - timed_start + (now - rep_start) > seconds:
                break

    env.update(reps[-1]["env"])
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if trace:
        for target in reps[1]["missing"]:
            print(f"hook target {target} not found", file=sys.stderr)
        values = dict(reps[1]["layers"])
        values["trace.overhead_s"] = reps[1]["wall_s"] - reps[0]["wall_s"]
    else:
        op_ms = [t * 1000.0 for r in reps for t in r["ref_op_s"]]
        values = {
            "wall_s": statistics.median(r["ref_wall_s"] for r in reps),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(r["rss_kb"] / 1024.0 for r in reps),
            "op_p50_ms": quantile(op_ms, 0.50),
            "op_p75_ms": quantile(op_ms, 0.75),
        }
    metrics = {}
    for spec in specs:
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        else:
            print(f"missing metric: {spec['name']}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "result": result,
              "repetitions": [{key: r[key] for key in REPETITION_KEYS if key in r}
                              for r in reps]}
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("environment: " + json.dumps(env))
    print(f"{workload}: {len(reps)} repetition(s), raw wall_s median "
          f"{statistics.median(r['wall_s'] for r in reps):.4g}, failed_ratio "
          f"{failed / attempted:.4g} ({failed}/{attempted})")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ladderlie benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ladderlie" / "__init__.py").is_file():
        print(f"error: no ladderlie sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer" if args.trace else "end_to_end"]
    try:
        if args.workload != "all":
            print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace, specs)))
            return 0
        results = {}
        for workload in WORKLOADS:
            results[workload] = res = run(workload, args.seed, args.seconds, args.trace, specs)
            for name, metric in res["metrics"].items():
                print(f"  {workload:18s} {name:42s} {metric['value']:14.6g} {metric['unit']}")
            print(f"  {workload:18s} {'failed_ratio':42s} "
                  f"{res['failed'] / res['attempted']:14.6g} ratio")
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
