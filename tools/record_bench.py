"""Record the benchmark of the current checkout as BENCH_<pr>.json.

    python3 tools/record_bench.py <pr>

Run from the root of a checkout, with nothing else running.  The script
runs `perfbench/run.py --workload all` for the end-to-end metrics, then
`perfbench/run.py --workload <w> --trace 1` for the per-layer metrics of
verify-default and verify-fock24, and writes BENCH_<pr>.json in the current
directory.  Every run uses run.py's defaults (seed 1, 42 s per workload).
It uses only the standard library.  The exit code is 0 when every run was
correct, 1 when a run reported wrong answers or a warning, and 2 when a
run could not be read.

The file holds one JSON object:

    {
      "format": 1,
      "pr": <pr>,
      "commit": "<git HEAD the checkout is on>",
      "dirty": <true if tracked files differ from that commit>,
      "end_to_end": {"<workload>": <run>, ...},   # all three workloads
      "per_layer": {"<workload>": <run>, ...},    # the two verify workloads
      "warnings": ["<run.py arguments>: <stderr line>", ...]
    }

where each <run> is

    {
      "environment": {...},   # run.py's "environment:" line for that run
      "correct": bool, "attempted": int, "failed": int,
      "metrics": {"<name>": {"value": number, "unit": "<unit>"}, ...}
    }

A warning is a line run.py printed to standard error, such as
"hook target ... not found" or "missing metric: ...".

Metric names and units are those of BENCHMARK.json.  End-to-end times are
at reference speed (perfbench/speedclock.py); per-layer times are raw.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = [sys.executable, "perfbench/run.py"]
TRACED = ("verify-default", "verify-fock24")
ENV_PREFIX = "environment: "


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def bench(warnings: list, *args: str) -> tuple:
    """Run perfbench/run.py; (environment lines, final JSON line).

    Its standard error lines are appended to `warnings`.
    """
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        final = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"error: no result from run.py {' '.join(args)}:\n{proc.stderr}",
              file=sys.stderr)
        raise SystemExit(2)
    warnings += [f"{' '.join(args)}: {line}" for line in proc.stderr.splitlines()
                 if line.strip()]
    return [json.loads(line[len(ENV_PREFIX):]) for line in lines
            if line.startswith(ENV_PREFIX)], final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record BENCH_<pr>.json")
    parser.add_argument("pr", type=int)
    args = parser.parse_args(argv)
    if not Path("perfbench/run.py").is_file():
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2

    warnings: list = []
    envs, results = bench(warnings, "--workload", "all")
    if len(envs) != len(results):
        print("error: one environment line per workload expected", file=sys.stderr)
        return 2
    end_to_end = {w: {"environment": env, **res}
                  for env, (w, res) in zip(envs, results.items())}
    per_layer = {}
    for workload in TRACED:
        envs, result = bench(warnings, "--workload", workload, "--trace", "1")
        per_layer[workload] = {"environment": envs[-1], **result}

    record = {"format": 1, "pr": args.pr, "commit": _git("rev-parse", "HEAD"),
              "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
              "end_to_end": end_to_end, "per_layer": per_layer, "warnings": warnings}
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    runs = list(end_to_end.values()) + list(per_layer.values())
    ok = all(r["correct"] for r in runs) and not warnings
    print(f"wrote {out}" + ("" if ok else " (a run was wrong or reported warnings)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
