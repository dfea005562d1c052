"""Record the benchmark of the current checkout as BENCH_<pr>.json, or print
the trajectory across the recorded files.

    python3 tools/record_bench.py <pr>
    python3 tools/record_bench.py --trajectory

Run from the root of a checkout, with nothing else running.  The script
runs `perfbench/run.py --workload all` for the end-to-end metrics, then
`perfbench/run.py --workload <w> --trace 1` for the per-layer metrics of
verify-default and verify-fock24, and writes BENCH_<pr>.json in the current
directory.  Every run uses seed 1 and run.py's default of 42 s per workload.
It uses only the standard library.  The exit code is 0 when every run was
correct, 1 when a run reported wrong answers or a warning, and 2 when a
run could not be read.

The file holds one JSON object:

    {
      "format": 2,
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
      "metrics": {"<name>": {"value": number, "unit": "<unit>"}, ...},
      "raw": {                # end-to-end runs only
        "wall_s": number,     # median wall seconds of the timed phase
        "op_p50_ms": number,  # median milliseconds of one operation
        "ref_samples": number # median count of speed samples per repetition
      }
    }

"raw" holds the same timings as "metrics" before the rescaling to
reference speed, with the reference loops left out.  It is read from
.perfbench/result-<workload>-seed1-trace0.json, where run.py records every
repetition.  A phase shorter than a few sampling periods is rescaled from
few speed samples, so the two can disagree; both are kept.

A warning is a line run.py printed to standard error, such as
"hook target ... not found" or "missing metric: ...".

Format 1 (BENCH_6 to BENCH_8) is format 2 without "raw".

Metric names and units are those of BENCHMARK.json.  End-to-end times are
at reference speed (perfbench/speedclock.py); per-layer times are raw.

`--trajectory` reads every BENCH_*.json in the current directory (formats 1
and 2) and prints one table per workload, one row per file in PR order: the
end-to-end metrics of BENCHMARK.json, with the raw median in brackets beside
each one that "raw" holds ("-" in format 1), and failed/attempted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = [sys.executable, "perfbench/run.py", "--seed", "1"]
RESULTS = Path(".perfbench")
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


def raw_timings(workload: str) -> dict:
    """Raw medians of the untraced seed-1 run of `workload`, from the
    repetitions that run.py recorded."""
    path = RESULTS / f"result-{workload}-seed1-trace0.json"
    try:
        reps = json.loads(path.read_text())["repetitions"]
        return {"wall_s": statistics.median(r["wall_s"] for r in reps),
                "op_p50_ms": statistics.median(t * 1000.0 for r in reps for t in r["op_s"]),
                "ref_samples": statistics.median(r["ref_samples"] for r in reps)}
    except (OSError, ValueError, KeyError, TypeError, statistics.StatisticsError) as exc:
        print(f"error: cannot read raw timings from {path}: {exc!r}", file=sys.stderr)
        raise SystemExit(2)


def trajectory(root: Path) -> str:
    """The tables that `--trajectory` prints for the BENCH_*.json in `root`."""
    names = [m["name"] for m in
             json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]]
    records = sorted((json.loads(path.read_text()) for path in root.glob("BENCH_*.json")),
                     key=lambda record: record["pr"])
    with_raw = {name for r in records for run in r["end_to_end"].values()
                for name in run.get("raw", {})}

    def cell(value):
        return "-" if value is None else f"{value:.4g}"

    out = []
    for workload in dict.fromkeys(w for r in records for w in r["end_to_end"]):
        rows = [["PR", "format"] + [name + " [raw]" * (name in with_raw) for name in names]
                + ["failed/attempted"]]
        for record in records:
            run = record["end_to_end"].get(workload)
            if run is None:
                continue
            rows.append([str(record["pr"]), str(record["format"])]
                        + [cell(run["metrics"].get(name, {}).get("value"))
                           + f" [{cell(run.get('raw', {}).get(name))}]" * (name in with_raw)
                           for name in names]
                        + [f"{run['failed']}/{run['attempted']}"])
        widths = [max(map(len, column)) for column in zip(*rows)]
        out += [workload] + ["  " + "  ".join(c.rjust(w) for c, w in zip(row, widths))
                             for row in rows] + [""]
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record BENCH_<pr>.json")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("pr", type=int, nargs="?")
    which.add_argument("--trajectory", action="store_true",
                       help="print the end-to-end metrics of every BENCH_*.json")
    args = parser.parse_args(argv)
    if args.trajectory:
        print(trajectory(Path(".")), end="")
        return 0
    if not Path("perfbench/run.py").is_file():
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2

    warnings: list = []
    envs, results = bench(warnings, "--workload", "all")
    if len(envs) != len(results):
        print("error: one environment line per workload expected", file=sys.stderr)
        return 2
    end_to_end = {w: {"environment": env, **res, "raw": raw_timings(w)}
                  for env, (w, res) in zip(envs, results.items())}
    per_layer = {}
    for workload in TRACED:
        envs, result = bench(warnings, "--workload", workload, "--trace", "1")
        per_layer[workload] = {"environment": envs[-1], **result}

    record = {"format": 2, "pr": args.pr, "commit": _git("rev-parse", "HEAD"),
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
