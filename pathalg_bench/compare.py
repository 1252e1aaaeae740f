#!/usr/bin/env python3
"""Compare two sets of pathalg_bench results against BENCHMARK.json bounds.

Usage:
  python3 pathalg_bench/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are result files (schema pathalg-e2e-v1, written by
`pathalg_bench --out` and by run.py under .bench_build/results/) or
directories of them. Several files per side are reduced to the median of
each (workload, metric). Prints one row per (workload, metric) with both
medians, the change and the metric's bound from BENCHMARK.json, and exits:

  0  no metric got worse by more than its bound
  1  a regression, or a run on either side that failed a correctness check
  2  unreadable input, or the two sides ran on hosts of different shape
     (nproc, build type, compiler, or the median effective CPUs rounded):
     their numbers do not compare

Traced results carry per-layer metrics, which have no bound; they are
listed but never gate.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg: str) -> None:
    print(f"compare.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_side(path: str) -> list:
    paths = [path]
    if os.path.isdir(path):
        paths = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json") and not f.startswith("trace-"))
    runs = []
    for p in paths:
        try:
            with open(p) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"cannot read {p}: {e}")
        if data.get("schema") != "pathalg-e2e-v1":
            fail(f"{p} is not a pathalg-e2e-v1 result")
        runs.append(data)
    if not runs:
        fail(f"no results in {path}")
    return runs


def host_shape(runs: list) -> tuple:
    """nproc, build type and compiler must agree across a side's runs;
    effective CPUs are calibrated per run and drift, so the side's median
    is what gets rounded and compared."""
    fixed = {(r["host"]["nproc"], r["host"]["build_type"],
              r["host"]["compiler"]) for r in runs}
    if len(fixed) > 1:
        fail(f"runs of one side come from different hosts: {sorted(fixed)}")
    cpus = round(statistics.median(r["host"]["effective_cpus"] for r in runs))
    return fixed.pop() + (cpus,)


def medians(runs: list) -> dict:
    values = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            for name, m in result["metrics"].items():
                values.setdefault((workload, name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in values.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    try:
        with open(args.benchmark) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {args.benchmark}: {e}")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    base, new = load_side(args.base), load_side(args.new)
    if host_shape(base) != host_shape(new):
        fail("host shapes differ (nproc, build_type, compiler, "
             f"effective_cpus): {host_shape(base)} vs {host_shape(new)}")

    status = 0
    for side, runs in (("base", base), ("new", new)):
        for run in runs:
            for workload, result in run["workloads"].items():
                if not result["correct"]:
                    print(f"{side}: {workload} seed {run['seed']} failed "
                          f"{result['failed']} of {result['attempted']}")
                    status = 1

    b, n = medians(base), medians(new)
    print(f"{'workload':<18} {'metric':<44} {'base':>12} {'new':>12} "
          f"{'change':>8} {'bound':>6}")
    for key in sorted(set(b) | set(n)):
        workload, name = key
        if key not in b or key not in n:
            print(f"{workload:<18} {name:<44} "
                  f"{'only in ' + ('new' if key in n else 'base'):>26}")
            continue
        old, cur = b[key], n[key]
        change = (cur - old) / old if old else 0.0
        verdict = ""
        bound = bounds.get(name)
        if bound is not None:
            worse = change if bound["better"] == "lower" else -change
            if worse > bound["bound"]:
                verdict = "  << REGRESSION"
                status = max(status, 1)
        shown = f"{bound['bound']:.2f}" if bound else "-"
        print(f"{workload:<18} {name:<44} {old:>12.4f} {cur:>12.4f} "
              f"{change * 100:>+7.1f}% {shown:>6}{verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
