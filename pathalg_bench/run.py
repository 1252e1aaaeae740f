#!/usr/bin/env python3
"""Build and run the served-path benchmark from the root of a checkout.

Usage (from the repository root):
  python3 pathalg_bench/run.py --workload point_reads --seed 1 \
      --seconds 15 --trace 0

Configures and builds pathalg_bench/ (which builds the repository's library
and pathalg_serve from source) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set, then runs the pathalg_bench binary with
the same arguments. Build output goes to stderr, so the binary's last
stdout line (one JSON object) stays the last line. Each run also writes
its full result to <build dir>/results/<workload>-seed<N>-trace<T>.json,
and a traced run its spans to <build dir>/results/trace-<workload>.json.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark bounds itself well below this; the margin covers a stuck
# child, which is then killed with its whole process group.
RUN_TIMEOUT_S = 175


def build_dir() -> str:
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir: str) -> bool:
    if not os.path.exists(os.path.join(out_dir, "build.ninja")) and not \
            os.path.exists(os.path.join(out_dir, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(
        ["cmake", "--build", out_dir, "--target", "pathalg_bench",
         "pathalg_serve", "-j", jobs],
        stdout=sys.stderr).returncode == 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [os.path.join(out_dir, "pathalg_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", out, "--work-dir", results]
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
