#!/usr/bin/env python3
"""Build and run the PProx end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload get-direct --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the repository's src/ from source) into
.bench_build/, or into $CARGO_TARGET_DIR when that is set, then runs one
workload. The last line of stdout is the benchmark's JSON result; build
output goes to stderr. Spans of a traced run are written to
<build dir>/traces/<workload>-seed<n>.jsonl.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("get-direct", "mix-shuffled", "get-tcp")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    bin_dir = os.path.join(out_dir, "perfbench")
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(bin_dir, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bin_dir])
    steps.append(["cmake", "--build", bin_dir, "-j", jobs,
                  "--target", "pprox_perfbench"])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(bin_dir, "pprox_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
