#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload briefly, get-tcp included, untraced and traced, and
checks that the runs are valid and the trace adds up:
  * every run is correct, with no failed request;
  * every metric named in BENCHMARK.json is reported, end-to-end ones > 0;
  * fail_ratio = 0 and ia.pending_end = 0 (no k_u left parked);
  * every traced request has every hop span (trace.coverage = 1);
  * the stage medians add up to the end-to-end median within 10%;
  * one UA ecall per request at S = 0, and at most 1.5/S at S > 1;
  * both TCP hops were measured (net.* > 0), on every workload.

Usage (from the repository root): python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHUFFLE = {"get-direct": 0, "mix-shuffled": 32, "get-tcp": 0}
SECONDS = "5"


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise AssertionError("%s trace=%d exited %d"
                             % (workload, trace, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def check(ok, what):
        if not ok:
            problems.append(what)

    for workload in SHUFFLE:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(workload, trace)
            tag = "%s trace=%d: " % (workload, trace)
            check(result["correct"], tag + "run not correct")
            check(result["failed"] == 0, tag + "%d failed" % result["failed"])
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            for metric in names:
                check(metric["name"] in metrics,
                      tag + "missing " + metric["name"])
            if trace == 0:
                for metric in names:
                    check(metrics.get(metric["name"], 0) > 0,
                          tag + metric["name"] + " is not positive")
                continue
            check(metrics["fail_ratio"] == 0, tag + "fail_ratio != 0")
            check(metrics["ia.pending_end"] == 0, tag + "k_u left parked")
            check(metrics["net.client_hop_us"] > 0
                  and metrics["net.ua_ia_hop_us"] > 0, tag + "no TCP hops")
            check(metrics["trace.coverage"] == 1, tag + "spans missing")
            check(metrics["trace.stage_sum_err"] <= 0.10,
                  tag + "stages do not add up: %.3f"
                  % metrics["trace.stage_sum_err"])
            s = SHUFFLE[workload]
            ecalls = metrics["ua.ecalls_per_req"]
            if s <= 1:
                check(ecalls == 1, tag + "ua.ecalls_per_req %.4f != 1" % ecalls)
            else:
                check(ecalls <= 1.5 / s,
                      tag + "ua.ecalls_per_req %.4f > 1.5/S" % ecalls)
        print("ok  " + workload)
    for problem in problems:
        print("FAIL " + problem)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
