#!/usr/bin/env python3
"""Paired bench gate: a parent tree against a change tree, on one host.

Usage: bench_gate.py PARENT_TREE CHANGE_TREE OUT_DIR

`scripts/check.sh --bench [BASE]` extracts BASE into build-bench/ and calls
this with the working tree as the change. Each side is measured with its
own code, in alternating pairs (parent first on even pairs, change first on
odd ones), so a slower host moves both sides and only a slower build shows:

  * every BENCHMARK.json workload: PAIRS runs per side through the side's
    own perfbench/run.py, seeds 1..PAIRS, the spec's run_seconds, untraced;
  * bench_crypto (Release): PAIRS whole-binary runs per side at
    --benchmark_min_time=CRYPTO_MIN_TIME.

Each (workload, end-to-end metric) is judged against its BENCHMARK.json
bound, each crypto series against CRYPTO_BOUND, by judge(). Everything
written (builds, run logs, gate.json with every sample) lands in OUT_DIR.

Exit status: 0 pass, 1 FAIL, 3 no FAIL but some row unresolved.
"""

import json
import os
import subprocess
import sys

PAIRS = 10
CRYPTO_MIN_TIME = "0.1"
CRYPTO_BOUND = 0.15


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def judge(parent, change, bound, better="lower"):
    """The gate's rule for one metric's samples: returns its table row.

    worse is the change median's move against the parent median in the bad
    direction; spread is the parent's (Q3 - Q1) / median. FAIL when worse >
    bound and either the parent is tight (spread <= bound) or every change
    run is worse than every parent run; otherwise a spread past the bound
    cannot resolve a move of bound size, and the row reads unresolved.
    """
    sign = 1 if better == "lower" else -1
    p_med, c_med = quantile(parent, 0.5), quantile(change, 0.5)
    row = {"bound": bound, "parent": p_med, "change": c_med,
           "move": 0.0, "spread": 0.0, "verdict": "FAIL"}
    if p_med <= 0:  # no scale for a move: the parent's runs are broken
        return row
    worse = sign * (c_med - p_med) / p_med
    spread = (quantile(parent, 0.75) - quantile(parent, 0.25)) / p_med
    dominated = all(sign * (c - p) > 0 for c in change for p in parent)
    if worse > bound and (spread <= bound or dominated):
        verdict = "FAIL"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "ok"
    row.update(move=c_med / p_med - 1, spread=spread, verdict=verdict)
    return row


def failed_share(runs):
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def why_incorrect(run):
    """Why perfbench marked a run correct: false: the `invalid run:` lines of
    its validity guards, and the failed answers if there were any, with the
    run's log."""
    reasons = list(run["invalid"])
    if run["failed"] or not reasons:
        reasons.append("failed %d of %d" % (run["failed"], run["attempted"]))
    return "seed %d: %s (log: %s)" % (run["seed"], "; ".join(reasons),
                                      run["log"])


def judge_workload(end_to_end, parent_runs, change_runs):
    """Returns (rows, problems): a judge() row per end-to-end metric, keyed by
    name, and the FAIL reasons that belong to no metric (correctness, failed
    share). An incorrect-run reason lists each such run's why_incorrect()
    on the lines under it."""
    problems = []
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        wrong = [r for r in runs if not r["correct"]]
        if wrong:
            problems.append("\n      ".join(
                ["%d %s run(s) with correct: false" % (len(wrong), side)] +
                [why_incorrect(r) for r in wrong]))
    if failed_share(change_runs) > failed_share(parent_runs):
        problems.append("failed share %.4g on the change side, %.4g on the parent"
                        % (failed_share(change_runs), failed_share(parent_runs)))
    rows = {}
    for metric in end_to_end:
        name = metric["name"]
        p = [r["metrics"][name] for r in parent_runs if name in r["metrics"]]
        c = [r["metrics"][name] for r in change_runs if name in r["metrics"]]
        if len(p) < len(parent_runs) or len(c) < len(change_runs):
            problems.append(name + " not reported by every run")
        else:
            rows[name] = dict(judge(p, c, metric["bound"], metric["better"]),
                              unit=metric["unit"])
    return rows, problems


def judge_crypto(parent_runs, change_runs, bound=CRYPTO_BOUND):
    """Each run maps series name -> cpu ns, or None when the series errored.
    A series every parent run measured must be measured by every change run:
    erroring or missing there is a FAIL. Returns (rows, problems)."""
    rows, problems = {}, []
    for name in sorted({n for run in parent_runs for n in run}):
        p = [run[name] for run in parent_runs if run.get(name) is not None]
        if len(p) < len(parent_runs):
            continue  # the parent could not measure it (e.g. no AES-NI)
        if any(name not in run for run in change_runs):
            problems.append(name + " missing on the change side")
        elif any(run[name] is None for run in change_runs):
            problems.append(name + " errors on the change side")
        else:
            rows[name] = dict(judge(p, [run[name] for run in change_runs], bound),
                              unit="ns")
    return rows, problems


def fmt(value, unit):
    if unit == "ns":
        for suffix, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
            if value >= div:
                return "%.3g %s" % (value / div, suffix)
    return "%.4g %s" % (value, unit)


def print_table(title, rows, problems):
    print("\n%s\n%-34s %6s %12s %12s %8s %7s  %s" % (
        title, "metric", "bound", "parent", "change", "move", "spread",
        "verdict"))
    for name, row in rows.items():
        print("%-34s %5.0f%% %12s %12s %+7.1f%% %7.3f  %s" % (
            name, 100 * row["bound"], fmt(row["parent"], row["unit"]),
            fmt(row["change"], row["unit"]), 100 * row["move"], row["spread"],
            row["verdict"]))
    for problem in problems:
        print("FAIL  " + problem)


def run_logged(command, log_path, **kwargs):
    """Runs `command`, its stderr into log_path; returns stdout or exits."""
    with open(log_path, "w") as log:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=log,
                              text=True, **kwargs)
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = "".join(log.readlines()[-20:])
        sys.stdout.flush()
        sys.exit("%sFAIL  %s exited %d (log: %s)"
                 % (tail, " ".join(command), proc.returncode, log_path))
    return proc.stdout


def crypto_run(binary, log_path):
    raw = json.loads(run_logged(
        [binary, "--benchmark_format=json",
         "--benchmark_min_time=" + CRYPTO_MIN_TIME], log_path))
    # Every bench_crypto series reports in google-benchmark's default unit, ns.
    return {b["name"]: None if b.get("error_occurred") else b["cpu_time"]
            for b in raw["benchmarks"]}


def invalid_lines(log_path):
    """The `invalid run: ...` lines perfbench's validity guards wrote."""
    with open(log_path) as log:
        return [line.strip() for line in log if line.startswith("invalid run:")]


def perfbench_run(tree, target_dir, workload, seed, seconds, log_path):
    out = run_logged(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], log_path, cwd=tree,
        env=dict(os.environ, CARGO_TARGET_DIR=target_dir))
    result = json.loads(out.strip().splitlines()[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    result.update(seed=seed, log=log_path, invalid=invalid_lines(log_path))
    return result


def paired(measure):
    """PAIRS alternating (parent, change) samples of measure(side, pair)."""
    runs = {"parent": [], "change": []}
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(measure(side, pair))
    return runs["parent"], runs["change"]


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    trees = {"parent": os.path.abspath(sys.argv[1]),
             "change": os.path.abspath(sys.argv[2])}
    out = os.path.abspath(sys.argv[3])
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    logs = os.path.join(out, "logs")
    os.makedirs(logs, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    report = {}

    def record(title, key, runs, rows, problems):
        print_table(title, rows, problems)
        sys.stdout.flush()
        report[key] = {"parent": runs[0], "change": runs[1], "rows": rows,
                       "problems": problems}

    binaries = {}
    for side, tree in trees.items():
        build = os.path.join(out, side, "crypto")
        run_logged(["cmake", "-S", tree, "-B", build,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(logs, side + "-crypto-configure.log"))
        run_logged(["cmake", "--build", build, "-j", jobs,
                    "--target", "bench_crypto"],
                   os.path.join(logs, side + "-crypto-build.log"))
        binaries[side] = os.path.join(build, "bench", "bench_crypto")

    runs = paired(lambda side, pair: crypto_run(
        binaries[side], os.path.join(logs, "%s-crypto-%d.log" % (side, pair))))
    record("bench_crypto (%d pairs, min_time %s s)" % (PAIRS, CRYPTO_MIN_TIME),
           "bench_crypto", runs, *judge_crypto(*runs))

    for workload in spec["workloads"]:
        name = workload["name"]
        runs = paired(lambda side, pair: perfbench_run(
            trees[side], os.path.join(out, side), name, pair + 1,
            spec["run_seconds"],
            os.path.join(logs, "%s-%s-seed%d.log" % (side, name, pair + 1))))
        record("%s (%d pairs, seeds 1-%d, %s s)"
               % (name, PAIRS, PAIRS, spec["run_seconds"]), name, runs,
               *judge_workload(spec["end_to_end"], *runs))

    with open(os.path.join(out, "gate.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    verdicts = [row["verdict"] for r in report.values()
                for row in r["rows"].values()]
    failed = "FAIL" in verdicts or any(r["problems"] for r in report.values())
    unresolved = "unresolved" in verdicts
    print("\nbench gate: %s (samples in %s)" % (
        "FAIL" if failed else "unresolved rows" if unresolved else "pass",
        os.path.join(out, "gate.json")))
    return 1 if failed else 3 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
