#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, the way its bounds are checked.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads pipeline serve_single --seeds 1-10
    python3 perfbench/spread.py --workloads pipeline serve_single --sets 2

Runs perfbench/run.py once per (set, workload, seed), one whole set after
the other, keeps the last-line JSON results under
.bench_build/perfbench-results/, and prints for each set and end-to-end
metric its median and the distance between the first and third quartiles
as a share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound from BENCHMARK.json. With --sets 2 or more it also prints,
per metric, how far each later set's median is from the first set's in
the metric's worse direction, as a share of the first, against the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(".bench_build", "perfbench-results")


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_set(spec, number, workloads, seeds, trace):
    """Runs every (workload, seed) once; returns {workload: [result, ...]}."""
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in seeds:
            command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]),
                                         "--trace", str(trace)]
            out = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                raise RuntimeError("%s seed %d: exit %d" % (workload, seed, out.returncode))
            result = json.loads(lines[-1])
            runs[workload].append(result)
            name = "set%d-%s-%d-trace%d.json" % (number, workload, seed, trace)
            with open(os.path.join(RESULTS, name), "w") as f:
                json.dump({"result": result, "stdout": lines[:-1]}, f, indent=1)
            if not result["correct"]:
                print("%s seed %d: correct=false" % (workload, seed), file=sys.stderr)
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    os.makedirs(RESULTS, exist_ok=True)

    sets = []
    try:
        for number in range(1, args.sets + 1):
            sets.append(run_set(spec, number, args.workloads, args.seeds, args.trace))
    except RuntimeError as error:
        print(error, file=sys.stderr)
        return 1

    worst_spread = 0.0
    worst_drift = 0.0
    for workload in args.workloads:
        medians = []
        for number, runs in enumerate(sets, 1):
            runs = runs[workload]
            failed = sorted({r["failed"] / r["attempted"] for r in runs})
            print("set %d %s: %d runs, failed share %s, correct %s" % (
                number, workload, len(runs), failed, all(r["correct"] for r in runs)))
            medians.append({})
            for metric in runs[0]["metrics"]:
                values = [r["metrics"][metric]["value"] for r in runs]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else float("inf")
                bound = metrics.get(metric, {}).get("bound")
                if metric != "setup_s" and bound:
                    worst_spread = max(worst_spread, spread / bound)
                medians[-1][metric] = median
                print("  %-20s median %-12.6g spread %.4f  bound %s" % (
                    metric, median, spread, bound))
        for number, later in enumerate(medians[1:], 2):
            print("set %d against set 1, %s (share worse; negative is better):" % (
                number, workload))
            for metric, first in medians[0].items():
                spec_metric = metrics.get(metric, {})
                sign = 1.0 if spec_metric.get("better") == "lower" else -1.0
                drift = sign * (later[metric] - first) / first if first else float("inf")
                bound = spec_metric.get("bound")
                if bound:
                    worst_drift = max(worst_drift, drift / bound)
                print("  %-20s %+.4f  bound %s" % (metric, drift, bound))
    print("largest spread / bound (setup_s excluded): %.3f" % worst_spread)
    if len(sets) > 1:
        print("largest worsening of a later set's median / bound: %.3f" % worst_drift)
    return 0


if __name__ == "__main__":
    sys.exit(main())
