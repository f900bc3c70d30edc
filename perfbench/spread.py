#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S] [--trace 0|1]

Run from the repository root. For every workload it runs
`bash perfbench/run.sh` once per seed and prints, per metric, the median
and the quartile spread (Q3 - Q1) / median, with the quartiles from
Python's statistics.quantiles(values, n=4), next to the metric's bound in
BENCHMARK.json; the table's ungated figures follow with no bound. A run
that fails, or reports correct = false, stops the script with a non-zero
exit code.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


TABLE_LINE = re.compile(r"^  (\S+)\s+(-?[0-9.]+) (\S+)$")


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
    print(f"  {workload} seed {seed}: {time.monotonic() - start:.1f} s wall",
          file=sys.stderr, flush=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output checks failed: {result}")
    metrics = result["metrics"]
    # the table's ungated lines ("  name value unit"), e.g. raw latencies
    for line in lines[:-1]:
        m = TABLE_LINE.match(line)
        if m and m.group(1) not in metrics and m.group(1) != "error_rate":
            metrics[m.group(1)] = {"value": float(m.group(2)),
                                   "unit": m.group(3)}
    return metrics


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace)
                for s in seed_list(args.seeds)]
        print(f"== {workload}: {len(runs)} runs")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                spread = float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:34s} median {med:14.6g} {runs[0][name]['unit']:8s}"
                  f" spread {spread:7.4f} bound {bound}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.6g}" for v in values))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
