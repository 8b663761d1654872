#!/usr/bin/env python3
"""Measure the end-to-end ledger: example_network_day at its defaults.

Usage: bench_e2e.py [--binary=build/example_network_day] [--runs=3]
                    [--out=BENCH_e2e.json]

Runs the binary --runs times with --metrics=<temporary CSV> and no other
flag, so every run is the reference workload at its defaults. Records the
median wall time and the median CPU time (user + system of the child), and
the deterministic counter rows (`metric,value,1`) of the metrics CSV, which
must agree across the runs. Writes a JSON object of name -> {"value",
"unit"}: `network_day.wall_s`, `network_day.cpu_s` and one
`network_day.<counter>` per deterministic counter. `tools/bench_diff.py`
prints these entries in their own units and never gates on them.

Stdlib only; no third-party imports.
"""

import argparse
import csv
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time


def cpu_s_of_children():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def number(text):
    value = float(text)
    return int(value) if value.is_integer() else value


def deterministic_counters(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {row["metric"]: number(row["value"]) for row in rows if row["deterministic"] == "1"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", default="build/example_network_day")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", default="BENCH_e2e.json")
    args = parser.parse_args()
    if args.runs < 1:
        sys.exit("bench_e2e: need at least one run")

    walls, cpus, counters = [], [], None
    with tempfile.TemporaryDirectory() as scratch:
        metrics = os.path.join(scratch, "metrics.csv")
        for run in range(args.runs):
            cpu_before = cpu_s_of_children()
            start = time.perf_counter()
            done = subprocess.run([args.binary, "--metrics=" + metrics],
                                  stdout=subprocess.DEVNULL)
            walls.append(time.perf_counter() - start)
            cpus.append(cpu_s_of_children() - cpu_before)
            if done.returncode != 0:
                sys.exit(f"bench_e2e: {args.binary} exited {done.returncode}")
            these = deterministic_counters(metrics)
            if counters is not None and these != counters:
                sys.exit("bench_e2e: deterministic counters differ between runs")
            counters = these
            print(f"run {run}: wall {walls[-1]:.2f} s, cpu {cpus[-1]:.2f} s", file=sys.stderr)

    ledger = {
        "network_day.wall_s": {"value": round(statistics.median(walls), 2), "unit": "s"},
        "network_day.cpu_s": {"value": round(statistics.median(cpus), 2), "unit": "CPU-s"},
    }
    for name in sorted(counters):
        ledger["network_day." + name] = {"value": counters[name], "unit": "count"}
    with open(args.out, "w") as fh:
        json.dump(ledger, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
