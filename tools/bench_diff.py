#!/usr/bin/env python3
"""Compare two BENCH_perf.json files (benchmark name -> ns/op).

Usage: bench_diff.py BASELINE.json CANDIDATE.json [--fail-above=RATIO]

Prints one row per benchmark with the candidate/baseline ratio; benchmarks
present in only one file are listed instead of silently dropped (renames and
new benchmarks should be visible in CI logs, not invisible). With
--fail-above=RATIO the exit code is 1 when any shared benchmark regressed by
more than that factor — by default the comparison is informational only,
since CI machines are too noisy to gate merges on wall time.

An entry of the form {"value": V, "unit": "U"} (the end-to-end ledger
BENCH_e2e.json written by tools/bench_e2e.py: wall and CPU seconds plus
deterministic counters) is printed in its own unit, in a section of its
own, and never counts toward --fail-above.

Stdlib only; no third-party imports.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    if not isinstance(data, dict):
        sys.exit(f"bench_diff: {path}: expected a JSON object of name -> ns/op")
    perf, e2e = {}, {}
    for name, entry in data.items():
        if isinstance(entry, dict):
            value, unit = entry.get("value"), entry.get("unit")
            if isinstance(value, (int, float)) and isinstance(unit, str):
                e2e[str(name)] = (float(value), unit)
        elif isinstance(entry, (int, float)) and entry > 0:
            perf[str(name)] = float(entry)
    return perf, e2e


def fmt_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def fmt_value(value, unit):
    if unit == "count":
        return f"{value:,.0f}"
    return f"{value:.3g} {unit}"


def print_e2e(base, cand):
    """The unit entries of both files, in their own units, never gated."""
    names = sorted(set(base) | set(cand))
    if not names:
        return
    width = max(len(n) for n in names)
    print("\nend-to-end entries (own units, not gated)")
    print(f"{'entry':<{width}}  {'baseline':>14}  {'candidate':>14}  ratio")
    for name in names:
        old, new = base.get(name), cand.get(name)
        left = fmt_value(*old) if old else "-"
        right = fmt_value(*new) if new else "-"
        if old and new and old[1] != new[1]:
            note = "  (units differ)"
        elif old and new and old[0] != 0:
            note = f"  {new[0] / old[0]:5.2f}x"
        else:
            note = ""
        print(f"{name:<{width}}  {left:>14}  {right:>14}{note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--fail-above",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit 1 when any shared benchmark's candidate/baseline "
        "ratio exceeds RATIO (e.g. 1.5)",
    )
    args = parser.parse_args()

    base, base_e2e = load(args.baseline)
    cand, cand_e2e = load(args.candidate)
    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    width = max((len(n) for n in (*shared, *only_base, *only_cand)), default=9)
    if base or cand or not (base_e2e or cand_e2e):
        print(f"{'benchmark':<{width}}  {'baseline':>10}  {'candidate':>10}  ratio")
    worst = None
    for name in shared:
        ratio = cand[name] / base[name]
        marker = "  <-- slower" if ratio > 1.10 else ("  <-- faster" if ratio < 0.90 else "")
        print(
            f"{name:<{width}}  {fmt_ns(base[name]):>10}  "
            f"{fmt_ns(cand[name]):>10}  {ratio:5.2f}x{marker}"
        )
        if worst is None or ratio > worst[1]:
            worst = (name, ratio)

    for name in only_base:
        print(f"{name:<{width}}  {fmt_ns(base[name]):>10}  {'-':>10}  (baseline only)")
    for name in only_cand:
        print(f"{name:<{width}}  {'-':>10}  {fmt_ns(cand[name]):>10}  (candidate only)")

    print_e2e(base_e2e, cand_e2e)
    if not shared:
        if not (base_e2e or cand_e2e):
            print("bench_diff: no shared benchmarks to compare")
        return 0
    print(f"worst ratio: {worst[0]} at {worst[1]:.2f}x")
    if args.fail_above is not None and worst[1] > args.fail_above:
        print(
            f"bench_diff: FAIL — {worst[0]} regressed {worst[1]:.2f}x "
            f"(> {args.fail_above:.2f}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
