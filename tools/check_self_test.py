#!/usr/bin/env python3
"""Check a campaign_bench self-test log against the digest ledger.

Usage: check_self_test.py LOG LEDGER

LOG is the stdout of `python3 campaign_bench/run.py --self-test`: each
"self-test <workload> pool <n>: csv_digest <digest> ..." line gives one
workload's CSV digest at one pool size. LEDGER holds one
"<workload> <digest>" pair per line (blank lines and '#' comments are
skipped), e.g. tests/ledger/campaign_self_test_digests.txt.

Exits 0 when every ledger workload is in the log and its digest equals the
ledger's at every pool size. Otherwise it prints each mismatch with both
digests and exits 1; a workload missing from the log reads "none", and a
logged workload the ledger lacks fails too, since its bytes are not
pinned. Exits 2 when a file cannot be read or the ledger is malformed.

A change that moves an output byte on purpose updates the ledger and says
why in CHANGES.md.

Stdlib only; no third-party imports.
"""

import re
import sys

LOG_LINE = re.compile(r"^self-test (\S+) pool (\d+): csv_digest (\S+)")


def read_lines(path):
    try:
        with open(path) as fh:
            return fh.read().splitlines()
    except OSError as err:
        print(f"check_self_test: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def load_ledger(path):
    ledger = {}
    for number, line in enumerate(read_lines(path), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2 or fields[0] in ledger:
            print(f"check_self_test: {path}:{number}: expected one "
                  f"'<workload> <digest>' per workload", file=sys.stderr)
            sys.exit(2)
        ledger[fields[0]] = fields[1]
    return ledger


def main(argv):
    if len(argv) != 3:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    ledger = load_ledger(argv[2])
    logged = {}  # workload -> [(pool, digest), ...] in log order
    for line in read_lines(argv[1]):
        match = LOG_LINE.match(line)
        if match:
            workload, pool, digest = match.groups()
            logged.setdefault(workload, []).append((pool, digest))

    failures = []
    for workload, want in ledger.items():
        if workload not in logged:
            failures.append(f"{workload}: not in the log: csv_digest none, ledger {want}")
        for pool, got in logged.get(workload, []):
            if got != want:
                failures.append(f"{workload} pool {pool}: csv_digest {got}, ledger {want}")
    for workload in sorted(logged.keys() - ledger.keys()):
        got = logged[workload][0][1]
        failures.append(f"{workload}: csv_digest {got}, ledger none")

    for failure in failures:
        print(f"check_self_test: FAIL {failure}")
    if failures:
        return 1
    print(f"check_self_test: PASS, {len(ledger)} workloads match the ledger")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
