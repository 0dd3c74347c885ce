#!/usr/bin/env python3
"""Check perfbench's exact 1-rank work counters against bench/ledger.json.

Run from anywhere in a checkout, after one traced perfbench run per
workload the ledger names:

    python3 perfbench/run.py --workload W --seed 1 --seconds 2 --trace 1
    python3 tools/check_ledger.py

For each workload it reads .bench_build/results/<W>-seed1-trace1.json and
fails if any check of either run failed, or if the three integers in
runs[-1].detail.work_counters_1rank differ from the golden ones. The
counters come from fixed inputs at 1 rank, so they depend on neither
--seed nor --seconds; a change to them is a change to the work the engine
does. On a mismatch the observed ledger is printed in the golden file's
format: commit it only together with the reason the work changed.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "bench", "ledger.json")
RESULTS = os.path.join(ROOT, ".bench_build", "results")


def main():
    with open(GOLDEN) as f:
        golden = json.load(f)
    errors = []
    observed = {}
    for workload, want in golden.items():
        path = os.path.join(RESULTS, f"{workload}-seed1-trace1.json")
        if not os.path.isfile(path):
            errors.append(f"{workload}: no result at {path}; run perfbench first")
            continue
        with open(path) as f:
            runs = json.load(f)["runs"]
        for run in runs:
            errors += [f"{workload}: failed check: {what}" for what in run["failures"]]
        counters = runs[-1]["detail"].get("work_counters_1rank", {})
        got = {name: counters.get(name) for name in want}
        observed[workload] = got
        for name, value in want.items():
            if got[name] != value:
                errors.append(f"{workload}: {name} is {got[name]}, ledger says {value}")
        if got == want:
            print(f"{workload}: " + ", ".join(f"{k} {v}" for k, v in got.items()))
    if any(observed[w] != golden[w] for w in observed):
        print("observed ledger:")
        print(json.dumps(observed, indent=2))
    if errors:
        for e in errors:
            print(f"check_ledger: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
