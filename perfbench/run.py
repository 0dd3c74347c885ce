#!/usr/bin/env python3
"""Layered benchmark for remo: build from source, run one workload, check it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ingest|serve|reweight --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench on
first use, runs the workload and prints every metric by name with its unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics. A traced run measures the
workload twice in separate processes, once without spans and once with
them, and reports how much worse tracing made each end-to-end metric as
overhead.<metric>. Per-layer metrics a workload does not measure (see
NOT_MEASURED) read 0. Detailed results (seed, sizes, thread counts, nproc,
build provenance, the workload's named figures) go to .bench_build/results/,
spans of traced runs to .bench_build/results/spans-<workload>-seed<N>.tsv.gz.
"""

import argparse
import gzip
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "remo_perfbench")
DEADLINE_S = 170  # the whole run, build excluded, must end within 180 s


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no remo sources under {ROOT}/src; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "remo_perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build step failed: {' '.join(cmd)}")


def run_binary(args, trace, spans_out, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before the run started")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("workload did not finish in time")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"workload exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("workload did not end with a JSON result")


# Per-layer metrics (name prefixes) a workload does not measure, because it
# never exercises that path: ingest has no serving, repair or PageRank;
# serve has no repair or PageRank; reweight has no serving; only ingest
# runs the 1-rank speedup arm. The result line must carry every per-layer
# metric, so these read 0 and mean "not measured"; every other metric must
# come from the run, and one of these coming from it is an error too.
NOT_MEASURED = {
    "ingest": ("core.repair_", "core.sssp_", "core.pr_", "graph.scratch_pr_",
               "serve.", "self.serve_s", "loadgen.late_"),
    "serve": ("core.repair_", "core.sssp_", "core.pr_", "graph.scratch_pr_",
              "runtime.speedup_4v1"),
    "reweight": ("serve.", "self.serve_s", "loadgen.late_",
                 "runtime.speedup_4v1"),
}


def select(spec, values, kind, not_measured=()):
    """The metrics `spec` lists, in its order. A metric the run did not
    produce is an error unless its name starts with one of `not_measured`,
    when it reads 0; so is a metric the run produced that `spec` does not
    list or that `not_measured` names."""
    names = [m["name"] for m in spec]
    unknown = set(values) - set(names)
    if unknown:
        fail(f"{kind} metrics not in BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for m in spec:
        name = m["name"]
        skipped = name.startswith(tuple(not_measured))
        if skipped and name in values:
            fail(f"{kind} metric {name} is listed as not measured but the run produced it")
        if not skipped and name not in values:
            fail(f"{kind} metric {name} missing from the run's output")
        out[name] = {"value": values.get(name, 0.0), "unit": m["unit"]}
    return out


def unit_of(name):
    """Unit of a named figure, from its suffix."""
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_eps", "events/s"),
                         ("_rel_err", "fraction"), ("_l1_err", "rank"),
                         ("_l1_bound", "rank"),
                         ("_events_end", "events")):
        if name.endswith(suffix) or f"{suffix}_" in name:
            return unit
    return "count"


def show(title, metrics, not_measured=()):
    print(title)
    for name, m in metrics.items():
        note = "  (not measured)" if name in not_measured else ""
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}{note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    os.makedirs(RESULTS, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    untraced = run_binary(args, False, None, deadline)
    runs = [untraced]
    if args.trace:
        spans_tsv = os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.tsv")
        traced = run_binary(args, True, spans_tsv, deadline)
        runs.append(traced)
        with open(spans_tsv, "rb") as src, \
                gzip.open(spans_tsv + ".gz", "wb", compresslevel=1) as dst:
            shutil.copyfileobj(src, dst)
        os.remove(spans_tsv)
        layers = dict(traced["layers"])
        # Peak RSS of the workload itself: the traced process also holds the
        # spans and runs the traced-only probes.
        layers["runtime.peak_rss_mb"] = untraced["layers"]["runtime.peak_rss_mb"]
        # Overhead is how much worse tracing made a metric, whichever its
        # direction, so every overhead.* is better lower.
        for m in spec["end_to_end"]:
            name = m["name"]
            worse = traced["e2e"][name] - untraced["e2e"][name]
            layers["overhead." + name] = worse if m["better"] == "lower" else -worse
        metrics = select(spec["per_layer"], layers, "per-layer",
                         NOT_MEASURED[args.workload])
    else:
        metrics = select(spec["end_to_end"], untraced["e2e"], "end-to-end")
    not_measured = [name for name in metrics
                    if args.trace and name.startswith(NOT_MEASURED[args.workload])]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    named = untraced["detail"].get("named", {})
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{failed} of {attempted} checks failed")
    for r in runs:
        for what in r["failures"]:
            print(f"  FAILED: {what}")
    show("named figures (untraced):", {k: {"value": float(v), "unit": unit_of(k)}
                                      for k, v in named.items()
                                      if isinstance(v, (int, float))})
    show("metrics:", metrics, not_measured)

    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "runs": runs, "metrics": metrics,
                   "not_measured": not_measured}, f, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
