#!/usr/bin/env python3
"""Exact gate on the repository benchmark's model counters.

Wall-clock numbers from perfbench/run.py move 10-25% with host noise, but
its model counters (misses, firings, cache probes, cluster steps, modeled
latency, session accounting) are exact functions of the workload and seed.
This script compares the deterministic metrics of traced seed-1 records
against bench/model_baseline.json and fails on any difference, better or
worse: a change that moves the model must update the baseline on purpose.

    python3 bench/check_model_baseline.py [--records DIR] [--baseline FILE] [--update]

Run it from the root of a source tree after, for every workload in the
baseline,

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1

which leaves .bench_out/W-seed1-trace1.json. Exits 0 iff every listed
metric of every workload equals its baseline value. --update rewrites the
baseline from the records instead.
"""

import argparse
import json
import os
import sys

# Metrics that are pure model quantities, per workload: exact names, or
# prefixes ending in ".". Wall-clock-derived metrics (*_s, *per_s) are
# never listed.
COMMON = ["misses_per_output", "runtime.firings", "iomodel.l1.", "iomodel.llc."]
SELECT = {
    "plan-sweep": COMMON + ["partition.components_mean", "analysis.bound_ratio"],
    "serve-steady": COMMON + ["core.cluster.steps", "core.cluster.rounds",
                              "latency.p50_cycles", "latency.p99_cycles", "session."],
    "serve-churn": COMMON + ["core.cluster.steps", "core.cluster.rounds",
                             "latency.p50_cycles", "latency.p99_cycles", "session."],
}
SEED = 1


def selected(name, patterns):
    return any(name.startswith(p) if p.endswith(".") else name == p for p in patterns)


def model_metrics(record_path, workload):
    """The selected metrics of one traced record, as {name: value}."""
    with open(record_path) as f:
        record = json.load(f)
    stamp = record["stamp"]
    if (stamp["workload"], stamp["seed"], stamp["trace"]) != (workload, SEED, 1):
        raise ValueError(f"{record_path}: not a traced seed-{SEED} {workload} record")
    if record["correct"] is not True or record["failed"] != 0:
        raise ValueError(f"{record_path}: the run failed its own checks")
    # End-to-end model metrics appear in both the untraced and the traced
    # measurement; they must agree before either is compared.
    out = {}
    for block in ("untraced", "traced", "metrics"):
        for name, metric in record[block].items():
            if not selected(name, SELECT[workload]):
                continue
            if name in out and out[name] != metric["value"]:
                raise ValueError(f"{record_path}: {name} differs between measurements")
            out[name] = metric["value"]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", default=".bench_out")
    parser.add_argument("--baseline", default=os.path.join("bench", "model_baseline.json"))
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the records")
    args = parser.parse_args()

    actual = {}
    for workload in SELECT:
        path = os.path.join(args.records, f"{workload}-seed{SEED}-trace1.json")
        if not os.path.exists(path):
            print(f"missing record {path}", file=sys.stderr)
            return 1
        actual[workload] = model_metrics(path, workload)

    if args.update:
        doc = {"command": "python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1",
               "seed": SEED, "seconds": 1, "trace": 1, "workloads": actual}
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.baseline}")
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)["workloads"]
    failures = []
    for workload, want in sorted(baseline.items()):
        got = actual.get(workload, {})
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                failures.append(f"{workload} {name}: baseline {want.get(name)!r}, "
                                f"run {got.get(name)!r}")
    for line in failures:
        print(line, file=sys.stderr)
    checked = sum(len(v) for v in baseline.values())
    if failures:
        print(f"{len(failures)} of {checked} model metrics differ from {args.baseline}",
              file=sys.stderr)
        return 1
    print(f"all {checked} model metrics match {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
