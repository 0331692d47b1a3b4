#!/usr/bin/env python3
"""Merge every BENCH_PR*.json into one wall-clock perf trajectory.

Each PR records its benchmark evidence in a BENCH_PR<N>.json at the repo
root; shapes differ by era (the earliest are hand-rolled summaries, then
raw google-benchmark --benchmark_format=json dumps, and the latest are
"perfbench-ab" records: alternating parent/change runs of the repository
benchmark, perfbench/run.py, plus a microbenchmark table -- see
rows_from_perfbench_ab for the exact shape; an A/B whose pair records were
not kept is backfilled from its CHANGES.md medians as a
"perfbench-ab-transcribed" record). This script normalizes all
of them into one long-format table -- one row per (pr, benchmark, metric) --
and emits it as CSV plus a grouped markdown report, so CI can publish the
whole perf trajectory as a single artifact on every run.

Parsing is strict on purpose: a BENCH file that fails to parse, or whose
shape is not one this script knows, is a hard error (nonzero exit), not a
silent skip -- a trajectory with holes reads as "this PR had no perf story"
when it actually recorded one.

Usage:
    python3 bench/trajectory.py [--root DIR] [--csv OUT.csv] [--markdown OUT.md]

With no output flags, prints the markdown report to stdout. Exits 0 only if
every BENCH_PR*.json parsed and normalized.
"""

import argparse
import csv
import glob
import json
import os
import re
import sys

COLUMNS = ["pr", "source", "benchmark", "metric", "value", "unit", "note"]

# google-benchmark appends run modifiers to names (BM_x/iterations:1,
# BM_x/repeats:3, BM_x/real_time, ...), and PRs recorded the same family
# with different modifiers across eras.  Strip them so one benchmark forms
# ONE cross-PR series instead of several singletons.
RUN_MODIFIER_RE = re.compile(
    r"/(?:iterations|repeats|min_time|min_warmup_time|threads):[^/]+"
    r"|/(?:real_time|process_time|manual_time)\b"
)


def normalize_benchmark_name(name):
    return RUN_MODIFIER_RE.sub("", name)


class TrajectoryError(Exception):
    """A BENCH file that exists but cannot be read or understood."""


def rows_from_google_benchmark(pr, source, doc):
    """Raw google-benchmark dump: keep median aggregates (or plain rows when
    a family has no aggregates), one row per recorded throughput/time."""
    rows = []
    benches = doc["benchmarks"]
    has_aggregates = any(b.get("run_type") == "aggregate" for b in benches)
    for b in benches:
        if has_aggregates and b.get("aggregate_name") != "median":
            continue
        name = normalize_benchmark_name(b.get("run_name") or b["name"])
        label = b.get("label", "")
        if b.get("items_per_second") is not None:
            rows.append([pr, source, name, "items_per_second",
                         float(b["items_per_second"]), "items/s", label])
        if b.get("real_time") is not None:
            rows.append([pr, source, name, "real_time_median",
                         float(b["real_time"]), b.get("time_unit", "ns"), label])
        for counter in ("model_throughput", "misses_per_output", "speedup",
                        "p50_steady", "p99_steady", "p50_mixed", "p99_mixed",
                        "tail_gap_x", "p99_round_robin", "p99_affinity",
                        "p99_adaptive", "p95_spread", "p99_spread"):
            if b.get(counter) is not None:
                rows.append([pr, source, name, counter, float(b[counter]), "", label])
    if not rows:
        raise TrajectoryError(f"{source}: google-benchmark dump has no usable rows")
    return rows


def rows_from_pr2(pr, source, doc):
    """PR2 summary: gated before/after items/s pairs per microbenchmark."""
    rows = []
    for name, cell in doc["gated"].items():
        rows.append([pr, source, name, "items_per_second",
                     float(cell["after_items_per_second"]), "items/s", ""])
        rows.append([pr, source, name, "speedup_vs_before",
                     float(cell["speedup"]), "x", ""])
    if not rows:
        raise TrajectoryError(f"{source}: 'gated' table is empty")
    return rows


def rows_from_pr3(pr, source, doc):
    """PR3 summary: sweep wall-clock medians per thread count."""
    rows = []
    for key, seconds in doc["wall_seconds_median"].items():
        rows.append([pr, source, f"experiment_sweep/{key}", "wall_seconds_median",
                     float(seconds), "s", ""])
    for key, speedup in doc.get("speedup_vs_1_thread", {}).items():
        rows.append([pr, source, f"experiment_sweep/{key}", "speedup_vs_1_thread",
                     float(speedup), "x", ""])
    if not rows:
        raise TrajectoryError(f"{source}: 'wall_seconds_median' table is empty")
    return rows


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TrajectoryError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


# Stamp fields perfbench/run.py writes into every run record; a perfbench-ab
# pair must carry them on both sides, or the numbers cannot be traced to a
# build.
PERFBENCH_STAMP_KEYS = ("workload", "seed", "seconds", "trace", "build_type",
                        "compiler", "cxx_flags", "nproc", "git_sha", "source_sha256")


def rows_from_perfbench_ab(pr, source, doc):
    """Alternating parent/change runs of the repository benchmark.

    Shape (every field required):
      {"shape": "perfbench-ab", "pr": N, "description": str,
       "pairs": [{"order": "parent-first" | "change-first",
                  "parent": RUN, "change": RUN}, ...],
       "micro": {"reps": int, "rows": [{"benchmark": str,
                 "parent_items_per_second": num,
                 "change_items_per_second": num}, ...]},
       "ladder": {...}}  (optional; see _ladder_rows)
    where RUN is a perfbench record reduced to {"stamp": {...}, "correct":
    true, "failed": 0, "metrics": {name: {"value": num, "unit": str}}}.
    Both sides of a pair must name the same workload and seed and differ in
    source_sha256. Emits, per workload and end-to-end metric, the change and
    parent medians over the pairs and their ratio (with the change's pair
    wins in the note), and per microbenchmark the change and parent medians
    and their ratio.
    """
    if doc.get("pr") != pr:
        raise TrajectoryError(f"{source}: 'pr' field {doc.get('pr')!r} != {pr}")
    pairs = doc["pairs"]
    if not isinstance(pairs, list) or not pairs:
        raise TrajectoryError(f"{source}: 'pairs' must be a non-empty list")
    series = {}  # (workload, metric) -> (unit, [(parent, change)])
    for i, pair in enumerate(pairs):
        where = f"{source}: pair {i}"
        if pair["order"] not in ("parent-first", "change-first"):
            raise TrajectoryError(f"{where}: bad order {pair['order']!r}")
        sides = {}
        for side in ("parent", "change"):
            run = pair[side]
            stamp = run["stamp"]
            missing = [k for k in PERFBENCH_STAMP_KEYS if k not in stamp]
            if missing:
                raise TrajectoryError(f"{where}: {side} stamp lacks {missing}")
            if run["correct"] is not True or run["failed"] != 0:
                raise TrajectoryError(f"{where}: {side} run is not correct")
            sides[side] = run
        ps, cs = sides["parent"]["stamp"], sides["change"]["stamp"]
        if (ps["workload"], ps["seed"]) != (cs["workload"], cs["seed"]):
            raise TrajectoryError(f"{where}: parent and change ran different cells")
        if ps["source_sha256"] == cs["source_sha256"]:
            raise TrajectoryError(f"{where}: parent and change ran the same sources")
        pm, cm = sides["parent"]["metrics"], sides["change"]["metrics"]
        if sorted(pm) != sorted(cm):
            raise TrajectoryError(f"{where}: parent and change report different metrics")
        for metric in sorted(pm):
            unit = pm[metric]["unit"]
            if cm[metric]["unit"] != unit:
                raise TrajectoryError(f"{where}: {metric} units differ")
            series.setdefault((ps["workload"], metric), (unit, []))[1].append(
                (_number(pm[metric]["value"], f"{where} parent {metric}"),
                 _number(cm[metric]["value"], f"{where} change {metric}")))
    rows = []
    for (workload, metric), (unit, values) in sorted(series.items()):
        bench = f"perfbench/{workload}"
        parent = _median([p for p, _ in values])
        change = _median([c for _, c in values])
        higher = metric == "firings_per_s"  # the only higher-is-better end-to-end metric
        wins = sum((c > p) if higher else (c < p) for p, c in values)
        note = f"median of {len(values)} alternating pairs"
        rows.append([pr, source, bench, metric, change, unit, note])
        rows.append([pr, source, bench, f"{metric}_parent", parent, unit, note])
        if parent != 0:
            rows.append([pr, source, bench, f"{metric}_vs_parent", change / parent, "x",
                         f"change better in {wins}/{len(values)} pairs"])
    micro = doc["micro"]
    reps = int(_number(micro["reps"], f"{source}: micro reps"))
    if not micro["rows"]:
        raise TrajectoryError(f"{source}: 'micro.rows' is empty")
    for row in micro["rows"]:
        name = normalize_benchmark_name(row["benchmark"])
        parent = _number(row["parent_items_per_second"], f"{source}: {name} parent")
        change = _number(row["change_items_per_second"], f"{source}: {name} change")
        if parent <= 0 or change <= 0:
            raise TrajectoryError(f"{source}: {name} throughput must be positive")
        note = f"median of {reps} alternating reps"
        rows.append([pr, source, name, "items_per_second", change, "items/s", note])
        rows.append([pr, source, name, "items_per_second_parent", parent, "items/s", note])
        rows.append([pr, source, name, "speedup_vs_parent", change / parent, "x", note])
    if "ladder" in doc:
        rows += _ladder_rows(pr, source, doc["ladder"])
    return rows


def _ladder_rows(pr, source, ladder):
    """Optional "ladder" section of a perfbench-ab record: within-run ratios
    of two layer-ladder rows, each measured in one traced run so host phases
    cancel. Shape: {"runs": str, "ratios": [{"ratio": str, "side": "parent"
    | "change", "values": [num, ...]}, ...]}. Emits the median per ratio and
    side, with the spread (min-max) in the note."""
    if not isinstance(ladder["runs"], str) or not ladder["runs"]:
        raise TrajectoryError(f"{source}: 'ladder.runs' must describe the runs")
    if not ladder["ratios"]:
        raise TrajectoryError(f"{source}: 'ladder.ratios' is empty")
    rows = []
    for entry in ladder["ratios"]:
        name = entry["ratio"]
        side = entry["side"]
        if side not in ("parent", "change"):
            raise TrajectoryError(f"{source}: ladder {name}: bad side {side!r}")
        values = [_number(v, f"{source}: ladder {name}") for v in entry["values"]]
        if not values:
            raise TrajectoryError(f"{source}: ladder {name} has no values")
        note = (f"median of {len(values)} traced runs, "
                f"spread {min(values):.3f}-{max(values):.3f}")
        suffix = "" if side == "change" else "_parent"
        rows.append([pr, source, f"ladder/{name}", f"ratio{suffix}", _median(values), "x", note])
    return rows


def rows_from_perfbench_ab_transcribed(pr, source, doc):
    """An A/B of the repository benchmark whose per-pair records were not
    kept, transcribed from the medians its CHANGES.md entry reports.

    Shape (every field required but change_wins):
      {"shape": "perfbench-ab-transcribed", "pr": N, "transcribed_from": str,
       "description": str,
       "workloads": [{"workload": str, "pairs": int, "seeds": str,
                      "metrics": [{"metric": str, "unit": str,
                                   "parent_median": num, "change_median": num,
                                   "change_wins": int (optional)}, ...]}, ...]}
    Emits the same rows as perfbench-ab, each note marked as transcribed.
    """
    if doc.get("pr") != pr:
        raise TrajectoryError(f"{source}: 'pr' field {doc.get('pr')!r} != {pr}")
    if not isinstance(doc["transcribed_from"], str) or not doc["transcribed_from"]:
        raise TrajectoryError(f"{source}: 'transcribed_from' must name the source")
    if not isinstance(doc["description"], str):
        raise TrajectoryError(f"{source}: 'description' must be a string")
    if not doc["workloads"]:
        raise TrajectoryError(f"{source}: 'workloads' is empty")
    rows = []
    for block in doc["workloads"]:
        workload = block["workload"]
        pairs = int(_number(block["pairs"], f"{source}: {workload} pairs"))
        seeds = block["seeds"]
        if not block["metrics"]:
            raise TrajectoryError(f"{source}: {workload} has no metrics")
        bench = f"perfbench/{workload}"
        note = f"transcribed median of {pairs} alternating pairs (seeds {seeds})"
        for m in block["metrics"]:
            metric, unit = m["metric"], m["unit"]
            parent = _number(m["parent_median"], f"{source}: {workload} {metric} parent")
            change = _number(m["change_median"], f"{source}: {workload} {metric} change")
            rows.append([pr, source, bench, metric, change, unit, note])
            rows.append([pr, source, bench, f"{metric}_parent", parent, unit, note])
            if parent != 0:
                wins = m.get("change_wins")
                ratio_note = (f"transcribed; change better in {int(wins)}/{pairs} pairs"
                              if wins is not None else "transcribed")
                rows.append([pr, source, bench, f"{metric}_vs_parent", change / parent, "x",
                             ratio_note])
    return rows


def normalize(path):
    source = os.path.basename(path)
    match = re.match(r"BENCH_PR(\d+)\.json$", source)
    if not match:
        raise TrajectoryError(f"{source}: not a BENCH_PR<N>.json name")
    pr = int(match.group(1))
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise TrajectoryError(f"{source}: failed to parse: {err}") from err
    try:
        if isinstance(doc, dict) and doc.get("shape") == "perfbench-ab":
            return rows_from_perfbench_ab(pr, source, doc)
        if isinstance(doc, dict) and doc.get("shape") == "perfbench-ab-transcribed":
            return rows_from_perfbench_ab_transcribed(pr, source, doc)
        if isinstance(doc, dict) and "benchmarks" in doc:
            return rows_from_google_benchmark(pr, source, doc)
        if isinstance(doc, dict) and "gated" in doc:
            return rows_from_pr2(pr, source, doc)
        if isinstance(doc, dict) and "wall_seconds_median" in doc:
            return rows_from_pr3(pr, source, doc)
    except (KeyError, TypeError, ValueError) as err:
        raise TrajectoryError(f"{source}: malformed fields: {err}") from err
    raise TrajectoryError(f"{source}: unrecognized shape "
                          f"(top-level keys: {sorted(doc)[:8] if isinstance(doc, dict) else type(doc).__name__})")


def write_csv(rows, out):
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    writer.writerows(rows)


def write_markdown(rows, out):
    out.write("# Wall-clock perf trajectory\n\n")
    out.write("One row per recorded (PR, benchmark, metric); medians unless "
              "noted. Regenerate with `python3 bench/trajectory.py`.\n")
    by_pr = {}
    for row in rows:
        by_pr.setdefault(row[0], []).append(row)
    for pr in sorted(by_pr):
        out.write(f"\n## PR {pr} ({by_pr[pr][0][1]})\n\n")
        out.write("| benchmark | metric | value | unit | note |\n")
        out.write("|---|---|---:|---|---|\n")
        for _, _, bench, metric, value, unit, note in by_pr[pr]:
            shown = f"{value:,.4g}" if isinstance(value, float) else value
            out.write(f"| {bench} | {metric} | {shown} | {unit} | {note} |\n")

    # Cross-PR series: every (benchmark, metric) measured by two or more
    # PRs, so the actual trajectory -- not just per-PR snapshots -- is
    # visible in one table.
    series = {}
    for pr, _, bench, metric, value, unit, _ in rows:
        series.setdefault((bench, metric, unit), {})[pr] = value
    multi = {k: v for k, v in series.items() if len(v) >= 2}
    out.write("\n## Cross-PR series\n\n")
    if not multi:
        out.write("(no benchmark/metric pair recorded by more than one PR)\n")
        return
    out.write("| benchmark | metric | unit | values by PR |\n")
    out.write("|---|---|---|---|\n")
    for (bench, metric, unit), by in sorted(multi.items()):
        shown = ", ".join(
            f"PR{pr}: {value:,.4g}" if isinstance(value, float) else f"PR{pr}: {value}"
            for pr, value in sorted(by.items())
        )
        out.write(f"| {bench} | {metric} | {unit} | {shown} |\n")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.join(os.path.dirname(__file__), ".."),
                        help="directory holding BENCH_PR*.json (default: repo root)")
    parser.add_argument("--csv", help="write the long-format CSV here")
    parser.add_argument("--markdown", help="write the markdown report here")
    args = parser.parse_args(argv)

    paths = sorted(glob.glob(os.path.join(args.root, "BENCH_PR*.json")),
                   key=lambda p: int(re.search(r"PR(\d+)", os.path.basename(p)).group(1)))
    if not paths:
        print(f"error: no BENCH_PR*.json under {args.root}", file=sys.stderr)
        return 1

    rows, failures = [], []
    for path in paths:
        try:
            rows.extend(normalize(path))
        except TrajectoryError as err:
            failures.append(str(err))
    if failures:
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        return 1
    if not rows:
        # Belt and braces: every normalize() either returns rows or raises,
        # but an empty merged table must never pass silently -- it would
        # publish a trajectory that says "no PR ever had a perf story".
        print("error: zero data rows after normalizing "
              f"{len(paths)} BENCH files", file=sys.stderr)
        return 1

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as f:
            write_csv(rows, f)
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as f:
            write_markdown(rows, f)
    if not args.csv and not args.markdown:
        write_markdown(rows, sys.stdout)
    covered = sorted({row[0] for row in rows})
    print(f"trajectory: {len(rows)} rows from {len(paths)} files "
          f"(PRs {', '.join(map(str, covered))})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
