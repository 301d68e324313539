#!/usr/bin/env python3
"""Compare bench_perf runs of a parent commit and a change.

    perf_diff.py --parent P1.json P2.json ... --change C1.json C2.json ...

Each file is a pddl-perf-v1 document written by `bench_perf --json`.
Run the two commits alternately (parent, change, change, parent, ...)
with the same benchmark code and settings and the same seeds, then pass
the documents in run order. Repetition k of the parent side is paired
with repetition k of the change side; at least 10 pairs are needed.

For every workload and every timed end-to-end metric in BENCHMARK.json
the verdict is one of:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and its median is better than the parent's by
              more than the parent's own quartile spread;
  regressed   the change's median is worse than the parent's by more
              than the metric's bound, and either the parent's spread
              is within the bound or every change run is worse than
              every parent run;
  unresolved  the parent's quartile spread, as a share of its median,
              is wider than the bound, so "unchanged" cannot be
              claimed -- unless every change run beats every parent run;
  unchanged   none of the above.

Exact counts (allocations per access, and the simulated per-layer
counts of traced documents) repeat exactly for a given seed, and every
pair shares its seed, so no bound applies to them: they must be equal
pair by pair ("equal"). Any pair whose count got worse makes the count
"regressed"; a count that got better in every pair is "improved" (a
count, never a speed-up); anything else is "changed". BENCHMARK.json's
bound on allocs_per_access is for medians over runs of different seeds,
which this script never compares. Outcome digests are compared the
same way: a speed-only change keeps them identical.

Runs whose environment blocks (compiler, build type, PDDL_OBS, nproc)
differ are refused: their numbers do not compare. Exit status: 0 when
every verdict is a claim (improved, unchanged, equal, changed), 1 when
something regressed, 2 when the inputs were refused, 3 when nothing
regressed but some verdict is unresolved.
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
SCHEMA = "pddl-perf-v1"
# Environment fields that must match; git_sha is expected to differ.
ENV_KEYS = ("compiler", "build_type", "pddl_obs", "nproc")
# Metrics whose values repeat exactly for a given seed and build.
EXACT = {
    "allocs_per_access",
    "cache.allocs_per_access",
    "cache.served_frac",
    "cache.units_per_destage",
    "volume.subaccesses_per_access",
    "array.physops_per_access",
    "disk.utilization",
    "sim.events_per_access",
    "sim.windows_per_access",
    "obs.allocs_per_call",
    "tune.memo_hit_frac",
    "tune.surrogate_reject_frac",
}
DEFAULT_BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "BENCHMARK.json")


class Refused(Exception):
    """The inputs cannot be compared."""


def summary(values):
    """(median, q1, q3) as statistics.median / quantiles(n=4) give."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def check_documents(parents, changes):
    """Refuse mismatched or unusable inputs."""
    docs = parents + changes
    for doc in docs:
        if doc.get("schema") != SCHEMA:
            raise Refused("not a %s document" % SCHEMA)
    if len(parents) != len(changes):
        raise Refused("%d parent documents but %d change documents"
                      % (len(parents), len(changes)))
    reference = {key: docs[0]["env"].get(key) for key in ENV_KEYS}
    for doc in docs[1:]:
        env = {key: doc["env"].get(key) for key in ENV_KEYS}
        if env != reference:
            raise Refused("environment blocks differ: %s vs %s"
                          % (reference, env))
    for parent, change in zip(parents, changes):
        if parent.get("seed") != change.get("seed"):
            raise Refused("paired runs used seeds %s and %s"
                          % (parent.get("seed"), change.get("seed")))
        if parent.get("mode") != change.get("mode"):
            raise Refused("paired runs are %s and %s runs"
                          % (parent.get("mode"), change.get("mode")))


def workload_runs(docs, name):
    runs = []
    for doc in docs:
        for run in doc["workloads"]:
            if run["name"] == name:
                runs.append(run)
    return runs


def series(runs, metric):
    """Every repetition's value of `metric`, runs concatenated."""
    values = []
    for run in runs:
        entry = run.get("metrics", {}).get(metric)
        if entry is not None:
            values.extend(entry["values"])
    return values


def compare_metric(parent, change, better, bound, exact):
    """The verdict row for one (workload, metric)."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        raise Refused("%d pairs; at least %d are needed"
                      % (len(pairs), MIN_PAIRS))
    sign = 1.0 if better == "higher" else -1.0
    p_med, p_q1, p_q3 = summary(parent)
    c_med, c_q1, c_q3 = summary(change)
    row = {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "pairs": len(pairs),
        "wins": sum(1 for p, c in pairs if sign * (c - p) > 0),
        "bound": bound,
    }
    if exact:
        row["bound"] = None
        moved = [sign * (c - p) for p, c in pairs]
        if all(m == 0 for m in moved):
            row["status"] = "equal"
        elif any(m < 0 for m in moved):
            row["status"] = "regressed"
        elif all(m > 0 for m in moved):
            row["status"] = "improved"
        else:
            row["status"] = "changed"
        return row
    worse_by = sign * (p_med - c_med) / p_med if p_med else 0.0
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    if better == "higher":
        all_better = min(change) > max(parent)
        all_worse = max(change) < min(parent)
    else:
        all_better = max(change) < min(parent)
        all_worse = min(change) > max(parent)
    if (row["wins"] >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) > p_q3 - p_q1):
        row["status"] = "improved"
    elif worse_by > bound and (spread <= bound or all_worse):
        row["status"] = "regressed"
    elif spread > bound and not all_better:
        row["status"] = "unresolved"
    else:
        row["status"] = "unchanged"
    row["spread"] = spread
    return row


def compare(parents, changes, benchmark):
    """Every verdict row, plus digest and failure notes."""
    check_documents(parents, changes)
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    rows = []
    notes = []
    names = [run["name"] for run in parents[0]["workloads"]]
    for name in names:
        p_runs = workload_runs(parents, name)
        c_runs = workload_runs(changes, name)
        if len(p_runs) != len(c_runs):
            raise Refused("workload %s is missing from some runs" % name)
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            failed = sum(len([r for r in run.get("repetitions", [])
                              if not r.get("ok", True)]) for run in runs)
            if failed:
                notes.append("%s %s: %d failed repetitions"
                             % (name, side, failed))
        for metric, spec in end_to_end.items():
            parent = series(p_runs, metric)
            change = series(c_runs, metric)
            if not parent or not change:
                continue
            row = compare_metric(parent, change, spec["better"],
                                 spec["bound"], metric in EXACT)
            row.update(workload=name, metric=metric, unit=spec["unit"])
            rows.append(row)
        for metric in sorted(EXACT - set(end_to_end)):
            parent = [r["traced"]["metrics"][metric]["value"]
                      for r in p_runs
                      if metric in r.get("traced", {}).get("metrics", {})]
            change = [r["traced"]["metrics"][metric]["value"]
                      for r in c_runs
                      if metric in r.get("traced", {}).get("metrics", {})]
            if parent and change and parent != change:
                notes.append("%s %s: exact count differs (%s -> %s)"
                             % (name, metric, parent, change))
        for p_run, c_run in zip(p_runs, c_runs):
            p_digest = p_run.get("digest") or p_run.get(
                "traced", {}).get("digest_scenario")
            c_digest = c_run.get("digest") or c_run.get(
                "traced", {}).get("digest_scenario")
            if p_digest != c_digest:
                notes.append("%s: outcome digest %s -> %s (simulated "
                             "output changed)" % (name, p_digest, c_digest))
                break
    return rows, notes


def format_row(row):
    p_med, p_q1, p_q3 = row["parent"]
    c_med, c_q1, c_q3 = row["change"]
    return ("%-15s %-18s %-10s parent %.6g [%.6g..%.6g]  change %.6g "
            "[%.6g..%.6g]  wins %d/%d  bound %s"
            % (row["workload"], row["metric"], row["status"], p_med, p_q1,
               p_q3, c_med, c_q1, c_q3, row["wins"], row["pairs"],
               "exact" if row["bound"] is None else "%g" % row["bound"]))


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare bench_perf runs of a parent and a change.")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                        help="BENCHMARK.json with the bounds")
    args = parser.parse_args(argv)
    try:
        rows, notes = compare([load(p) for p in args.parent],
                              [load(c) for c in args.change],
                              load(args.benchmark))
    except Refused as error:
        print("perf_diff: refused: %s" % error, file=sys.stderr)
        return 2
    for row in rows:
        print(format_row(row))
    for note in notes:
        print("note: " + note)
    statuses = {row["status"] for row in rows}
    if "regressed" in statuses:
        return 1
    return 3 if "unresolved" in statuses else 0


if __name__ == "__main__":
    sys.exit(main())
