#!/usr/bin/env python3
"""End-to-end validation of the observability layer.

Runs one bench binary with --trace/--metrics and checks the contract
the docs promise:

 1. the trace file is valid Chrome trace_event JSON with at least one
    recorded event: known phases, monotone non-decreasing timestamps,
    paired async begin/end ids, named lanes;
 2. the metrics file is a valid pddl-metrics-v1 document with at least
    one series, sorted series names and internally consistent
    histograms;
 3. the BENCH JSON (rows + embedded metrics) and the metrics file are
    bit-identical between --threads=1 and --threads=N once the
    documented wall-clock fields (wall_time_s, threads, wall_ms) are
    stripped.

Usage: validate_obs.py <bench-binary> [--threads N] [--keep]
Exit code 0 on success; prints the first violated check otherwise.
"""

import argparse
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

KNOWN_PHASES = {"X", "b", "e", "i", "C", "M"}

# Host-dependent fields, documented in README as the only ones that
# may differ between runs of the same grid.
WALL_FIELDS = {"wall_time_s", "wall_ms", "threads"}


def fail(message):
    print(f"validate_obs: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition, message):
    if not condition:
        fail(message)


def run_bench(binary, out_dir, threads, trace=False, metrics=False):
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), f"--json={out_dir}", f"--threads={threads}"]
    if trace:
        cmd.append(f"--trace={out_dir}/trace.json")
    if metrics:
        cmd.append(f"--metrics={out_dir}/metrics.json")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    check(proc.returncode == 0,
          f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return out_dir


def validate_trace(path):
    check(path.is_file(), f"trace file {path} was not written")
    with open(path) as fh:
        doc = json.load(fh)

    events = doc.get("traceEvents")
    check(isinstance(events, list), "trace has no traceEvents array")
    check(any(e.get("ph") != "M" for e in events),
          "trace recorded no events (was the probe passed on?)")
    dropped = doc.get("dropped", 0)
    check(dropped >= 0, "negative dropped count")
    # A wrapped flight recorder legitimately loses async begins.
    check_pairing = dropped == 0

    lanes = set()
    named_lanes = set()
    async_open = {}
    last_ts = None
    for event in events:
        phase = event.get("ph")
        check(phase in KNOWN_PHASES, f"unknown phase {phase!r}")
        if phase == "M":
            check(event.get("name") == "thread_name",
                  f"unexpected metadata record {event.get('name')!r}")
            named_lanes.add(event["tid"])
            continue
        ts = event.get("ts")
        check(isinstance(ts, (int, float)) and ts >= 0,
              f"bad timestamp {ts!r}")
        if last_ts is not None:
            check(ts >= last_ts,
                  f"timestamps not monotone: {ts} after {last_ts}")
        last_ts = ts
        lanes.add(event["tid"])
        if phase == "X":
            check(event.get("dur", -1) >= 0,
                  "complete span without a duration")
        if phase == "b":
            key = (event["name"], event.get("id"))
            async_open[key] = async_open.get(key, 0) + 1
        if phase == "e" and check_pairing:
            key = (event["name"], event.get("id"))
            check(async_open.get(key, 0) > 0,
                  f"async end without begin: {key}")
            async_open[key] -= 1
        if phase == "C":
            check("id" in event,
                  "counter sample without an id (tracks would merge)")

    check(lanes <= named_lanes,
          f"unnamed lanes in trace: {sorted(lanes - named_lanes)}")
    phases_seen = {e.get("ph") for e in events}
    for wanted in ("X", "C", "M"):
        check(wanted in phases_seen,
              f"expected at least one {wanted!r} event")
    print(f"validate_obs: trace OK "
          f"({len(events)} events, {len(lanes)} lanes)")


def validate_metrics(path):
    check(path.is_file(), f"metrics file {path} was not written")
    with open(path) as fh:
        doc = json.load(fh)
    check(doc.get("schema") == "pddl-metrics-v1",
          f"unexpected metrics schema {doc.get('schema')!r}")
    metrics = doc.get("metrics", {})

    for section in ("counters", "gauges", "histograms"):
        series = metrics.get(section, {})
        check(isinstance(series, dict), f"{section} is not an object")
        names = list(series)
        check(names == sorted(names), f"{section} names not sorted")

    check(any(metrics.get(section) for section in
              ("counters", "gauges", "histograms")),
          "metrics document has no series (was the probe passed on?)")
    check(metrics.get("counters"), "no counters recorded")
    for name, hist in metrics.get("histograms", {}).items():
        # "buckets" carries one entry per "le" bound plus the
        # overflow bucket; together they partition every sample.
        check(len(hist["buckets"]) == len(hist["le"]) + 1,
              f"histogram {name}: bucket/bound count mismatch")
        in_buckets = sum(hist["buckets"])
        check(in_buckets == hist["count"],
              f"histogram {name}: buckets sum {in_buckets} != "
              f"count {hist['count']}")
        if hist["count"] > 0:
            check(hist["min"] <= hist["max"],
                  f"histogram {name}: min > max")
    print(f"validate_obs: metrics OK "
          f"({len(metrics.get('counters', {}))} counters, "
          f"{len(metrics.get('histograms', {}))} histograms)")


def strip_wall(value):
    if isinstance(value, dict):
        return {k: strip_wall(v) for k, v in value.items()
                if k not in WALL_FIELDS}
    if isinstance(value, list):
        return [strip_wall(v) for v in value]
    return value


def canonical_bench(out_dir):
    docs = {}
    for path in sorted(out_dir.glob("BENCH_*.json")):
        with open(path) as fh:
            docs[path.name] = strip_wall(json.load(fh))
    check(docs, f"no BENCH_*.json produced in {out_dir}")
    return json.dumps(docs, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("binary", help="bench binary to exercise")
    parser.add_argument("--threads", type=int, default=8,
                        help="parallel thread count for the "
                             "determinism check (default 8)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch directory")
    args = parser.parse_args()

    binary = pathlib.Path(args.binary)
    check(binary.is_file(), f"no such bench binary: {binary}")

    scratch = pathlib.Path(tempfile.mkdtemp(prefix="validate_obs_"))
    try:
        serial = run_bench(binary, scratch / "serial", threads=1,
                           trace=True, metrics=True)
        validate_trace(serial / "trace.json")
        validate_metrics(serial / "metrics.json")

        parallel = run_bench(binary, scratch / "parallel",
                             threads=args.threads, metrics=True)
        counts = f"--threads={args.threads}"
        check(canonical_bench(serial) == canonical_bench(parallel),
              f"BENCH rows differ between --threads=1 and {counts} "
              f"(after stripping {sorted(WALL_FIELDS)})")
        serial_metrics = (serial / "metrics.json").read_bytes()
        parallel_metrics = (parallel / "metrics.json").read_bytes()
        check(serial_metrics == parallel_metrics,
              "metrics files differ between thread counts")
        print(f"validate_obs: determinism OK "
              f"(--threads=1 == {counts})")
    finally:
        if args.keep:
            print(f"validate_obs: scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)

    print("validate_obs: PASS")


if __name__ == "__main__":
    main()
