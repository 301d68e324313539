#!/usr/bin/env python3
"""Build bench_perf from this checkout and measure one workload.

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every call configures and builds
bench/perf (with the simulator library it pulls in from the root)
under .bench_build/perf; after the first, both only redo what changed.

--trace 0 repeats the workload for S seconds and reports the median
of every end-to-end metric BENCHMARK.json lists; --trace 1 runs the
traced measurement and reports every per-layer metric. Build and
benchmark logs go to stderr. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. When nothing
could be measured (the build failed, the benchmark crashed) the
script exits non-zero without printing one.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "perf")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (a no-op once done) and bring bench_perf up to date."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "bench_perf", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "bench_perf")


def metric_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def result_line(doc, trace):
    """The result object (see the module docstring) of a pddl-perf-v1 document."""
    run = doc["workloads"][0]
    metrics = {}
    if trace:
        layers = run["traced"].get("metrics", {})
        for name in metric_names("per_layer"):
            entry = layers[name]
            metrics[name] = {"value": entry["value"], "unit": entry["unit"]}
    else:
        for name in metric_names("end_to_end"):
            entry = run["metrics"][name]
            metrics[name] = {"value": entry["median"], "unit": entry["unit"]}
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("run.py: build failed:", error)
        return 1

    out_dir = os.path.join(BUILD, "runs")
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(
        out_dir, "%s-%d-%d.json" % (args.workload, args.seed, args.trace))
    if os.path.exists(json_path):
        os.remove(json_path)
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--json", json_path]
    command += ["--traced"] if args.trace else ["--seconds",
                                                str(args.seconds)]
    subprocess.run(command, stdout=sys.stderr)

    try:
        with open(json_path) as f:
            doc = json.load(f)
        line = result_line(doc, args.trace)
    except (OSError, ValueError, KeyError, IndexError) as error:
        log("run.py: no usable measurement:", repr(error))
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
