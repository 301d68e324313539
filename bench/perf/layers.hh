/**
 * @file
 * The traced run: per-layer metrics of one workload.
 *
 * Two sources, both timing public library calls from bench code:
 *
 *  (a) microbenches on the workload's own inputs: a captured prefix of
 *      its offered accesses (RunScenarioOptions::capture_path) replayed
 *      into one layer at a time -- offset and arrival draws, the cache
 *      tier over a fixed-delay stub backend, volume routing, request
 *      expansion, layout mapping, disk service -- plus fixed-input
 *      probes of the event queue, the metrics registry, layout-table
 *      builds and the tuner;
 *  (b) one instrumented run of the whole workload on the bench stack
 *      (stack.hh), whose exact counts (events, windows, sub-accesses
 *      and physical ops per access, disk utilization) and host spans
 *      give the rest. Its outcome digest must equal runScenario's.
 *
 * Metrics whose layer the workload does not exercise (the cache on
 * paper_rmw, the tuner on the simulation workloads) still run on that
 * workload's inputs, or on the autotune baseline for tune.*, so every
 * workload reports the same metric set.
 */

#ifndef PDDL_BENCH_PERF_LAYERS_HH
#define PDDL_BENCH_PERF_LAYERS_HH

#include <cstdint>
#include <string>

#include "util/json.hh"
#include "workload.hh"

namespace pddl {
namespace perf {

/**
 * Run the traced measurement of `workload` at `seed`. Writes the span
 * log to `<out_dir>/trace_<name>.json` and uses `out_dir` for the
 * captured prefix. @return a document with "metrics" (name ->
 * {value, unit, layer}), the two outcome digests and "error" (empty
 * when the traced stack reproduced runScenario's digest).
 */
Json tracedRun(const Workload &workload, uint64_t seed,
               const std::string &out_dir);

} // namespace perf
} // namespace pddl

#endif // PDDL_BENCH_PERF_LAYERS_HH
