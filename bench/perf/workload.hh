/**
 * @file
 * The benchmark's workloads and the end-to-end measurement of one
 * repetition.
 *
 * A workload is a ScenarioSpec JSON file under bench/perf/workloads/.
 * Three of them are simulated once per repetition through
 * tune::runScenario; `autotune` runs tune::tune from its spec as the
 * baseline. Every repetition reports host time, the simulated client
 * accesses that time bought, heap allocations, and an outcome digest:
 * FNV-1a over every simulated field at %.17g. The digest is not a
 * golden value. It lets a speed-only change show that its simulated
 * output is byte-identical, and it is what the repetitions of one run
 * are checked against each other with.
 */

#ifndef PDDL_BENCH_PERF_WORKLOAD_HH
#define PDDL_BENCH_PERF_WORKLOAD_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario_spec.hh"
#include "tune/scenario_runner.hh"
#include "tune/tuner.hh"

namespace pddl {
namespace perf {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since `start`. */
double secondsSince(Clock::time_point start);

/**
 * CPU seconds this process has run so far (CLOCK_PROCESS_CPUTIME_ID),
 * the clock of every end-to-end time. Under a hypervisor it leaves
 * out the time the vCPU was handed to another guest (steal time),
 * which wall time on a shared host is full of.
 */
double cpuSeconds();

/** The workloads, in the order the driver interleaves them. */
const std::vector<std::string> &workloadNames();

/** Sample budgets are divided by this under --quick. */
constexpr int kQuickDivisor = 50;

/** One loaded workload. */
struct Workload
{
    std::string name;
    /** The spec file's text; setup_s starts its clock at the parse. */
    std::string text;
    /** The parsed spec at the size this run simulates. */
    ScenarioSpec spec;
    /** Searched with tune::tune instead of simulated once. */
    bool autotune = false;
    bool quick = false;
};

/**
 * Read workloads/<name>.json. @throws std::runtime_error on an
 * unknown name, an unreadable file or an invalid spec.
 */
Workload loadWorkload(const std::string &name, bool quick);

/**
 * Parse a workload's text at the size the run simulates (the
 * --quick scaling is part of the parse, so setup_s times it too).
 * @throws std::runtime_error on an invalid spec.
 */
ScenarioSpec parseWorkloadSpec(const Workload &workload);

/**
 * The autotune workload's search: 32 chains x 2 moves on one thread,
 * the training seed of bench_autotune, chain seeds from `seed`.
 * Many short chains rather than a few long ones: each seed walks a
 * different path, and a path that settles on, say, 4 KB stripe units
 * doubles the cost of every later evaluation on it. More independent
 * chains average that out. For the same ~45 evaluations, the spread
 * across ten seeds of allocations per access falls from 0.08 (8 x 8)
 * to 0.04, and that of accesses per CPU second about halves.
 */
tune::TuneOptions tuneOptions(uint64_t seed, bool quick);

/**
 * Measured completions one run of `spec` reports. A closed loop stops
 * issuing once `samples` completions are measured, but the accesses
 * its other clients still have in flight complete and are measured
 * too, so it reports clients - 1 more.
 */
int64_t measuredSamples(const ScenarioSpec &spec);

/** Client accesses one run of `spec` issues (warmup + measured). */
int64_t clientAccesses(const ScenarioSpec &spec);

/** FNV-1a over every ScenarioOutcome field, as 16 hex digits. */
std::string outcomeDigest(const tune::ScenarioOutcome &outcome);

/** FNV-1a over the winner's describe() and the objectives. */
std::string tuneDigest(const tune::TuneResult &result);

/**
 * The per-run correctness checks on a simulated outcome: the sample
 * count the spec implies (measuredSamples), no data loss, no write
 * still stalled at drain, one completed rebuild per scripted fault.
 * @return an empty string when every check passes, else what failed.
 */
std::string checkOutcome(const ScenarioSpec &spec,
                         const tune::ScenarioOutcome &outcome);

/** What one end-to-end repetition measured. */
struct Repetition
{
    /** CPU seconds of the run (cpuSeconds). */
    double host_s = 0.0;
    /** Simulated client accesses (all evaluations for autotune). */
    double accesses = 0.0;
    uint64_t allocations = 0;
    std::string digest;
    /** Empty when the repetition passed its checks. */
    std::string error;
};

/**
 * Run one repetition: runScenario, or tune for autotune, on one
 * engine lane. Exceptions propagate to the caller.
 */
Repetition runRepetition(const Workload &workload, uint64_t seed);

} // namespace perf
} // namespace pddl

#endif // PDDL_BENCH_PERF_WORKLOAD_HH
