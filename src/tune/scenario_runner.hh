/**
 * @file
 * ScenarioSpec -> one deterministic simulation -> ScenarioOutcome.
 *
 * The one way to run a scenario: it builds the whole simulated
 * system a ScenarioSpec describes (the backend, the optional
 * write-back tier, the fault timeline, the open- or closed-loop
 * client), runs it to drain -- or, for a mission, to its fixed length
 * under a drawn fault timeline -- and reports every simulated
 * quantity a bench row or the tuner's objective could want. The
 * backend is one bare ArrayController on one EventQueue for a
 * one-shard spec with dispatch_ms 0 ("no fabric", the paper's array
 * exactly as the figure benches always built it), else the sharded
 * VolumeManager on the windowed engine. Nothing in the outcome
 * depends on host timing: the engine's windows and barrier order are
 * a function of simulation state alone, so the history -- and hence
 * every number here -- is byte-identical from run to run.
 *
 * Byte-fairness: the spec's access mix is in KB and its cache
 * capacity in KB, so runs of the same scenario at different
 * unit_sectors move the same bytes through the same budget -- the
 * stripe-unit knob cannot game the objective by shrinking accesses.
 *
 * The same runner backs every paper figure and ablation, bench_traffic,
 * bench_hybrid, bench_reliability, bench_scaleout and bench_autotune,
 * which is what makes a tuner-dumped JSON replayable bit-identically
 * from the file alone.
 */

#ifndef PDDL_TUNE_SCENARIO_RUNNER_HH
#define PDDL_TUNE_SCENARIO_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario_spec.hh"
#include "obs/probe.hh"
#include "stats/welford.hh"
#include "traffic/trace.hh"

namespace pddl {
namespace tune {

/** Everything one scenario run measured (all simulated quantities). */
struct ScenarioOutcome
{
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double p999_ms = 0.0;
    /** Completions per second over the measurement window. */
    double throughput_per_s = 0.0;
    int64_t samples = 0;
    int max_outstanding = 0;
    /** Logical accesses the backend served (no fabric: the array's
     *  count, rebuild unit operations included). */
    int64_t backend_accesses = 0;

    // Closed loop only: the mean's 95 % CI half-width (ms) and the
    // per-access seek-class averages (Figure 4).
    double ci_half_width_ms = 0.0;
    double non_local_seeks = 0.0;
    double cylinder_switches = 0.0;
    double track_switches = 0.0;
    double no_switches = 0.0;

    // Cache tier counters (zero when the tier is disabled).
    double hit_rate = 0.0;
    int64_t writes_absorbed = 0;
    int64_t write_stalls = 0;
    int64_t destage_runs = 0;
    int64_t destage_units = 0;
    int64_t dirty_end = 0;
    /** Writes still stalled at drain: a wedged cache, not latency. */
    int64_t stalled_end = 0;

    // Fault timeline counters, summed over the shards' schedulers
    // (zero when no faults are scripted and no mission runs).
    int rebuilds_completed = 0;
    bool data_loss = false;
    int failures_applied = 0;
    /** Simulated time of the earliest data loss (0: none). */
    double data_loss_ms = 0.0;
    /** Simulated time spent in degraded service. */
    double degraded_ms = 0.0;
    Welford rebuild_ms;
    int latent_injected = 0;
    int64_t latent_detected = 0;
    int64_t scrub_repairs = 0;
    int64_t scrub_units_scanned = 0;

    // Closed loop only: every measured response, and (missions only)
    // those of accesses issued while the shard was rebuilding.
    Welford response_ms;
    Welford degraded_response_ms;

    // Engine and volume counters (the volume ones stay zero without
    // a fabric; windows_run too).
    int64_t events_fired = 0;
    int64_t windows_run = 0;
    /** Simulated clock at the end of the run. */
    double sim_ms = 0.0;
    /** Post-split shard requests the volume issued. */
    int64_t sub_accesses = 0;
    /** Deepest per-shard sub-access queue seen. */
    int max_in_flight = 0;
    /** Shards not fault-free when the run ended. */
    int degraded_shards_end = 0;

    // Volume shape, for equal-budget comparisons across configs.
    /** Sum over shards of disks x DeviceModel::costUnits(). */
    double cost_units = 0.0;
    /** Client-visible capacity of the whole volume, in stripe units. */
    int64_t capacity_units = 0;
    /** Accesses each shard served (how tiering split the traffic). */
    std::vector<int64_t> shard_accesses;
};

/** Per-run knobs that are protocol, not scenario, state. */
struct RunScenarioOptions
{
    uint64_t seed = 42;
    /** Ignored: the engine runs its lanes on the calling thread.
     *  Kept only for callers that still set it. */
    int sim_threads = 1;
    /** Record the offered accesses into this trace file when set;
     *  an unwritable path throws std::runtime_error after the run. */
    std::string capture_path;
    /** Replay this trace instead of the spec's synthetic client. */
    const std::vector<traffic::TraceRecord> *replay = nullptr;
    /** Sinks for the queue(s), controller(s), volume and cache (not
     *  the client). Default off; must outlive the run. */
    obs::Probe probe;
};

/**
 * Build and run the scenario. The spec must be normalized (built by
 * ScenarioSpec::parse(), or normalize() called); malformed specs
 * throw std::runtime_error rather than simulate garbage.
 */
ScenarioOutcome runScenario(const ScenarioSpec &spec,
                            const RunScenarioOptions &options);

/** What the tuner minimizes. */
enum class Objective
{
    P99,
    P999,
    Mean,
    P95,
};

const char *objectiveName(Objective objective);
bool parseObjective(const std::string &text, Objective &objective,
                    std::string &error);

/**
 * Scalar score of an outcome, lower is better. Infeasible outcomes
 * -- data loss, or writes still stalled at drain -- score +infinity,
 * so the search can never trade correctness for latency.
 */
double objectiveOf(const ScenarioOutcome &outcome,
                   Objective objective);

} // namespace tune
} // namespace pddl

#endif // PDDL_TUNE_SCENARIO_RUNNER_HH
