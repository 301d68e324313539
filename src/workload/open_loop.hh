/**
 * @file
 * Open-loop (Poisson) workload with a mixed access profile.
 *
 * The paper notes that "traces or synthetic workloads with a more
 * realistic access mix would be a better predictor of the
 * performance of the arrays in a real situation" (section 4). This
 * extension provides exactly that: exponentially distributed
 * inter-arrival times at a configurable offered rate, a read/write
 * mix, and a distribution over access sizes -- unlike the closed
 * loop, the offered load does not throttle itself when the target
 * saturates.
 *
 * OpenLoopClient is the Workload-interface driver (any Target);
 * tune::runScenario builds the target a ScenarioSpec describes and
 * drives it.
 */

#ifndef PDDL_WORKLOAD_OPEN_LOOP_HH
#define PDDL_WORKLOAD_OPEN_LOOP_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "array/request_mapper.hh"
#include "disk/disk.hh"
#include "layout/layout.hh"
#include "obs/probe.hh"
#include "stats/welford.hh"
#include "traffic/arrival.hh"
#include "traffic/offset_dist.hh"
#include "util/rng.hh"
#include "workload/workload.hh"

namespace pddl {

/** One weighted entry of the access mix. */
struct AccessMixEntry
{
    int units;        ///< access size in stripe units
    AccessType type;  ///< read or write
    double weight;    ///< relative probability
};

/**
 * Workload-only knobs of the open loop (named-parameter style).
 * Array construction knobs live in ArrayConfig / ScenarioSpec.
 */
struct OpenLoopConfig
{
    /** Offered load in logical accesses per second. */
    double arrivals_per_s = 100.0;
    /** Access profile (defaults to 8 KB reads when empty). */
    std::vector<AccessMixEntry> mix;
    /** Measured completions (after warmup). */
    int64_t samples = 2000;
    int64_t warmup = 200;
    uint64_t seed = 42;

    /** Where accesses land (uniform reproduces the paper). */
    traffic::OffsetSpec offsets;
    /** When accesses arrive (Poisson reproduces the paper). */
    traffic::ArrivalSpec arrival;

    /** Measured responses also land here (the tail columns); always
     *  compiled in, unlike `probe`. Null: off. Must outlive the run. */
    obs::HistogramData *latency = nullptr;

    /**
     * Instrumentation: each measured response also feeds the
     * client.latency_ms histogram (the bench tail-latency columns).
     * Default off; the sinks must outlive the run.
     */
    obs::Probe probe;
};

/** Measured outcome of an open-loop experiment. */
struct OpenLoopResult
{
    double mean_response_ms = 0.0;
    /** Completions per second during the measurement window. */
    double completed_per_s = 0.0;
    /** Largest number of in-flight logical accesses observed. */
    int max_outstanding = 0;
    int64_t samples = 0;
};

/**
 * The Poisson arrival process as a Workload: start() schedules the
 * first arrival; each arrival samples the mix, issues without
 * blocking, and schedules its successor until `warmup + samples`
 * arrivals have been offered. The caller runs the event loop and
 * reads result().
 */
class OpenLoopClient : public Workload
{
  public:
    explicit OpenLoopClient(OpenLoopConfig config);

    void start(EventQueue &events, Target &target) override;

    /** Measured outcome; valid once the event loop has drained. */
    OpenLoopResult result() const;

  private:
    void arrive();

    OpenLoopConfig config_;
    EventQueue *events_ = nullptr;
    Target *target_ = nullptr;
    Rng rng_{0};
    double total_weight_ = 0.0;
    /** Built in the constructor (no Rng consumed). */
    std::optional<traffic::ArrivalSampler> arrival_;
    /** Built in start() (the domain is the target's dataUnits). */
    std::optional<traffic::OffsetSampler> offsets_;

    /** Measured responses: their count and running sum. */
    int64_t measured_ = 0;
    double response_sum_ = 0.0;
    int64_t arrivals_ = 0;
    int outstanding_ = 0;
    int max_outstanding_ = 0;
    SimTime measure_start_ = 0.0;
    SimTime last_completion_ = 0.0;
};

} // namespace pddl

#endif // PDDL_WORKLOAD_OPEN_LOOP_HH
