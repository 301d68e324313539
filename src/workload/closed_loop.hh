/**
 * @file
 * Closed-loop synthetic workload and simulation driver.
 *
 * The paper's workload (Table 2): a fixed number of clients, each
 * generating one logical access at a time -- fixed size, aligned to a
 * stripe-unit boundary, start uniformly distributed over the client
 * data -- blocking until the target completes it, then immediately
 * issuing the next. Experiments run until the measured mean response
 * time is within a relative tolerance at 95% confidence (2% in the
 * paper).
 *
 * ClosedLoopClient is the Workload-interface driver: it runs against
 * any Target (a single ArrayController or a sharded VolumeManager).
 * Whole experiments are described as a ScenarioSpec and run by
 * tune::runScenario, which builds the target and drives this client.
 */

#ifndef PDDL_WORKLOAD_CLOSED_LOOP_HH
#define PDDL_WORKLOAD_CLOSED_LOOP_HH

#include <cstdint>
#include <optional>

#include "array/request_mapper.hh"
#include "disk/disk.hh"
#include "layout/layout.hh"
#include "obs/probe.hh"
#include "stats/welford.hh"
#include "traffic/offset_dist.hh"
#include "util/rng.hh"
#include "workload/workload.hh"

namespace pddl {

/**
 * Workload-only knobs of the closed loop (named-parameter style:
 * designated initializers cover any subset). Array construction
 * knobs live in ArrayConfig / ScenarioSpec, not here -- a client can
 * be pointed at any Target.
 */
struct ClosedLoopConfig
{
    int clients = 1;
    /** Access size in stripe units (8 KB units in the paper). */
    int access_units = 1;
    AccessType type = AccessType::Read;
    /**
     * Fixed pause between a completion and the client's next issue;
     * 0 reproduces the paper's think-free clients.
     */
    double think_time_ms = 0.0;

    /** Stopping rule: relative CI half-width at 95% confidence. */
    double relative_tolerance = 0.02;
    int64_t min_samples = 400;
    int64_t max_samples = 200000;
    /** Completions discarded before measurement starts. */
    int64_t warmup = 200;
    uint64_t seed = 42;

    /** Where accesses land (uniform reproduces the paper). */
    traffic::OffsetSpec offsets;

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

/** Measured outcome of one closed-loop experiment. */
struct SimResult
{
    double mean_response_ms = 0.0;
    double ci_half_width_ms = 0.0;
    /** Logical accesses per second during the measurement window. */
    double throughput_per_s = 0.0;
    int64_t samples = 0;
    /** Per-logical-access seek classification averages (Figure 4). */
    double non_local_seeks = 0.0;
    double cylinder_switches = 0.0;
    double track_switches = 0.0;
    double no_switches = 0.0;
};

/**
 * The paper's closed-loop client population as a Workload: start()
 * launches `clients` independent clients against the target; the
 * caller runs the event loop to completion (the population drains
 * itself once the stopping rule is met) and reads result().
 */
class ClosedLoopClient : public Workload
{
  public:
    explicit ClosedLoopClient(ClosedLoopConfig config);

    void start(EventQueue &events, Target &target) override;

    /**
     * Stop issuing now (e.g. the array lost data). Accesses already
     * in flight still complete and are measured.
     */
    void stop() { done_ = true; }

    /** Every measured response time so far. */
    const Welford &response() const { return response_; }

    /** Measured outcome; valid once the event loop has drained. */
    SimResult result() const;

  private:
    /**
     * Sticky stop decision: the confidence test can flicker (pass at
     * n samples, fail at n+1), and letting individual clients drop
     * out would silently change the offered concurrency mid-run.
     */
    bool finished();
    void issueOne();

    ClosedLoopConfig config_;
    EventQueue *events_ = nullptr;
    Target *target_ = nullptr;
    Rng rng_{0};
    /** Built in start() (the domain is the target's dataUnits). */
    std::optional<traffic::OffsetSampler> offsets_;

    Welford response_;
    int64_t completions_ = 0;
    bool measuring_ = false;
    bool done_ = false;
    SimTime measure_start_ = 0.0;
    /** Time of the last measured completion (closes the window). */
    SimTime measure_end_ = 0.0;
    SeekTally tally_at_start_;
    int64_t accesses_at_start_ = 0;
};

} // namespace pddl

#endif // PDDL_WORKLOAD_CLOSED_LOOP_HH
