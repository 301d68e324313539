/**
 * @file
 * Fault injection: a deterministic fault timeline driving the live
 * failure lifecycle of a simulated array.
 *
 * The scheduler owns a timeline of disk failures and latent sector
 * errors (scripted, or drawn from a seeded RNG) and applies them to a
 * running ArrayController: on a failure it flips the array into
 * degraded mode in place, kicks off distributed-spare reconstruction,
 * and returns the array to full service when the rebuild lands. A
 * second failure before the rebuild completes -- or any failure after
 * the single spare is consumed -- is recorded as a data-loss event,
 * the quantity MTTDL-style reliability analyses estimate. An optional
 * background scrubber (see scrubber.hh) sweeps the media to find and
 * repair latent errors before they can pile up under a failure.
 *
 * One simulation can thus run fault-free -> injected failure ->
 * degraded service -> rebuilding -> restored without reconstructing
 * the controller, which is how the reliability benchmarks measure
 * degraded-window response times and data-loss probability in a
 * single continuous experiment.
 */

#ifndef PDDL_FAULT_FAULT_SCHEDULER_HH
#define PDDL_FAULT_FAULT_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "array/controller.hh"
#include "array/reconstruction.hh"
#include "fault/scrubber.hh"
#include "sim/event_queue.hh"
#include "stats/welford.hh"

namespace pddl {

/** One scheduled fault. */
struct FaultEvent
{
    enum class Kind
    {
        DiskFailure,
        LatentError
    };

    SimTime when = 0.0;
    Kind kind = Kind::DiskFailure;
    int disk = 0;
    /** Latent errors only: stripe-unit row hit on the disk. */
    int64_t unit = 0;

    bool
    operator<(const FaultEvent &o) const
    {
        if (when != o.when)
            return when < o.when;
        if (kind != o.kind)
            return kind < o.kind;
        if (disk != o.disk)
            return disk < o.disk;
        return unit < o.unit;
    }
};

/** Parameters of a randomly drawn fault timeline. */
struct FaultDrawParams
{
    /** Timeline horizon (mission time) in simulated ms. */
    SimTime horizon_ms = 0.0;
    int disks = 0;
    /**
     * Per-disk exponential mean time to failure in simulated ms;
     * <= 0 draws no failures. Reliability sweeps use accelerated
     * (compressed) timescales: an MTTF comparable to the rebuild
     * duration, not a real drive's hours.
     */
    double disk_mttf_ms = 0.0;
    /** Per-disk mean time between latent errors; <= 0 disables. */
    double latent_mtbe_ms = 0.0;
    /** Latent errors land on a uniform unit in [0, units_per_disk). */
    int64_t units_per_disk = 0;
};

/**
 * A deterministic fault timeline: events sorted by (time, kind,
 * disk, unit). Scripted timelines just fill `events`; Monte-Carlo
 * trials draw one from a seed.
 */
struct FaultSchedule
{
    std::vector<FaultEvent> events;

    /**
     * Draw a timeline from a seed: per-disk Poisson failure and
     * latent-error processes (exponential inter-arrival times).
     * Identical (seed, params) always yields the identical timeline.
     */
    static FaultSchedule draw(uint64_t seed,
                              const FaultDrawParams &params);
};

/** Array service state as the lifecycle advances. */
enum class FaultState
{
    FaultFree,
    /** A disk is down; its rebuild (if any) is in progress. */
    Rebuilding,
    /** Rebuild landed in spare space: full service restored. */
    Restored,
    /** A stripe lost two units: the array no longer holds the data. */
    DataLoss
};

/** Counters accumulated while the timeline plays out. */
struct FaultStats
{
    int failures_applied = 0;
    int rebuilds_completed = 0;
    int latent_injected = 0;
    int64_t latent_detected = 0;
    bool data_loss = false;
    SimTime data_loss_ms = 0.0;
    std::string data_loss_cause;
    Welford rebuild_ms;
};

/** Plays a fault timeline against a live array. */
class FaultScheduler
{
  public:
    struct Options
    {
        /** Concurrent stripe rebuilds (rebuild aggressiveness). */
        int rebuild_parallel = 4;
        /** Stripes each rebuild sweeps; 0 = all client stripes. */
        int64_t rebuild_stripes = 0;
        /** Scrub pacing; <= 0 runs without a scrubber. */
        SimTime scrub_interval_ms = 0.0;
        /** Observer fired on every lifecycle transition. */
        std::function<void(FaultState)> on_state_change;
    };

    /**
     * Unbound scheduler: carries its timeline and knobs but drives no
     * array yet; bindArray() it once before start(). Sharded volumes
     * construct one scheduler per shard up front and bind each to its
     * shard's controller.
     *
     * @param events shared simulation event queue
     * @param schedule fault timeline to play
     * @param options lifecycle knobs
     */
    FaultScheduler(EventQueue &events, FaultSchedule schedule,
                   Options options);

    /**
     * Bind the scheduler to `array`, once, before start(). The array
     * must be fault-free.
     */
    void bindArray(ArrayController &array);

    /** The array this scheduler drives (nullptr while unbound). */
    ArrayController *array() const { return array_; }

    /** Schedule the whole timeline onto the event queue. */
    void start();

    FaultState state() const { return state_; }
    const FaultStats &stats() const { return stats_; }

    /** Total simulated time spent in degraded service so far. */
    SimTime degradedMs() const;

    /** The background scrubber, when one is configured. */
    const Scrubber *scrubber() const { return scrubber_.get(); }

  private:
    void onFailure(const FaultEvent &event);
    void onLatent(const FaultEvent &event);
    void declareDataLoss(const char *cause);
    void setState(FaultState state);

    EventQueue &events_;
    ArrayController *array_ = nullptr;
    FaultSchedule schedule_;
    Options options_;

    FaultState state_ = FaultState::FaultFree;
    FaultStats stats_;
    SimTime degraded_since_ = 0.0;
    SimTime degraded_total_ = 0.0;
    std::unique_ptr<ReconstructionEngine> engine_;
    std::unique_ptr<Scrubber> scrubber_;
    bool started_ = false;
};

} // namespace pddl

#endif // PDDL_FAULT_FAULT_SCHEDULER_HH
