/**
 * @file
 * Background reconstruction engine.
 *
 * Rebuilds the contents of a failed disk into the layout's
 * distributed spare space while the array keeps serving its client
 * workload -- the "less-intrusive reconstruction" that motivates
 * declustering (paper section 1; Muntz & Liu; Holland & Gibson).
 *
 * The sweep walks the layout stripe by stripe; for every unit the
 * failed disk held, it reads the surviving units of the stripe,
 * XOR-reconstructs (accounted as free, as in the paper's simulator)
 * and writes the rebuilt unit to its spare home. A bounded number of
 * stripes rebuild concurrently so the rebuild competes with, but
 * does not starve, foreground traffic.
 */

#ifndef PDDL_ARRAY_RECONSTRUCTION_HH
#define PDDL_ARRAY_RECONSTRUCTION_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "array/controller.hh"
#include "layout/layout.hh"
#include "sim/event_queue.hh"

namespace pddl {

/** Rebuilds a failed disk's units into distributed spare space. */
class ReconstructionEngine
{
  public:
    /**
     * @param events shared simulation event queue
     * @param array the array carrying both rebuild and client I/O
     * @param failed_disk the disk being reconstructed
     * @param stripes stripes to sweep (0 = every stripe backing the
     *        array's client data)
     * @param max_parallel concurrent stripe rebuilds (rebuild
     *        aggressiveness)
     */
    ReconstructionEngine(EventQueue &events, ArrayController &array,
                         int failed_disk, int64_t stripes = 0,
                         int max_parallel = 4);

    /**
     * Begin the sweep. `done` fires when the last spare write
     * completes.
     */
    void start(std::function<void()> done);

    /**
     * Abandon the sweep (second failure, trial cut short): no new
     * stripes launch, in-flight operations drain without effect, and
     * `done` never fires.
     */
    void cancel();

    bool cancelled() const { return cancelled_; }

    /** Units rebuilt (spare writes completed) so far. */
    int64_t unitsRebuilt() const { return units_rebuilt_; }

    /** Stripe-unit reads issued by the rebuild so far. */
    int64_t readsIssued() const { return reads_issued_; }

    bool complete() const { return complete_; }

    /** Simulated duration of the sweep (valid once complete). */
    SimTime durationMs() const { return finish_time_ - start_time_; }

  private:
    /** Launch stripe rebuilds until max_parallel are in flight. */
    void pump();

    /** Rebuild the failed unit of one stripe (if any). */
    void rebuildStripe(int64_t stripe);

    /** One survivor read of slot's stripe completed. */
    void survivorRead(uint32_t slot);

    /** The rebuilt unit of slot's stripe reached its spare home. */
    void spareWritten(uint32_t slot);

    static constexpr uint32_t kNilSlot = ~uint32_t{0};

    /**
     * One stripe rebuild in flight, pooled in a free-list arena (the
     * ArrayController::Pending pattern): op callbacks carry {engine,
     * slot}, so launching a stripe allocates nothing once the arena
     * has grown to max_parallel slots.
     */
    struct StripeRebuild
    {
        int outstanding = 0; ///< survivor reads still in flight
        PhysAddr home;       ///< spare home of the rebuilt unit
        int64_t stripe = 0;
        double launch_ms = 0.0;
        uint32_t next_free = kNilSlot;
    };

    EventQueue &events_;
    ArrayController &array_;
    const Layout &layout_;
    obs::Probe probe_;
    int failed_disk_;
    int64_t stripes_;
    int max_parallel_;

    int64_t next_stripe_ = 0;
    int in_flight_ = 0;
    int64_t units_rebuilt_ = 0;
    int64_t reads_issued_ = 0;
    bool complete_ = false;
    bool cancelled_ = false;
    SimTime start_time_ = 0.0;
    SimTime finish_time_ = 0.0;
    std::function<void()> done_;

    std::vector<StripeRebuild> slots_;
    uint32_t free_slot_ = kNilSlot;
};

} // namespace pddl

#endif // PDDL_ARRAY_RECONSTRUCTION_HH
