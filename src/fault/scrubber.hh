/**
 * @file
 * Background media scrubber.
 *
 * Latent sector errors are harmless alone but fatal in combination
 * with a disk failure: a rebuild that must read every surviving unit
 * of a stripe cannot tolerate a second bad unit. Scrubbing bounds
 * that exposure window by sweeping the media during idle-ish time,
 * reading every unit of every stripe at a fixed pace; a read that
 * surfaces a latent error is followed by a repair write (the stripe's
 * redundancy recomputes the lost contents, accounted as free, and
 * the rewrite remaps the sector).
 *
 * The sweep walks stripes, not raw disk blocks, so it needs no
 * reverse unit->stripe mapping and naturally skips a failed disk.
 */

#ifndef PDDL_FAULT_SCRUBBER_HH
#define PDDL_FAULT_SCRUBBER_HH

#include <cstdint>

#include "array/controller.hh"
#include "sim/event_queue.hh"

namespace pddl {

/** Paced, cyclic verify-and-repair sweep over the array's stripes. */
class Scrubber
{
  public:
    /**
     * Sweep every client stripe of `array`, cyclically, pausing
     * `interval_ms` between consecutive stripe scrubs.
     */
    Scrubber(EventQueue &events, ArrayController &array,
             SimTime interval_ms);

    /** Begin the cyclic sweep (idempotent). */
    void start();

    /** Stop issuing scrub I/O; in-flight operations drain. */
    void stop();

    /** Stripe-unit reads issued by the scrubber. */
    int64_t unitsScanned() const { return units_scanned_; }

    /** Latent errors this scrubber repaired (rewrote). */
    int64_t errorsRepaired() const { return errors_repaired_; }

  private:
    void scheduleNext();
    void scrubStripe(int64_t stripe);

    EventQueue &events_;
    ArrayController &array_;
    SimTime interval_ms_;
    /** Stripes per sweep cycle: all client stripes. */
    int64_t stripes_;

    int64_t next_stripe_ = 0;
    int64_t units_scanned_ = 0;
    int64_t errors_repaired_ = 0;
    bool running_ = false;
    bool step_pending_ = false;
};

} // namespace pddl

#endif // PDDL_FAULT_SCRUBBER_HH
