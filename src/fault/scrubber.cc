#include "fault/scrubber.hh"

#include <cassert>
#include <memory>
#include <vector>

namespace pddl {

Scrubber::Scrubber(EventQueue &events, ArrayController &array,
                   SimTime interval_ms)
    : events_(events), array_(array), interval_ms_(interval_ms),
      stripes_(array.dataUnits() / array.layout().dataUnitsPerStripe())
{
    assert(interval_ms_ > 0.0);
}

void
Scrubber::start()
{
    if (running_)
        return;
    running_ = true;
    if (!step_pending_)
        scheduleNext();
}

void
Scrubber::stop()
{
    running_ = false;
}

void
Scrubber::scheduleNext()
{
    assert(!step_pending_);
    step_pending_ = true;
    events_.scheduleAfter(interval_ms_, [this] {
        step_pending_ = false;
        if (!running_)
            return;
        int64_t stripe = next_stripe_++;
        if (next_stripe_ >= stripes_) {
            next_stripe_ = 0;
            array_.config().probe.instant("scrub sweep complete",
                                          "scrub", obs::kLaneScrub,
                                          events_.now());
        }
        scrubStripe(stripe);
    });
}

void
Scrubber::scrubStripe(int64_t stripe)
{
    const Layout &layout = array_.layout();
    const int width = layout.stripeWidth();
    const int failed = array_.failedDisk();

    // Where each unit of the stripe currently lives: skip the failed
    // disk, follow spare relocation after a completed rebuild.
    std::vector<PhysAddr> targets;
    targets.reserve(width);
    for (int pos = 0; pos < width; ++pos) {
        PhysAddr addr = layout.map({stripe, pos});
        if (addr.disk == failed) {
            if (array_.mode() != ArrayMode::PostReconstruction)
                continue;
            addr = layout.relocatedAddress(failed, addr.unit);
        }
        targets.push_back(addr);
    }
    if (targets.empty()) {
        scheduleNext();
        return;
    }

    const obs::Probe &probe = array_.config().probe;
    probe.lane(obs::kLaneScrub, "scrub");
    auto outstanding =
        std::make_shared<int>(static_cast<int>(targets.size()));
    for (const PhysAddr &addr : targets) {
        ++units_scanned_;
        probe.count("scrub.units_scanned");
        array_.submitUnit(addr.disk, addr.unit, false,
                          [this, addr, outstanding] {
                              // The read surfaced (and counted) any
                              // latent error; repair what is still
                              // bad with a rewrite.
                              const int sectors =
                                  array_.config().unit_sectors;
                              int64_t lba =
                                  addr.unit *
                                  static_cast<int64_t>(sectors);
                              bool bad =
                                  addr.disk != array_.failedDisk() &&
                                  array_.disk(addr.disk)
                                      .hasLatentErrorIn(lba, sectors);
                              if (bad && running_) {
                                  ++errors_repaired_;
                                  array_.config().probe.count(
                                      "scrub.errors_repaired");
                                  array_.submitUnit(
                                      addr.disk, addr.unit, true,
                                      [this, outstanding] {
                                          if (--*outstanding == 0)
                                              scheduleNext();
                                      });
                                  return;
                              }
                              if (--*outstanding == 0)
                                  scheduleNext();
                          });
    }
}

} // namespace pddl
