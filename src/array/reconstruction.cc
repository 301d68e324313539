#include "array/reconstruction.hh"

#include <cassert>
#include <cstddef>

namespace pddl {

ReconstructionEngine::ReconstructionEngine(EventQueue &events,
                                           ArrayController &array,
                                           int failed_disk,
                                           int64_t stripes,
                                           int max_parallel)
    : events_(events), array_(array), layout_(array.layout()),
      probe_(array.config().probe), failed_disk_(failed_disk),
      stripes_(stripes), max_parallel_(max_parallel)
{
    assert(layout_.hasSparing() &&
           "reconstruction targets distributed spare space");
    assert(failed_disk_ >= 0 && failed_disk_ < layout_.numDisks());
    assert(max_parallel_ >= 1);
    if (stripes_ <= 0) {
        stripes_ = array_.dataUnits() /
                   layout_.dataUnitsPerStripe();
    }
}

void
ReconstructionEngine::start(std::function<void()> done)
{
    assert(!done_ && "engine can only run once");
    done_ = std::move(done);
    start_time_ = events_.now();
    probe_.lane(obs::kLaneRebuild, "rebuild");
    probe_.asyncBegin("rebuild", "rebuild", obs::kLaneRebuild,
                      static_cast<uint64_t>(failed_disk_),
                      start_time_);
    pump();
}

void
ReconstructionEngine::cancel()
{
    cancelled_ = true;
}

void
ReconstructionEngine::pump()
{
    if (cancelled_)
        return;
    while (in_flight_ < max_parallel_ && next_stripe_ < stripes_)
        rebuildStripe(next_stripe_++);
    if (in_flight_ == 0 && next_stripe_ >= stripes_ && !complete_) {
        complete_ = true;
        finish_time_ = events_.now();
        probe_.asyncEnd("rebuild", "rebuild", obs::kLaneRebuild,
                        static_cast<uint64_t>(failed_disk_),
                        finish_time_);
        probe_.observe("rebuild.duration_ms", durationMs());
        if (done_)
            done_();
    }
}

void
ReconstructionEngine::rebuildStripe(int64_t stripe)
{
    const int width = layout_.stripeWidth();

    // Locate the failed unit; stripes untouched by the failure are
    // skipped without I/O (the sweep just advances).
    int failed_pos = -1;
    for (int pos = 0; pos < width; ++pos) {
        if (layout_.map({stripe, pos}).disk == failed_disk_) {
            failed_pos = pos;
            break;
        }
    }
    if (failed_pos < 0)
        return;

    PhysAddr lost = layout_.map({stripe, failed_pos});
    PhysAddr home = layout_.relocatedAddress(failed_disk_, lost.unit);

    ++in_flight_;
    uint32_t slot = free_slot_;
    if (slot != kNilSlot) {
        free_slot_ = slots_[slot].next_free;
    } else {
        slot = static_cast<uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    StripeRebuild &rebuild = slots_[slot];
    rebuild.outstanding = width - 1;
    rebuild.home = home;
    rebuild.stripe = stripe;
    rebuild.launch_ms = events_.now();
    for (int pos = 0; pos < width; ++pos) {
        if (pos == failed_pos)
            continue;
        PhysAddr addr = layout_.map({stripe, pos});
        ++reads_issued_;
        probe_.count("rebuild.reads");
        array_.submitUnit(addr.disk, addr.unit, false,
                          [this, slot] { survivorRead(slot); });
    }
}

void
ReconstructionEngine::survivorRead(uint32_t slot)
{
    StripeRebuild &rebuild = slots_[slot];
    if (--rebuild.outstanding > 0)
        return;
    // All survivors read: XOR is free, write the rebuilt unit to its
    // spare home.
    array_.submitUnit(rebuild.home.disk, rebuild.home.unit, true,
                      [this, slot] { spareWritten(slot); });
}

void
ReconstructionEngine::spareWritten(uint32_t slot)
{
    StripeRebuild &rebuild = slots_[slot];
    const int64_t stripe = rebuild.stripe;
    const double launch_ms = rebuild.launch_ms;
    rebuild.next_free = free_slot_;
    free_slot_ = slot;
    ++units_rebuilt_;
    --in_flight_;
    probe_.count("rebuild.units_rebuilt");
    probe_.complete("stripe", "rebuild", obs::kLaneRebuild, launch_ms,
                    events_.now() - launch_ms,
                    {{"stripe", static_cast<double>(stripe)}});
    pump();
}

} // namespace pddl
