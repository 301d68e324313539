#include "disk/disk.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <utility>

namespace pddl {

Disk::Disk(EventQueue &events, const DeviceModel &device,
           int sstf_window, int id, obs::Probe probe)
    : events_(events), device_(&device), window_(sstf_window), id_(id),
      probe_(probe), lane_(obs::kLaneDisk0 + id)
{
    assert(window_ >= 1);
    if (probe_.tracing())
        probe_.lane(lane_, "disk " + std::to_string(id_));
}

void
Disk::submit(DiskRequest &&request)
{
    assert(request.sectors >= 1);
    assert(request.lba >= 0 &&
           request.lba + request.sectors <= device_->totalSectors());
    if (waiting_ == capacity())
        grow();
    const uint32_t index = free_;
    Slot &slot = slab_[index];
    free_ = slot.next;
    slot.position = device_->locate(request.lba);
    slot.next = kNoSlot;
    slot.submit_ms = events_.now();
    slot.request = std::move(request);
    if (tail_ == kNoSlot)
        head_ = index;
    else
        slab_[tail_].next = index;
    tail_ = index;
    ++waiting_;
    probe_.counterSample("queue depth", lane_, events_.now(), "depth",
                         static_cast<double>(waiting_));
    if (!busy_)
        startNext();
}

void
Disk::grow()
{
    const size_t old_slots = slab_.size();
    const size_t capacity = old_slots == 0 ? 8 : 2 * (old_slots - 1);
    std::vector<Slot> bigger(capacity + 1);
    for (size_t i = 0; i < old_slots; ++i)
        bigger[i] = std::move(slab_[i]);
    // The new slots go on top of the free stack, lowest id first.
    for (size_t i = capacity + 1; i-- > old_slots;) {
        bigger[i].next = free_;
        free_ = static_cast<uint32_t>(i);
    }
    slab_.swap(bigger);
}

void
Disk::injectLatentError(int64_t lba)
{
    assert(lba >= 0 && lba < device_->totalSectors());
    latent_lbas_.insert(lba);
}

bool
Disk::hasLatentErrorIn(int64_t lba, int sectors) const
{
    auto it = latent_lbas_.lower_bound(lba);
    return it != latent_lbas_.end() && *it < lba + sectors;
}

void
Disk::touchLatentErrors(int64_t lba, int sectors, bool write)
{
    if (latent_lbas_.empty())
        return;
    auto it = latent_lbas_.lower_bound(lba);
    while (it != latent_lbas_.end() && *it < lba + sectors) {
        if (write) {
            // Overwriting a latent sector remaps it: healed.
            ++errors_repaired_;
            probe_.count("disk.medium_errors_repaired");
            it = latent_lbas_.erase(it);
        } else {
            // A read surfaces the error; the sector stays bad until
            // something rewrites it.
            probe_.count("disk.medium_errors_detected");
            probe_.instant("medium error", "fault", lane_,
                           events_.now(),
                           {{"lba", static_cast<double>(*it)}});
            if (medium_error_hook_)
                medium_error_hook_(*it);
            ++it;
        }
    }
}

void
Disk::startNext()
{
    assert(!busy_ && waiting_ > 0);

    // SSTF over the scan window: nearest cylinder (position-free
    // devices locate every LBA at cylinder 0, degenerating to FCFS)
    // wins, earliest arrival breaks ties (keeps the policy
    // starvation-resistant for the closed-loop workloads we simulate).
    const Slot *slots = slab_.data();
    const int arm = mech_.cylinder;
    const size_t window = std::min<size_t>(window_, waiting_);
    uint32_t best = head_;
    uint32_t before_best = kNoSlot;
    int best_distance = std::abs(slots[head_].position.cylinder - arm);
    uint32_t previous = head_;
    for (size_t i = 1; i < window; ++i) {
        const uint32_t candidate = slots[previous].next;
        const int distance =
            std::abs(slots[candidate].position.cylinder - arm);
        if (distance < best_distance) {
            best = candidate;
            before_best = previous;
            best_distance = distance;
        }
        previous = candidate;
    }

    // Unlink the pick; it keeps its slot until completion.
    const uint32_t after_best = slots[best].next;
    if (before_best == kNoSlot)
        head_ = after_best;
    else
        slab_[before_best].next = after_best;
    if (tail_ == best)
        tail_ = before_best;
    --waiting_;
    in_service_ = best;
    busy_ = true;
    const Slot &slot = slab_[best];
    const DiskRequest &request = slot.request;

    // Classify before the arm moves (section 4's local/non-local).
    const bool same_access =
        has_last_ && request.access_id == last_access_id_;
    SeekClass cls = device_->classify(mech_, slot.position,
                                      same_access);
    tally_.add(cls);
    last_access_id_ = request.access_id;
    has_last_ = true;

    const double dispatch_ms = events_.now();
    if (probe_.on()) {
        static const char *const kSeekCounter[] = {
            "disk.seek.non_local", "disk.seek.cylinder_switch",
            "disk.seek.track_switch", "disk.seek.no_switch"};
        probe_.count(kSeekCounter[static_cast<int>(cls)]);
        probe_.count(request.write ? "disk.writes" : "disk.reads");
        probe_.observe("disk.queue_wait_ms",
                       dispatch_ms - slot.submit_ms);
    }

    SimTime service =
        device_->serviceTime(events_.now(), slot.position,
                             request.sectors, request.write, mech_);
    busy_ms_ += service;
    if (probe_.on()) {
        probe_.observe("disk.service_ms", service);
        probe_.complete(request.write ? "write" : "read", "disk",
                        lane_, dispatch_ms, service,
                        {{"lba", static_cast<double>(request.lba)},
                         {"access",
                          static_cast<double>(request.access_id)}});
        probe_.counterSample("disk busy", lane_, dispatch_ms, "busy",
                             1.0);
    }
    events_.scheduleAfter(service, [this] { completeService(); });
}

void
Disk::completeService()
{
    assert(busy_);
    // Detach everything the epilogue needs and free the slot before
    // firing `done`: the callback may submit new work, which can take
    // this slot and start the next service.
    Slot &slot = slab_[in_service_];
    const int64_t lba = slot.request.lba;
    const int sectors = slot.request.sectors;
    const bool write = slot.request.write;
    InlineCallback done = std::move(slot.request.done);
    slot.next = free_;
    free_ = in_service_;

    busy_ = false;
    if (probe_.tracing()) {
        probe_.counterSample("disk busy", lane_, events_.now(),
                             "busy", 0.0);
        probe_.counterSample("queue depth", lane_, events_.now(),
                             "depth", static_cast<double>(waiting_));
    }
    touchLatentErrors(lba, sectors, write);
    if (done)
        done();
    // The completion callback may have enqueued more work.
    if (!busy_ && waiting_ > 0)
        startNext();
}

} // namespace pddl
