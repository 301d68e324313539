#include "disk/disk.hh"

#include <cstddef>
#include <cassert>
#include <cmath>
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
Disk::submit(DiskRequest request)
{
    assert(request.sectors >= 1);
    assert(request.lba >= 0 &&
           request.lba + request.sectors <= device_->totalSectors());
    request.submit_ms = events_.now();
    request.position = device_->locate(request.lba);
    queue_.push_back(std::move(request));
    probe_.counterSample("queue depth", lane_, events_.now(), "depth",
                         static_cast<double>(queue_.size()));
    if (!busy_)
        startNext();
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
            ++errors_detected_;
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
    assert(!busy_ && !queue_.empty());

    // SSTF over the scan window: nearest cylinder (position-free
    // devices locate every LBA at cylinder 0, degenerating to FCFS)
    // wins, earliest arrival breaks ties (keeps the policy
    // starvation-resistant for the closed-loop workloads we simulate).
    size_t window = std::min<size_t>(window_, queue_.size());
    size_t best = 0;
    int best_distance =
        std::abs(queue_[0].position.cylinder - mech_.cylinder);
    for (size_t i = 1; i < window; ++i) {
        int distance =
            std::abs(queue_[i].position.cylinder - mech_.cylinder);
        if (distance < best_distance) {
            best = i;
            best_distance = distance;
        }
    }

    in_service_ = queue_.take(best);
    busy_ = true;
    const DiskRequest &request = in_service_;

    // Classify before the arm moves (section 4's local/non-local).
    const bool same_access =
        has_last_ && request.access_id == last_access_id_;
    SeekClass cls = device_->classify(mech_, request.position,
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
                       dispatch_ms - request.submit_ms);
    }

    SimTime service =
        device_->serviceTime(events_.now(), request.position,
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
    // Detach everything the epilogue needs before firing `done`: the
    // callback may submit new work, which can start the next service
    // and overwrite in_service_.
    const int64_t lba = in_service_.lba;
    const int sectors = in_service_.sectors;
    const bool write = in_service_.write;
    InlineCallback done = std::move(in_service_.done);

    busy_ = false;
    if (probe_.tracing()) {
        probe_.counterSample("disk busy", lane_, events_.now(),
                             "busy", 0.0);
        probe_.counterSample("queue depth", lane_, events_.now(),
                             "depth",
                             static_cast<double>(queue_.size()));
    }
    touchLatentErrors(lba, sectors, write);
    if (done)
        done();
    // The completion callback may have enqueued more work.
    if (!busy_ && !queue_.empty())
        startNext();
}

} // namespace pddl
