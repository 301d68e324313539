#include "array/controller.hh"

#include <algorithm>
#include <cstddef>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace pddl {

ArrayController::ArrayController(EventQueue &events,
                                 const Layout &layout,
                                 const DeviceModel &device,
                                 const ArrayConfig &config)
    : events_(events), layout_(layout), config_(config),
      mapper_(layout, config.mode, config.failed_disk)
{
    for (int d = 0; d < layout_.numDisks(); ++d) {
        disks_.push_back(std::make_unique<Disk>(events_, device,
                                                config_.sstf_window,
                                                d, config_.probe));
    }
    mapper_.setProbe(config_.probe);
    if (layout_.replicaSched() == ReplicaSched::ShortestQueue) {
        mapper_.setQueueDepthHook([this](int d) {
            return static_cast<int>(disks_[d]->queueDepth()) +
                   (disks_[d]->busy() ? 1 : 0);
        });
    }
    config_.probe.lane(obs::kLaneArray, "array");
    data_units_ = arrayDataUnits(device.totalSectors(), config_.unit_sectors,
                                 layout_.unitsPerDiskPerPeriod(),
                                 layout_.dataUnitsPerPeriod());
    assert(data_units_ >= 1 && "disk too small for one layout pattern");
}

ArrayController::PendingHandle
ArrayController::allocPending()
{
    PendingHandle handle;
    if (free_pending_ != kNilPending) {
        handle = free_pending_;
        free_pending_ = pending_[handle].next_free;
        pending_[handle].next_free = kNilPending;
    } else {
        handle = static_cast<PendingHandle>(pending_.size());
        pending_.emplace_back();
        pending_.back().phase1.reserve(phase1_reserve_);
    }
    return handle;
}

void
ArrayController::freePending(PendingHandle handle)
{
    Pending &pending = pending_[handle];
    pending.outstanding = 0;
    pending.phase1.clear(); // capacity retained for the next access
    pending.phase1_issued = false;
    pending.done.reset();
    pending.next_free = free_pending_;
    free_pending_ = handle;
}

void
ArrayController::access(int64_t start_unit, int count, AccessType type,
                        InlineCallback done)
{
    assert(start_unit >= 0 && start_unit + count <= data_units_);
    const PendingHandle handle = allocPending();
    Pending &pending = pending_[handle];
    pending.id = next_access_id_++;
    pending.start_ms = events_.now();
    pending.done = std::move(done);

    const obs::Probe &probe = config_.probe;
    probe.count(type == AccessType::Read ? "array.reads"
                                         : "array.writes");
    probe.asyncBegin("access", "array", obs::kLaneArray, pending.id,
                     pending.start_ms);

    mapper_.expandInto(start_unit, count, type, scratch_ops_);
    assert(!scratch_ops_.empty());
    probe.count("array.phys_ops",
                static_cast<double>(scratch_ops_.size()));
    scratch_phase0_.clear();
    for (PhysOp &op : scratch_ops_) {
        if (op.phase == 0)
            scratch_phase0_.push_back(op);
        else
            pending.phase1.push_back(op);
    }
    phase1_reserve_ = std::max(phase1_reserve_, pending.phase1.size());
    if (scratch_phase0_.empty()) {
        // No pre-reads: issue the overwrites directly.
        pending.phase1_issued = true;
        issueOps(pending.phase1, handle);
    } else {
        issueOps(scratch_phase0_, handle);
    }
}

void
ArrayController::issueOps(const std::vector<PhysOp> &ops,
                          PendingHandle handle)
{
    assert(!ops.empty());
    // Disk::submit never completes synchronously (service completion
    // is a scheduled event), so no phaseComplete -- and no arena
    // mutation -- can interleave with this loop.
    Pending &pending = pending_[handle];
    pending.outstanding = static_cast<int>(ops.size());
    const uint64_t id = pending.id;
    for (const PhysOp &op : ops) {
        DiskRequest request;
        request.lba = op.addr.unit *
                      static_cast<int64_t>(config_.unit_sectors);
        request.sectors = config_.unit_sectors;
        request.write = op.write;
        request.access_id = id;
        request.done = [this, handle] { phaseComplete(handle); };
        disks_[op.addr.disk]->submit(std::move(request));
    }
}

void
ArrayController::phaseComplete(PendingHandle handle)
{
    Pending &pending = pending_[handle];
    assert(pending.outstanding > 0);
    if (--pending.outstanding > 0)
        return;
    if (!pending.phase1.empty() && !pending.phase1_issued) {
        // All pre-reads done: new parity is computable, overwrite.
        pending.phase1_issued = true;
        issueOps(pending.phase1, handle);
        return;
    }
    const obs::Probe &probe = config_.probe;
    const double now = events_.now();
    probe.observe("array.access_ms", now - pending.start_ms);
    probe.asyncEnd("access", "array", obs::kLaneArray, pending.id,
                   now);
    // Recycle the slot before the completion callback runs: it may
    // issue the next access, which then reuses this arena entry.
    InlineCallback done = std::move(pending.done);
    freePending(handle);
    if (done)
        done();
}

void
ArrayController::submitUnit(int disk, int64_t unit, bool write,
                            InlineCallback done)
{
    assert(disk >= 0 && disk < layout_.numDisks());
    config_.probe.count("array.unit_ops");
    DiskRequest request;
    request.lba = unit * static_cast<int64_t>(config_.unit_sectors);
    request.sectors = config_.unit_sectors;
    request.write = write;
    request.access_id = next_access_id_++;
    request.done = std::move(done);
    disks_[disk]->submit(std::move(request));
}

void
ArrayController::transition(ArrayState next, int disk)
{
    const ArrayState from = mapper_.mode();
    auto illegal = [&](const char *why) {
        throw std::logic_error(
            std::string("illegal array transition ") +
            arrayModeName(from) + " -> " + arrayModeName(next) +
            " (disk " + std::to_string(disk) + "): " + why);
    };

    switch (next) {
      case ArrayState::Degraded:
        if (from != ArrayState::FaultFree)
            illegal("one failure at a time; a second is data loss");
        if (disk < 0 || disk >= layout_.numDisks())
            illegal("failing disk id out of range");
        mapper_.setMode(ArrayState::Degraded, disk);
        break;
      case ArrayState::PostReconstruction:
        if (from != ArrayState::Degraded)
            illegal("only a degraded array finishes sparing");
        if (disk != mapper_.failedDisk())
            illegal("spared disk is not the failed disk");
        if (!layout_.hasSparing())
            illegal("layout has no spare space");
        mapper_.setMode(ArrayState::PostReconstruction, disk);
        break;
      case ArrayState::FaultFree:
        if (from == ArrayState::FaultFree)
            illegal("array is already fault-free");
        mapper_.setMode(ArrayState::FaultFree);
        break;
    }

    const obs::Probe &probe = config_.probe;
    probe.count("array.transitions");
    probe.instant("array.transition", "state", obs::kLaneArray,
                  events_.now(),
                  {{"from", arrayModeName(from)},
                   {"to", arrayModeName(next)},
                   {"disk", static_cast<double>(disk)}});
}

void
ArrayController::injectLatentError(int disk, int64_t unit)
{
    assert(disk >= 0 && disk < layout_.numDisks());
    disks_[disk]->injectLatentError(
        unit * static_cast<int64_t>(config_.unit_sectors));
}

void
ArrayController::setMediumErrorHook(
    std::function<void(int disk, int64_t lba)> hook)
{
    for (int d = 0; d < static_cast<int>(disks_.size()); ++d) {
        if (!hook) {
            disks_[d]->setMediumErrorHook({});
            continue;
        }
        disks_[d]->setMediumErrorHook(
            [hook, d](int64_t lba) { hook(d, lba); });
    }
}

SeekTally
ArrayController::aggregateTally() const
{
    SeekTally total;
    for (const auto &disk : disks_)
        total += disk->tally();
    return total;
}

} // namespace pddl
