#include "volume/volume_manager.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "core/layout_spec.hh"
#include "disk/disk.hh"
#include "sim/parallel_engine.hh"

namespace pddl {

VolumeManager::VolumeManager(EventQueue &events,
                             std::vector<ShardSpec> shards,
                             VolumeConfig config)
    : events_(events), config_(std::move(config)),
      placement_(config_.placement != nullptr ? config_.placement
                                              : &staticPlacement()),
      chunk_units_(config_.chunk_units)
{
    shard_events_.assign(shards.size(), &events_);
    init(shards);
}

VolumeManager::VolumeManager(ParallelEngine &engine,
                             std::vector<ShardSpec> shards,
                             VolumeConfig config)
    : events_(engine.hubQueue()), engine_(&engine),
      config_(std::move(config)),
      placement_(config_.placement != nullptr ? config_.placement
                                              : &staticPlacement()),
      chunk_units_(config_.chunk_units)
{
    if (engine.shardLanes() < static_cast<int>(shards.size()))
        throw std::logic_error(
            "parallel volume needs one engine lane per shard");
    if (!(config_.dispatch_ms >= engine.lookahead()))
        throw std::logic_error(
            "volume dispatch_ms must cover the engine lookahead: "
            "a window could otherwise schedule into a lane's past");
    shard_events_.reserve(shards.size());
    for (size_t s = 0; s < shards.size(); ++s)
        shard_events_.push_back(
            &engine.shardQueue(static_cast<int>(s)));
    init(shards);
}

void
VolumeManager::init(std::vector<ShardSpec> &shards)
{
    if (shards.empty())
        throw std::logic_error("volume needs at least one shard");
    if (static_cast<int>(shards.size()) > kMaxShards)
        throw std::logic_error("volume shard count over kMaxShards");
    if (chunk_units_ < 1)
        throw std::logic_error("volume chunk_units must be >= 1");
    if (!(config_.dispatch_ms >= 0.0))
        throw std::logic_error("volume dispatch_ms must be >= 0");

    shards_.reserve(shards.size());
    devices_.reserve(shards.size());
    tiers_.reserve(shards.size());
    for (size_t s = 0; s < shards.size(); ++s) {
        const ShardSpec &spec = shards[s];

        // Resolve the layout: prebuilt pointer wins, else the spec
        // registry builds one the volume owns.
        const Layout *layout = spec.layout;
        if (layout == nullptr) {
            owned_layouts_.push_back(layouts::makeLayout(
                spec.layout_spec.empty() ? "pddl:width=4"
                                         : spec.layout_spec,
                spec.disks));
            layout = owned_layouts_.back().get();
        }

        // Resolve the device: prebuilt pointer, spec registry, or
        // the HP 2247 default -- in that order.
        const DeviceModel *device = spec.device;
        if (device == nullptr && !spec.device_spec.empty()) {
            owned_devices_.push_back(
                pddl::device::makeDevice(spec.device_spec));
            device = owned_devices_.back().get();
        }
        if (device == nullptr)
            device = &pddl::device::hp2247();

        shards_.push_back(std::make_unique<ArrayController>(
            *shard_events_[s], *layout, *device, spec.array));
        devices_.push_back(device);
        tiers_.push_back(
            !spec.tier.empty()
                ? spec.tier
                : (std::strcmp(device->kind(), "ssd") == 0 ? "fast"
                                                           : "bulk"));
    }

    // Assemble allocation groups. Striped: one group of everything
    // (the legacy address math, byte-for-byte). Tiered: group by
    // tier label, ordered by first appearance, address space =
    // concatenated group spans.
    group_of_shard_.assign(shards_.size(), -1);
    index_in_group_.assign(shards_.size(), -1);
    if (config_.allocation == VolumeAllocation::Striped) {
        Group all;
        all.tier = "all";
        for (int s = 0; s < static_cast<int>(shards_.size()); ++s)
            all.shards.push_back(s);
        groups_.push_back(std::move(all));
    } else {
        for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
            int g = -1;
            for (size_t i = 0; i < groups_.size(); ++i) {
                if (groups_[i].tier == tiers_[s]) {
                    g = static_cast<int>(i);
                    break;
                }
            }
            if (g < 0) {
                g = static_cast<int>(groups_.size());
                groups_.push_back(Group{tiers_[s], {}, 0, 0});
            }
            groups_[static_cast<size_t>(g)].shards.push_back(s);
        }
    }
    for (size_t g = 0; g < groups_.size(); ++g) {
        Group &group = groups_[g];
        // Level each group to its smallest member, chunk-aligned:
        // every member then holds exactly one chunk per group period
        // and the bijection needs no per-shard capacity cases.
        group.per_shard_units =
            shards_[static_cast<size_t>(group.shards[0])]->dataUnits();
        for (int s : group.shards) {
            group.per_shard_units =
                std::min(group.per_shard_units,
                         shards_[static_cast<size_t>(s)]->dataUnits());
        }
        group.per_shard_units -= group.per_shard_units % chunk_units_;
        if (group.per_shard_units < chunk_units_)
            throw std::logic_error(
                "volume shards too small for one chunk");
        group.base = data_units_;
        data_units_ += group.per_shard_units *
                       static_cast<int64_t>(group.shards.size());
        for (size_t i = 0; i < group.shards.size(); ++i) {
            group_of_shard_[static_cast<size_t>(group.shards[i])] =
                static_cast<int>(g);
            index_in_group_[static_cast<size_t>(group.shards[i])] =
                static_cast<int>(i);
        }
    }

    in_flight_.assign(shards_.size(), 0);
    max_in_flight_.assign(shards_.size(), 0);
    inflight_metric_.reserve(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
        inflight_metric_.push_back("volume.shard" + std::to_string(s) +
                                   ".inflight_max");
    }
}

int
VolumeManager::groupOf(int64_t unit) const
{
    // A handful of tiers at most: linear scan.
    for (size_t g = groups_.size(); g-- > 1;) {
        if (unit >= groups_[g].base)
            return static_cast<int>(g);
    }
    return 0;
}

VolumeAddress
VolumeManager::route(int64_t unit) const
{
    assert(unit >= 0 && unit < data_units_);
    const Group &group = groups_[static_cast<size_t>(groupOf(unit))];
    const int members = static_cast<int>(group.shards.size());
    const int64_t local = unit - group.base;
    const int64_t chunk = local / chunk_units_;
    const int64_t offset = local % chunk_units_;
    const int64_t period = chunk / members;
    const int slot = static_cast<int>(chunk % members);
    int perm[kMaxShards];
    placement_->permutation(period, members, perm);
    return {group.shards[static_cast<size_t>(perm[slot])],
            period * chunk_units_ + offset};
}

int64_t
VolumeManager::volumeUnitOf(VolumeAddress addr) const
{
    assert(addr.shard >= 0 && addr.shard < shardCount());
    const Group &group = groups_[static_cast<size_t>(
        group_of_shard_[static_cast<size_t>(addr.shard)])];
    assert(addr.unit >= 0 && addr.unit < group.per_shard_units);
    const int members = static_cast<int>(group.shards.size());
    const int member =
        index_in_group_[static_cast<size_t>(addr.shard)];
    const int64_t period = addr.unit / chunk_units_;
    const int64_t offset = addr.unit % chunk_units_;
    int perm[kMaxShards];
    placement_->permutation(period, members, perm);
    int slot = -1;
    for (int i = 0; i < members; ++i) {
        if (perm[i] == member) {
            slot = i;
            break;
        }
    }
    assert(slot >= 0 && "placement emitted a non-permutation");
    return group.base +
           (period * members + slot) * chunk_units_ + offset;
}

uint32_t
VolumeManager::allocFlight()
{
    if (free_flight_ == kNilFlight) {
        flights_.emplace_back();
        return static_cast<uint32_t>(flights_.size() - 1);
    }
    uint32_t handle = free_flight_;
    free_flight_ = flights_[handle].next_free;
    return handle;
}

/**
 * A shard-side completion at shard time `t`. On one shared queue the
 * volume's join bookkeeping runs inline; on the engine the callback
 * runs inside the shard's lane, whose window may run ahead of the
 * hub, so the join is posted to the engine's mailbox and replayed at
 * the next barrier with the hub clock at `t` -- same simulated time,
 * same (time, shard, FIFO) order a shared queue would have produced.
 */
void
VolumeManager::subAccessDone(uint32_t handle, int shard)
{
    if (engine_ == nullptr) {
        subComplete(handle, shard);
        return;
    }
    engine_->post(shard, shard_events_[shard]->now(),
                  [this, handle, shard] {
                      subComplete(handle, shard);
                  });
}

void
VolumeManager::subComplete(uint32_t handle, int shard)
{
    --in_flight_[shard];
    Flight &flight = flights_[handle];
    assert(flight.outstanding > 0);
    if (--flight.outstanding > 0)
        return;
    InlineCallback done = std::move(flight.done);
    flight.done = InlineCallback();
    flight.next_free = free_flight_;
    free_flight_ = handle;
    config_.probe.count("volume.accesses_completed");
    done();
}

void
VolumeManager::access(int64_t start_unit, int count, AccessType type,
                      InlineCallback done)
{
    assert(count >= 1);
    assert(start_unit >= 0 && start_unit + count <= data_units_);

    ++issued_;
    config_.probe.count("volume.accesses");

    const uint32_t handle = allocFlight();
    Flight &flight = flights_[handle];
    flight.done = std::move(done);
    // Hold the flight open while fanning out: sub-access completions
    // only ever fire from the event loop, but the hold keeps the
    // accounting correct even if that ever changes.
    flight.outstanding = 1;

    int64_t unit = start_unit;
    int remaining = count;
    int runs = 0;
    while (remaining > 0) {
        const VolumeAddress head = route(unit);
        // A run extends to the end of the current chunk: consecutive
        // volume units within one chunk are consecutive shard-local
        // units on one shard. Group spans are chunk-aligned, so a
        // run never crosses a tier boundary either.
        const int64_t chunk_left =
            chunk_units_ - (unit % chunk_units_);
        const int run = static_cast<int>(
            chunk_left < remaining ? chunk_left : remaining);

        ++runs;
        ++sub_issued_;
        ++flights_[handle].outstanding;
        ++in_flight_[head.shard];
        if (in_flight_[head.shard] > max_in_flight_[head.shard]) {
            max_in_flight_[head.shard] = in_flight_[head.shard];
            config_.probe.gaugeMax(
                inflight_metric_[static_cast<size_t>(head.shard)]
                    .c_str(),
                static_cast<double>(in_flight_[head.shard]));
        }
        config_.probe.count("volume.sub_accesses");
        if (shards_[head.shard]->mode() != ArrayMode::FaultFree)
            config_.probe.count("volume.degraded_sub_accesses");

        // The sub-access crosses the volume->shard fabric: it lands
        // on the shard's own queue dispatch_ms from now. The shard
        // controller therefore always runs on its own lane at the
        // correct shard-local time, and in a parallel run the delay
        // keeps the delivery at or past the next window edge.
        const int shard_index = head.shard;
        const int64_t shard_unit = head.unit;
        const int run_units = run;
        shard_events_[shard_index]->schedule(
            events_.now() + config_.dispatch_ms,
            [this, handle, shard_index, shard_unit, run_units,
             type] {
                shards_[shard_index]->access(
                    shard_unit, run_units, type,
                    [this, handle, shard_index] {
                        subAccessDone(handle, shard_index);
                    });
            });

        unit += run;
        remaining -= run;
    }
    if (runs > 1)
        config_.probe.count("volume.split_accesses");

    // Release the fan-out hold (completions fire from the event
    // loop, so this is what actually arms the last-one-out check).
    Flight &after = flights_[handle];
    if (--after.outstanding == 0) {
        InlineCallback finished = std::move(after.done);
        after.done = InlineCallback();
        after.next_free = free_flight_;
        free_flight_ = handle;
        config_.probe.count("volume.accesses_completed");
        finished();
    }
}

SeekTally
VolumeManager::aggregateTally() const
{
    SeekTally total;
    for (const auto &shard : shards_)
        total += shard->aggregateTally();
    return total;
}

uint64_t
VolumeManager::accessesIssued() const
{
    uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->accessesIssued();
    return total;
}

int
VolumeManager::degradedShards() const
{
    int degraded = 0;
    for (const auto &shard : shards_) {
        if (shard->mode() != ArrayMode::FaultFree)
            ++degraded;
    }
    return degraded;
}

} // namespace pddl
