/**
 * @file
 * VolumeManager: one address space striped over many arrays.
 *
 * The paper maps a single n = g*k + 1 disk array; a production-scale
 * system composes many such arrays behind one volume, the way
 * heterogeneous-disk-array work (Thomasian & Xu) allocates virtual
 * arrays across shards. The VolumeManager owns S independent shards
 * -- each its own ArrayController with its own layout, device class
 * and fault state -- on one shared event queue (serial) or one engine
 * lane per shard (parallel, see sim/parallel_engine.hh), and routes
 * a flat volume address space across them.
 *
 * Shards are declared by spec strings (ShardSpec::layout_spec /
 * device_spec, see core/layout_spec.hh and disk/device_model.hh) plus
 * a per-shard disk count, so one volume can mix a RAID-1/0 flash
 * shard with PDDL rotating-disk shards. Two allocation policies
 * govern how addresses meet shards:
 *
 *  - Striped (default, the legacy behavior): all shards form one
 *    group; capacity levels to the smallest shard and chunks
 *    round-robin across all of them via the placement permutation:
 *
 *      chunk   = unit / chunk_units          (striping granularity)
 *      period  = chunk / S,  slot = chunk mod S
 *      shard   = perm_period[slot]           (placement policy)
 *      local   = period * chunk_units + unit mod chunk_units
 *
 *  - Tiered: shards group by tier label (ShardSpec::tier; defaults
 *    to "fast" for ssd-class devices, "bulk" otherwise), groups
 *    ordered by first appearance in the shard list, and the volume
 *    address space is the concatenation of the group spans -- the
 *    first-listed tier owns the address prefix. Pointing a hot-spot
 *    workload's hot range (traffic::OffsetSpec places it at the
 *    prefix) at a fast mirrored tier is exactly the class-aware
 *    placement the heterogeneous-array literature argues for:
 *    write-heavy hot addresses land on mirrors (no RMW parity
 *    penalty), cold capacity lands on parity-protected disks.
 *    Within a group the Striped math applies over the group's
 *    members.
 *
 * Because the placement policy emits one shard permutation per
 * period, every shard receives exactly one chunk per group period
 * and the route is a bijection with an O(S) inverse -- the property
 * the routing tests sweep (both policies).
 *
 * Degraded-mode policy: placement is static, so a shard in rebuild
 * cannot shed its chunks -- it keeps serving them through its own
 * degraded-mode machinery while the router keeps routing. What the
 * volume adds is visibility and containment accounting: per-shard
 * in-flight depth (live and high-water), counts of sub-accesses sent
 * into degraded shards, and volume-rolled-up Probe metrics.
 *
 * A logical access that crosses a chunk boundary fans out into one
 * sub-access per chunk run; the access completes when its last
 * sub-access completes. Sub-access bookkeeping lives in a free-list
 * arena (no steady-state allocation), matching the controller's own
 * in-flight machinery.
 */

#ifndef PDDL_VOLUME_VOLUME_MANAGER_HH
#define PDDL_VOLUME_VOLUME_MANAGER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/controller.hh"
#include "array/target.hh"
#include "core/volume_capacity.hh"
#include "disk/device_model.hh"
#include "obs/probe.hh"
#include "sim/event_queue.hh"
#include "volume/placement.hh"

namespace pddl {

/**
 * One shard of a volume by specs, plus controller knobs. The volume
 * builds each distinct layout and device once (buildShard()), so
 * shards with equal specs share one Layout, and so one map table, and
 * one DeviceModel; drive state lives in each Disk.
 */
struct ShardSpec
{
    /** Layout spec (core/layout_spec.hh), built over `disks` drives. */
    std::string layout_spec = "pddl:width=4";
    /** Device spec (disk/device_model.hh). */
    std::string device_spec = "hp2247";
    int disks = 13;
    /**
     * Tier label grouping shards under Tiered allocation; empty
     * derives "fast" for ssd-class devices and "bulk" otherwise.
     */
    std::string tier;

    /** Controller construction knobs (per-shard probe included). */
    ArrayConfig array;
};

/** One shard of a volume, resolved: the shared immutable objects its
 *  array runs on, plus ShardSpec's tier and controller knobs. */
struct VolumeShard
{
    std::shared_ptr<const Layout> layout;
    std::shared_ptr<const DeviceModel> device;
    std::string tier;
    ArrayConfig array;
};

/** How the volume address space meets the shards. */
enum class VolumeAllocation
{
    /** One group of all shards, capacity leveled to the smallest. */
    Striped,
    /** Concatenated tier groups; first-listed tier owns the prefix. */
    Tiered,
};

/** Volume-level configuration. */
struct VolumeConfig
{
    /** Striping chunk in stripe units (contiguity within a shard). */
    int chunk_units = 64;
    /** Address-to-shard-class policy (see file comment). */
    VolumeAllocation allocation = VolumeAllocation::Striped;
    /** Chunk placement; nullptr selects staticPlacement(). */
    const PlacementPolicy *placement = nullptr;
    /** Volume-level rollup metrics (independent of shard probes). */
    obs::Probe probe;
    /**
     * Simulated volume->shard dispatch latency in ms: a sub-access
     * issued at volume time t reaches its shard controller at
     * t + dispatch_ms, in serial and parallel runs alike. This is
     * the minimum cross-shard interaction delay, and therefore the
     * lookahead the parallel engine's time windows ride on -- a
     * parallel volume requires dispatch_ms >= engine lookahead.
     */
    double dispatch_ms = 0.5;
};

/** Shard-local home of one volume data unit. */
struct VolumeAddress
{
    int shard;
    int64_t unit;

    bool
    operator==(const VolumeAddress &o) const
    {
        return shard == o.shard && unit == o.unit;
    }
};

class ParallelEngine;

/** S independent arrays behind one Target address space. */
class VolumeManager : public Target
{
  public:
    /**
     * Serial volume: every shard shares one event queue.
     *
     * @param events shared simulation event queue
     * @param shards one spec per shard
     * @param config volume-level knobs
     */
    VolumeManager(EventQueue &events, std::vector<ShardSpec> shards,
                  VolumeConfig config = VolumeConfig{});

    /**
     * Parallel volume: shard s's controller lives on the engine's
     * lane s queue, clients and fan-out joins on the hub queue, and
     * shard completions travel back through the engine's barrier
     * mailboxes. Requires engine.shardLanes() >= shards.size() and
     * config.dispatch_ms >= engine.lookahead() (the conservative
     * window's safety condition).
     */
    VolumeManager(ParallelEngine &engine,
                  std::vector<VolumeShard> shards,
                  VolumeConfig config = VolumeConfig{});

    /** The same from specs: each distinct layout and device is built
     *  once (buildShard()). */
    VolumeManager(ParallelEngine &engine,
                  std::vector<ShardSpec> shards,
                  VolumeConfig config = VolumeConfig{});

    int shardCount() const { return static_cast<int>(shards_.size()); }
    ArrayController &shard(int s) { return *shards_[s]; }
    const ArrayController &shard(int s) const { return *shards_[s]; }

    /** Device class backing shard `s`. */
    const DeviceModel &shardDevice(int s) const { return *objects_[s].device; }

    /** Tier label of shard `s` (as grouped by Tiered allocation). */
    const std::string &shardTier(int s) const { return objects_[s].tier; }

    /**
     * Uniform per-shard capacity (chunk-aligned). Meaningful under
     * Striped allocation, where every shard holds the same span;
     * under Tiered use shardDataUnits(s).
     */
    int64_t shardDataUnits() const
    {
        return groups_[0].per_shard_units;
    }

    /** Addressable capacity of shard `s` (chunk-aligned, leveled). */
    int64_t
    shardDataUnits(int s) const
    {
        return groups_[group_of_shard_[s]].per_shard_units;
    }

    /** Allocation groups (1 under Striped; tiers under Tiered). */
    int allocationGroups() const
    {
        return static_cast<int>(groups_.size());
    }

    /** Tier label of allocation group `g`. */
    const std::string &groupTier(int g) const { return groups_[g].tier; }

    /** Volume units owned by allocation group `g` (its span). */
    int64_t
    groupUnits(int g) const
    {
        return groups_[g].per_shard_units *
               static_cast<int64_t>(groups_[g].shards.size());
    }

    int64_t chunkUnits() const { return chunk_units_; }

    // Target interface.
    int64_t dataUnits() const override { return data_units_; }
    void access(int64_t start_unit, int count, AccessType type,
                InlineCallback done) override;
    SeekTally aggregateTally() const override;
    uint64_t accessesIssued() const override;

    /** Shard-local home of volume data unit `unit`. */
    VolumeAddress route(int64_t unit) const;

    /** Inverse of route(): the volume unit living at `addr`. */
    int64_t volumeUnitOf(VolumeAddress addr) const;

    /** Volume-level logical accesses issued so far. */
    uint64_t volumeAccessesIssued() const { return issued_; }

    /** Sub-accesses (post-split shard requests) issued so far. */
    uint64_t subAccessesIssued() const { return sub_issued_; }

    /** Live sub-accesses in flight on shard `s`. */
    int inFlight(int s) const { return in_flight_[s]; }

    /** High-water sub-access depth seen on shard `s`. */
    int maxInFlight(int s) const { return max_in_flight_[s]; }

    /** Shards currently not in fault-free mode (rebuild/degraded). */
    int degradedShards() const;

  private:
    /** One allocation group: a tier's shards plus its address span. */
    struct Group
    {
        std::string tier;
        /** Volume shard indices, in declaration order. */
        std::vector<int> shards;
        /** Leveled chunk-aligned capacity of each member shard. */
        int64_t per_shard_units = 0;
        /** First volume unit of the group's span. */
        int64_t base = 0;
    };

    /** Arena slot of one in-flight logical volume access. */
    struct Flight
    {
        int outstanding = 0;
        InlineCallback done;
        uint32_t next_free = kNilFlight;
    };

    static constexpr uint32_t kNilFlight = ~uint32_t{0};

    /** Every public constructor lands here (`engine` null: serial). */
    VolumeManager(EventQueue &events, ParallelEngine *engine,
                  std::vector<VolumeShard> shards, VolumeConfig config);

    uint32_t allocFlight();
    void subComplete(uint32_t handle, int shard);
    void subAccessDone(uint32_t handle, int shard);

    /** Allocation group owning volume unit `unit`. */
    int groupOf(int64_t unit) const;

    /** Cross-shard lane: clients, joins, completion callbacks. */
    EventQueue &events_;
    /** Engine behind shard_events_, nullptr in a serial volume. */
    ParallelEngine *engine_ = nullptr;
    /** Shard s's controller queue (all == &events_ when serial). */
    std::vector<EventQueue *> shard_events_;
    VolumeConfig config_;
    const PlacementPolicy *placement_;
    int64_t chunk_units_;

    /** Each shard's objects (must outlive shards_), its tier label
     *  resolved. */
    std::vector<VolumeShard> objects_;
    std::vector<std::unique_ptr<ArrayController>> shards_;
    std::vector<Group> groups_;
    /** Shard -> its allocation group. */
    std::vector<int> group_of_shard_;
    /** Shard -> its index within its group's member list. */
    std::vector<int> index_in_group_;
    int64_t data_units_ = 0;

    uint64_t issued_ = 0;
    uint64_t sub_issued_ = 0;
    std::vector<int> in_flight_;
    std::vector<int> max_in_flight_;
    /** Stable per-shard metric names ("volume.shard3.inflight_max"). */
    std::vector<std::string> inflight_metric_;

    std::vector<Flight> flights_;
    uint32_t free_flight_ = kNilFlight;
};

} // namespace pddl

#endif // PDDL_VOLUME_VOLUME_MANAGER_HH
