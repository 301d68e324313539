/**
 * @file
 * CacheTier: a write-back block cache that is itself a Target.
 *
 * The tier wraps any backend Target (a single ArrayController, a
 * sharded VolumeManager) and interposes a set-associative LRU cache
 * of stripe units in front of it:
 *
 *  - reads that hit every unit complete in `hit_ms`; a miss fetches
 *    the whole access from the backend and installs the units
 *    (read-allocate);
 *  - writes are absorbed: units are installed dirty and the access
 *    completes in `hit_ms` without touching the backend;
 *  - dirty units drain in the background once the dirty fraction
 *    crosses the high watermark: the destage pump coalesces
 *    consecutive dirty units into contiguous runs (up to
 *    `max_run_units`), issues up to `destage_width` concurrent
 *    backend writes, and drains until the low watermark. Lines go
 *    clean at issue (the backend write owns that version of the data;
 *    a write during the flight simply re-dirties the line);
 *  - while the dirty count sits at the high watermark, incoming
 *    writes stall in FIFO order until destaging makes room -- the
 *    mechanism that turns a saturated destage path into visible
 *    client tail latency instead of unbounded absorbed state.
 *
 * Everything runs on the EventQueue handed in at construction (the
 * hub lane under ParallelEngine), and the cache adds no randomness
 * and no wall-clock dependence, so its histories repeat byte for
 * byte.
 */

#ifndef PDDL_CACHE_CACHE_TIER_HH
#define PDDL_CACHE_CACHE_TIER_HH

#include <cstdint>
#include <vector>

#include "array/target.hh"
#include "cache/sparse_bitmap.hh"
#include "obs/probe.hh"
#include "sim/event_queue.hh"
#include "util/ring_queue.hh"

namespace pddl {
namespace cache {

/** Geometry and policy knobs (named-parameter style). */
struct CacheConfig
{
    /** Total cache lines; one line caches one stripe unit. */
    int64_t capacity_units = 4096;
    /** Set associativity; must divide capacity_units. */
    int ways = 8;
    /** Service time of a hit or an absorbed write, in ms. */
    double hit_ms = 0.05;
    /**
     * Destage watermarks as fractions of capacity: the pump starts
     * when the dirty count reaches `high_water` (writes stall there
     * too) and drains until `low_water`.
     */
    double high_water = 0.5;
    double low_water = 0.25;
    /** Longest contiguous dirty run one destage write covers. */
    int max_run_units = 64;
    /** Concurrent destage writes in flight. */
    int destage_width = 4;

    /** cache.* counters; default off. Sinks must outlive the tier. */
    obs::Probe probe;
};

/** Monotonic counters (also mirrored to the probe as cache.*). */
struct CacheStats
{
    int64_t read_hits = 0;      ///< accesses fully served in cache
    int64_t read_misses = 0;    ///< accesses that touched the backend
    int64_t writes_absorbed = 0;
    int64_t write_stalls = 0;   ///< writes queued at the high watermark
    int64_t destage_runs = 0;   ///< backend writes issued by the pump
    int64_t destage_units = 0;  ///< units those runs covered
    int64_t evictions_clean = 0;
    int64_t evictions_dirty = 0; ///< victim needed its own writeback
};

/**
 * The write-back tier. Construction is cheap (the line headers, their
 * tags and the dirty set's index); the tier holds references to the
 * queue and backend, which must outlive it.
 */
class CacheTier : public Target
{
  public:
    CacheTier(EventQueue &events, Target &backend, CacheConfig config);

    int64_t dataUnits() const override { return backend_.dataUnits(); }

    void access(int64_t start_unit, int count, AccessType type,
                InlineCallback done) override;

    SeekTally aggregateTally() const override
    {
        return backend_.aggregateTally();
    }

    /**
     * Logical accesses offered to the tier (not backend operations):
     * workload drivers window their per-access seek averages against
     * the client-visible count.
     */
    uint64_t accessesIssued() const override { return accesses_; }

    const CacheStats &stats() const { return stats_; }

    /** Read-access hit fraction so far (0 when nothing was read). */
    double hitRate() const;

    /** Units currently dirty (excludes destages in flight). */
    int64_t dirtyUnits() const { return dirty_units_; }

    /** Writes currently stalled behind the high watermark. */
    int64_t stalledWrites() const
    {
        return static_cast<int64_t>(stalled_.size());
    }

  private:
    /** A line's state; its unit is its entry in tags_. */
    struct Line
    {
        uint64_t last_use = 0;
        bool dirty = false;
    };

    struct StalledWrite
    {
        int64_t start = 0;
        int count = 0;
        InlineCallback done;
    };

    static constexpr uint32_t kNilReadMiss = ~uint32_t{0};

    /**
     * A read miss waiting on its backend fetch, pooled in a free-list
     * arena: the fetch's completion carries {tier, slot}, which fits
     * InlineCallback's inline buffer where {start, count, done} would
     * not.
     */
    struct ReadMiss
    {
        int64_t start = 0;
        int count = 0;
        InlineCallback done;
        uint32_t next_free = kNilReadMiss;
    };

    Line *find(int64_t unit);
    void touch(Line &line) { line.last_use = ++tick_; }
    Line &allocate(int64_t unit);
    void markDirty(Line &line, int64_t unit);
    void installRange(int64_t start, int count);

    void serveRead(int64_t start, int count, InlineCallback done);
    void readMissComplete(uint32_t slot);
    void serveWrite(int64_t start, int count, InlineCallback done);

    void maybePump();
    void pump();
    void issueRun();
    void releaseStalled();

    EventQueue &events_;
    Target &backend_;
    CacheConfig config_;
    int64_t sets_;
    int64_t high_units_;
    int64_t low_units_;

    std::vector<Line> lines_;
    /**
     * Each line's unit, or -1 when the line is invalid, in line order:
     * find() compares one contiguous row of a set's tags.
     */
    std::vector<int64_t> tags_;
    /** Dirty units, ordered -- the coalescer walks runs off it. */
    SparseBitmap dirty_;
    int64_t dirty_units_ = 0;
    /** Round-robin scan position of the destage coalescer. */
    int64_t cursor_ = 0;
    int destage_in_flight_ = 0;
    bool pump_active_ = false;
    bool releasing_ = false;

    RingQueue<StalledWrite> stalled_;

    /** Arena of read misses in flight (see ReadMiss). */
    std::vector<ReadMiss> read_misses_;
    uint32_t free_read_miss_ = kNilReadMiss;

    uint64_t tick_ = 0;
    uint64_t accesses_ = 0;
    CacheStats stats_;
};

} // namespace cache
} // namespace pddl

#endif // PDDL_CACHE_CACHE_TIER_HH
