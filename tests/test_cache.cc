/**
 * @file
 * Tests for the write-back cache tier: hit/miss service, write
 * absorption, watermark-driven destage with run coalescing, write
 * stalling at the high watermark, LRU eviction (clean and dirty
 * victims), re-dirty during a destage flight, the coalescer's edges
 * (a run across a dirty-set leaf boundary, the cursor's wrap, a run
 * ending at the last unit, a dirty victim leaving the destage order),
 * a set count that is not a power of two, and determinism of a cached
 * volume workload across parallel-engine thread counts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_tier.hh"
#include "harness/parallel_for.hh"
#include "sim/event_queue.hh"
#include "sim/parallel_engine.hh"
#include "volume/volume_manager.hh"
#include "workload/closed_loop.hh"

namespace pddl {
namespace {

using cache::CacheConfig;
using cache::CacheStats;
using cache::CacheTier;

/**
 * Scripted backend: logs every access with its issue time and
 * completes it a fixed latency later. Slow enough relative to the
 * cache's hit_ms that the tests can park writes behind a saturated
 * destage path on purpose.
 */
class ScriptedBackend : public Target
{
  public:
    struct Op
    {
        double when_ms;
        int64_t start;
        int count;
        AccessType type;
    };

    ScriptedBackend(EventQueue &events, int64_t data_units,
                    double latency_ms)
        : events_(events), data_units_(data_units),
          latency_ms_(latency_ms)
    {
    }

    int64_t dataUnits() const override { return data_units_; }

    void
    access(int64_t start_unit, int count, AccessType type,
           InlineCallback done) override
    {
        ops_.push_back({events_.now(), start_unit, count, type});
        ++issued_;
        events_.scheduleAfter(
            latency_ms_,
            [finish = std::move(done)]() mutable { finish(); });
    }

    SeekTally aggregateTally() const override { return SeekTally{}; }

    uint64_t accessesIssued() const override { return issued_; }

    const std::vector<Op> &ops() const { return ops_; }

    /** Backend writes covering `unit`. */
    int
    writesCovering(int64_t unit) const
    {
        int n = 0;
        for (const Op &op : ops_) {
            if (op.type == AccessType::Write && op.start <= unit &&
                unit < op.start + op.count)
                ++n;
        }
        return n;
    }

  private:
    EventQueue &events_;
    int64_t data_units_;
    double latency_ms_;
    std::vector<Op> ops_;
    uint64_t issued_ = 0;
};

struct CacheFixture : ::testing::Test
{
    EventQueue events;
    ScriptedBackend backend{events, 1 << 20, 10.0};

    /** A small cache whose watermarks the tests can cross easily. */
    CacheConfig
    smallConfig()
    {
        CacheConfig config;
        config.capacity_units = 64;
        config.ways = 4;
        config.hit_ms = 0.05;
        config.high_water = 0.5;  // 32 dirty units
        config.low_water = 0.25;  // drain to 16
        config.max_run_units = 16;
        config.destage_width = 2;
        return config;
    }

    double
    completeOne(CacheTier &tier, int64_t start, int count,
                AccessType type)
    {
        double done_at = -1.0;
        tier.access(start, count, type,
                    [&] { done_at = events.now(); });
        events.runUntilEmpty();
        EXPECT_GE(done_at, 0.0);
        return done_at;
    }
};

TEST_F(CacheFixture, ReadMissFetchesOnceThenHits)
{
    CacheTier tier(events, backend, smallConfig());
    const double start = events.now();
    const double miss_done = completeOne(tier, 100, 4,
                                         AccessType::Read);
    EXPECT_EQ(tier.stats().read_misses, 1);
    EXPECT_EQ(backend.accessesIssued(), 1u);
    EXPECT_GE(miss_done - start, 10.0); // paid the backend

    const double hit_issue = events.now();
    const double hit_done = completeOne(tier, 100, 4,
                                        AccessType::Read);
    EXPECT_EQ(tier.stats().read_hits, 1);
    EXPECT_EQ(backend.accessesIssued(), 1u); // no second fetch
    EXPECT_NEAR(hit_done - hit_issue, 0.05, 1e-9);
    EXPECT_DOUBLE_EQ(tier.hitRate(), 0.5);
    // Client-visible accounting counts logical accesses, not backend
    // operations.
    EXPECT_EQ(tier.accessesIssued(), 2u);
}

TEST_F(CacheFixture, WriteIsAbsorbedWithoutTouchingTheBackend)
{
    CacheTier tier(events, backend, smallConfig());
    const double done = completeOne(tier, 7, 1, AccessType::Write);
    EXPECT_DOUBLE_EQ(done, 0.05);
    EXPECT_EQ(tier.stats().writes_absorbed, 1);
    EXPECT_EQ(backend.accessesIssued(), 0u); // below the watermark
    EXPECT_EQ(tier.dirtyUnits(), 1);

    // The dirty line serves reads from cache.
    completeOne(tier, 7, 1, AccessType::Read);
    EXPECT_EQ(tier.stats().read_hits, 1);
    EXPECT_EQ(backend.accessesIssued(), 0u);
}

TEST_F(CacheFixture, DestagePumpCoalescesContiguousRuns)
{
    CacheTier tier(events, backend, smallConfig());
    // 40 contiguous dirty units cross the high watermark (32).
    int completions = 0;
    for (int64_t unit = 0; unit < 40; ++unit)
        tier.access(unit, 1, AccessType::Write,
                    [&] { ++completions; });
    events.runUntilEmpty();

    EXPECT_EQ(completions, 40);
    // Crossing the high watermark (32) triggered exactly one run:
    // the coalescer folded a full max_run_units of consecutive dirty
    // units into a single backend write, which took dirty back to
    // the low watermark (16); the trailing writes stay comfortably
    // dirty below the high watermark -- that's write-back.
    const CacheStats &stats = tier.stats();
    EXPECT_EQ(stats.destage_runs, 1);
    EXPECT_EQ(stats.destage_units, 16);
    ASSERT_EQ(backend.ops().size(), 1u);
    EXPECT_EQ(backend.ops()[0].type, AccessType::Write);
    EXPECT_EQ(backend.ops()[0].start, 0);
    EXPECT_EQ(backend.ops()[0].count, 16); // one coalesced run
    EXPECT_EQ(tier.dirtyUnits(), 40 - 16);
    EXPECT_EQ(tier.stalledWrites(), 0);
}

TEST_F(CacheFixture, WritesStallAtTheHighWatermarkAndDrain)
{
    CacheConfig config = smallConfig();
    config.destage_width = 1; // saturate the destage path
    CacheTier tier(events, backend, config);
    // Non-contiguous units: every destage run covers one unit, so
    // draining 10-ms backend writes cannot keep up with 0.05-ms
    // absorbed writes and the dirty budget pins at the watermark.
    int completions = 0;
    for (int64_t i = 0; i < 60; ++i)
        tier.access(i * 2, 1, AccessType::Write,
                    [&] { ++completions; });
    EXPECT_GT(tier.stalledWrites(), 0); // parked synchronously
    events.runUntilEmpty();

    EXPECT_EQ(completions, 60);
    EXPECT_GT(tier.stats().write_stalls, 0);
    EXPECT_EQ(tier.stalledWrites(), 0); // every stall released
    for (const ScriptedBackend::Op &op : backend.ops())
        EXPECT_EQ(op.count, 1); // nothing contiguous to coalesce
}

TEST_F(CacheFixture, LruEvictsTheColdestCleanLine)
{
    CacheConfig config = smallConfig();
    config.ways = 2;
    config.capacity_units = 8; // 4 sets x 2 ways
    CacheTier tier(events, backend, config);
    // Three units in the same set (unit % 4 == 1): the third read
    // evicts the least recently used of the first two.
    completeOne(tier, 1, 1, AccessType::Read);  // miss, installs 1
    completeOne(tier, 5, 1, AccessType::Read);  // miss, installs 5
    completeOne(tier, 1, 1, AccessType::Read);  // hit, refreshes 1
    completeOne(tier, 9, 1, AccessType::Read);  // miss, evicts 5
    EXPECT_EQ(tier.stats().evictions_clean, 1);

    completeOne(tier, 1, 1, AccessType::Read); // still resident
    EXPECT_EQ(tier.stats().read_hits, 2);
    completeOne(tier, 5, 1, AccessType::Read); // was evicted
    EXPECT_EQ(tier.stats().read_misses, 4);
}

TEST_F(CacheFixture, DirtyVictimGetsItsOwnWriteback)
{
    CacheConfig config = smallConfig();
    config.ways = 2;
    config.capacity_units = 8;
    config.high_water = 1.0; // the pump never starts
    config.low_water = 0.5;
    CacheTier tier(events, backend, config);
    // Fill both ways of set 1 dirty, then force a third allocation
    // in that set: every way is dirty, so the victim needs its own
    // fire-and-forget writeback.
    completeOne(tier, 1, 1, AccessType::Write);
    completeOne(tier, 5, 1, AccessType::Write);
    EXPECT_EQ(tier.dirtyUnits(), 2);
    completeOne(tier, 9, 1, AccessType::Write);
    EXPECT_EQ(tier.stats().evictions_dirty, 1);
    EXPECT_EQ(tier.dirtyUnits(), 2); // victim left, newcomer joined
    EXPECT_EQ(backend.writesCovering(1), 1); // LRU victim written
    EXPECT_EQ(backend.writesCovering(5), 0);
}

TEST_F(CacheFixture, WriteDuringDestageFlightRedirtiesTheLine)
{
    CacheConfig config = smallConfig();
    config.capacity_units = 8;
    config.ways = 4;
    config.high_water = 0.25; // pump starts at 2 dirty units
    config.low_water = 0.0;
    CacheTier tier(events, backend, config);
    int completions = 0;
    tier.access(0, 2, AccessType::Write, [&] { ++completions; });
    // The pump issued the run (clean-at-issue); the 10-ms backend
    // write is now in flight.
    EXPECT_EQ(tier.stats().destage_runs, 1);
    EXPECT_EQ(tier.dirtyUnits(), 0);
    // Re-dirty both units during the flight: crossing the watermark
    // again issues a second run for the same units even though the
    // first is still on the wire.
    tier.access(0, 2, AccessType::Write, [&] { ++completions; });
    EXPECT_EQ(tier.stats().destage_runs, 2);
    events.runUntilEmpty();

    EXPECT_EQ(completions, 2);
    // The older data rode the first run; the newer version needed
    // its own backend write.
    EXPECT_EQ(backend.writesCovering(0), 2);
    EXPECT_EQ(backend.writesCovering(1), 2);
    EXPECT_EQ(tier.dirtyUnits(), 0);
}

/** Start, length and type of each backend access, in issue order. */
std::vector<std::vector<int64_t>>
opList(const ScriptedBackend &backend)
{
    std::vector<std::vector<int64_t>> ops;
    for (const ScriptedBackend::Op &op : backend.ops())
        ops.push_back({op.start, op.count,
                       op.type == AccessType::Write ? 1 : 0});
    return ops;
}

TEST_F(CacheFixture, RunAcrossADirtySetLeafBoundaryIsOneWrite)
{
    // The dirty set keeps 512-unit leaves; units 508..515 straddle the
    // first boundary and still coalesce into a single backend write.
    CacheConfig config = smallConfig();
    config.high_water = 0.125; // pump starts at 8 dirty units
    config.low_water = 0.0;
    CacheTier tier(events, backend, config);
    completeOne(tier, 508, 8, AccessType::Write);
    EXPECT_EQ(opList(backend),
              (std::vector<std::vector<int64_t>>{{508, 8, 1}}));
    EXPECT_EQ(tier.dirtyUnits(), 0);
}

TEST_F(CacheFixture, CoalescerCursorWrapsToTheLowestDirtyUnit)
{
    CacheConfig config = smallConfig();
    config.high_water = 2.0 / 64.0; // pump starts at 2 dirty units
    config.low_water = 0.0;
    config.destage_width = 4;
    CacheTier tier(events, backend, config);
    completeOne(tier, 500, 2, AccessType::Write); // run 500..501
    // The scan resumes at the cursor (502), so unit 600 goes before
    // the lower unit 5; past 600 nothing is dirty, and the scan wraps.
    completeOne(tier, 5, 1, AccessType::Write);
    completeOne(tier, 600, 1, AccessType::Write);
    EXPECT_EQ(opList(backend), (std::vector<std::vector<int64_t>>{
                                   {500, 2, 1}, {600, 1, 1}, {5, 1, 1}}));
}

TEST_F(CacheFixture, RunEndingAtTheLastUnitIsDestagedWhole)
{
    // A backend of exactly two dirty-set leaves: the run ends on its
    // last unit and leaves the cursor one past the end.
    ScriptedBackend small(events, 1024, 10.0);
    CacheConfig config = smallConfig();
    config.high_water = 4.0 / 64.0; // pump starts at 4 dirty units
    config.low_water = 0.0;
    CacheTier tier(events, small, config);
    completeOne(tier, 1020, 4, AccessType::Write);
    completeOne(tier, 0, 4, AccessType::Write);
    EXPECT_EQ(opList(small), (std::vector<std::vector<int64_t>>{
                                 {1020, 4, 1}, {0, 4, 1}}));
    EXPECT_EQ(tier.dirtyUnits(), 0);
}

TEST_F(CacheFixture, DirtyVictimLeavesTheDestageOrder)
{
    CacheConfig config = smallConfig();
    config.ways = 2;
    config.capacity_units = 8; // 4 sets x 2 ways
    config.high_water = 0.5;   // pump starts at 4 dirty units
    config.low_water = 0.0;
    CacheTier tier(events, backend, config);
    completeOne(tier, 1, 1, AccessType::Write);
    completeOne(tier, 5, 1, AccessType::Write);
    completeOne(tier, 9, 1, AccessType::Write); // evicts dirty unit 1
    EXPECT_EQ(tier.stats().evictions_dirty, 1);
    // Crossing the watermark drains everything dirty in unit order;
    // unit 1 left with its own writeback and is not destaged again.
    completeOne(tier, 2, 2, AccessType::Write);
    EXPECT_EQ(opList(backend),
              (std::vector<std::vector<int64_t>>{
                  {1, 1, 1}, {2, 2, 1}, {5, 1, 1}, {9, 1, 1}}));
    EXPECT_EQ(tier.dirtyUnits(), 0);
}

/**
 * A capacity-sized aligned range, re-read unit by unit, then reads and
 * a write confined to set 1: the outcome depends on the set count only
 * through which units share a set.
 */
CacheStats
runSetScript(int64_t sets)
{
    EventQueue events;
    ScriptedBackend backend(events, 1 << 20, 10.0);
    CacheConfig config;
    config.ways = 4;
    config.capacity_units = 4 * sets;
    config.high_water = 1.0; // the pump never starts
    config.low_water = 0.5;
    CacheTier tier(events, backend, config);
    auto run = [&](int64_t unit, int count, AccessType type) {
        tier.access(unit, count, type, [] {});
        events.runUntilEmpty();
    };
    // Every set takes exactly four units of the range, so all of it
    // stays resident.
    const int64_t base = 1000 * sets;
    run(base, static_cast<int>(4 * sets), AccessType::Read);
    for (int64_t unit = base; unit < base + 4 * sets; ++unit)
        run(unit, 1, AccessType::Read);
    // Five units of set 1 displace its four range units and then the
    // first of them; re-reading that one evicts the next-coldest.
    for (int64_t k = 0; k < 5; ++k)
        run(1 + k * sets, 1, AccessType::Read);
    for (int64_t k = 1; k < 5; ++k)
        run(1 + k * sets, 1, AccessType::Read);
    run(1, 1, AccessType::Read);
    run(1 + 4 * sets, 1, AccessType::Write);
    EXPECT_EQ(tier.dirtyUnits(), 1);
    return tier.stats();
}

TEST(CacheSets, NonPowerOfTwoSetCountBehavesLikeSixteenSets)
{
    for (int64_t sets : {16, 6}) { // 64 lines, and 24
        const CacheStats stats = runSetScript(sets);
        EXPECT_EQ(stats.read_misses, 1 + 5 + 1) << sets << " sets";
        EXPECT_EQ(stats.read_hits, 4 * sets + 4) << sets << " sets";
        EXPECT_EQ(stats.evictions_clean, 4 + 1 + 1) << sets << " sets";
        EXPECT_EQ(stats.evictions_dirty, 0) << sets << " sets";
        EXPECT_EQ(stats.writes_absorbed, 1) << sets << " sets";
    }
}

/**
 * A cached volume workload on the engine matches one shared queue, and
 * does not depend on how many worker threads run such scenarios at
 * once (as a bench grid runs its points).
 */
struct CachedRun
{
    uint64_t volume_accesses = 0;
    uint64_t frontend_accesses = 0;
    int64_t samples = 0;
    double mean_response_ms = 0.0;
    CacheStats stats;
};

CachedRun
runCachedVolume(bool one_queue)
{
    const int shards = 2;
    const double dispatch_ms = 2.0;
    std::vector<ShardSpec> specs(shards);
    for (ShardSpec &spec : specs)
        spec.layout_spec = "pddl:width=4";
    VolumeConfig vconfig;
    vconfig.chunk_units = 16;
    vconfig.dispatch_ms = dispatch_ms;
    ParallelEngine::Config engine_config;
    engine_config.lookahead = dispatch_ms;
    ParallelEngine engine(shards, engine_config);
    EventQueue queue;
    VolumeManager volume =
        one_queue ? VolumeManager(queue, std::move(specs), vconfig)
                  : VolumeManager(engine, std::move(specs), vconfig);

    CacheConfig cache_config;
    cache_config.capacity_units = 512;
    cache_config.ways = 8;
    cache_config.high_water = 0.2;
    cache_config.low_water = 0.1;
    CacheTier tier(one_queue ? queue : engine.hubQueue(), volume,
                   cache_config);

    ClosedLoopConfig config;
    config.clients = 6;
    config.access_units = 1;
    config.type = AccessType::Write;
    config.relative_tolerance = 0.0;
    config.min_samples = 400;
    config.max_samples = 400;
    config.warmup = 50;
    config.offsets.kind = traffic::OffsetSpec::Kind::HotSpot;
    config.offsets.hot_fraction = 0.001;
    config.offsets.hot_weight = 0.9;
    ClosedLoopClient client(config);
    if (one_queue) {
        client.start(queue, tier);
        queue.runUntilEmpty();
    } else {
        startOnHub(client, engine, tier);
        engine.run();
    }

    CachedRun run;
    run.volume_accesses = volume.volumeAccessesIssued();
    run.frontend_accesses = tier.accessesIssued();
    SimResult result = client.result();
    run.samples = result.samples;
    run.mean_response_ms = result.mean_response_ms;
    run.stats = tier.stats();
    return run;
}

TEST(CachedVolume, ThreadCountInvariant)
{
    const CachedRun serial = runCachedVolume(true);
    std::vector<CachedRun> runs(4);
    harness::parallelFor(4, runs.size(), [&runs](size_t i) {
        runs[i] = runCachedVolume(false);
    });
    for (const CachedRun &lanes : runs) {
        EXPECT_EQ(serial.samples, lanes.samples);
        EXPECT_EQ(serial.mean_response_ms, lanes.mean_response_ms);
        EXPECT_EQ(serial.volume_accesses, lanes.volume_accesses);
        EXPECT_EQ(serial.frontend_accesses, lanes.frontend_accesses);
        EXPECT_EQ(serial.stats.read_hits, lanes.stats.read_hits);
        EXPECT_EQ(serial.stats.read_misses, lanes.stats.read_misses);
        EXPECT_EQ(serial.stats.writes_absorbed,
                  lanes.stats.writes_absorbed);
        EXPECT_EQ(serial.stats.write_stalls, lanes.stats.write_stalls);
        EXPECT_EQ(serial.stats.destage_runs, lanes.stats.destage_runs);
        EXPECT_EQ(serial.stats.destage_units, lanes.stats.destage_units);
    }
    EXPECT_GE(serial.samples, 400); // stopping rule + in-flight tail
    // The cache actually did something in this scenario.
    EXPECT_GT(serial.stats.writes_absorbed, 0);
    EXPECT_GT(serial.stats.destage_runs, 0);
}

} // namespace
} // namespace pddl
