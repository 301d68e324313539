/**
 * @file
 * Tests for the sharded volume layer: routing bijection properties
 * swept over shard counts, placement policies and all layout
 * families; access fan-out and completion accounting; degraded-mode
 * containment; and determinism of a workload driven through the
 * Target interface.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/pddl_layout.hh"
#include "core/scenario_spec.hh"
#include "layout/mirror.hh"
#include "layout/raid5.hh"
#include "sim/parallel_engine.hh"
#include "volume/volume_manager.hh"
#include "workload/closed_loop.hh"

namespace pddl {
namespace {

/** The five evaluated layout families on the paper's 13-disk array. */
std::vector<std::string>
allFamilies()
{
    return {"datum:width=4", "parity:width=4", "raid5", "pddl:width=4",
            "prime:width=4"};
}

std::vector<ShardSpec>
uniformShards(const std::string &layout, int count)
{
    std::vector<ShardSpec> specs(static_cast<size_t>(count));
    for (ShardSpec &spec : specs)
        spec.layout_spec = layout;
    return specs;
}

TEST(Placement, PoliciesEmitPermutations)
{
    StaticPlacement fixed;
    RotatedPlacement rotated;
    ShuffledPlacement shuffled;
    const struct
    {
        const char *label;
        const PlacementPolicy *policy;
    } policies[] = {
        {"static", &fixed}, {"rotate", &rotated}, {"shuffle", &shuffled}};
    for (const auto &[label, policy] : policies) {
        for (int shards : {1, 2, 3, 5, 8, 64}) {
            for (int64_t period : {0, 1, 7, 1000}) {
                int perm[kMaxVolumeShards];
                policy->permutation(period, shards, perm);
                std::set<int> seen;
                for (int i = 0; i < shards; ++i) {
                    EXPECT_GE(perm[i], 0) << label;
                    EXPECT_LT(perm[i], shards) << label;
                    seen.insert(perm[i]);
                }
                EXPECT_EQ(seen.size(), static_cast<size_t>(shards))
                    << label << " period " << period;
            }
        }
    }
}

TEST(Placement, PoliciesArePureFunctions)
{
    ShuffledPlacement shuffled;
    int a[8], b[8];
    shuffled.permutation(123, 8, a);
    shuffled.permutation(123, 8, b);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(a[i], b[i]);
    // A different seed develops a different permutation sequence.
    ShuffledPlacement other(1);
    bool differs = false;
    for (int64_t period = 0; period < 16 && !differs; ++period) {
        shuffled.permutation(period, 8, a);
        other.permutation(period, 8, b);
        for (int i = 0; i < 8; ++i)
            differs |= a[i] != b[i];
    }
    EXPECT_TRUE(differs);
}

/**
 * The core routing property: route() is a bijection between the
 * volume address space and the union of the shard-local spaces --
 * every volume unit round-trips through volumeUnitOf(), and no two
 * volume units share a (shard, local unit) home. Swept over shard
 * counts, placement policies and every layout family.
 */
TEST(VolumeRouting, BijectionAcrossShardCountsPoliciesAndFamilies)
{
    StaticPlacement fixed;
    RotatedPlacement rotated;
    ShuffledPlacement shuffled;
    const struct
    {
        const char *label;
        const PlacementPolicy *policy;
    } policies[] = {
        {"static", &fixed}, {"rotate", &rotated}, {"shuffle", &shuffled}};

    for (const std::string &layout : allFamilies()) {
        for (int shard_count : {1, 2, 3, 4, 8}) {
            for (const auto &[label, policy] : policies) {
                EventQueue events;
                VolumeConfig config;
                config.chunk_units = 16;
                config.placement = policy;
                VolumeManager volume(
                    events, uniformShards(layout, shard_count),
                    config);

                ASSERT_EQ(volume.dataUnits(),
                          volume.shardDataUnits() * shard_count);

                // Cover several whole placement periods plus the tail
                // of the address space.
                const int64_t period_units =
                    volume.chunkUnits() * shard_count;
                const int64_t head =
                    std::min<int64_t>(volume.dataUnits(),
                                      4 * period_units);
                std::set<std::pair<int, int64_t>> homes;
                auto probe = [&](int64_t unit) {
                    VolumeAddress addr = volume.route(unit);
                    ASSERT_GE(addr.shard, 0);
                    ASSERT_LT(addr.shard, shard_count);
                    ASSERT_GE(addr.unit, 0);
                    ASSERT_LT(addr.unit, volume.shardDataUnits());
                    EXPECT_EQ(volume.volumeUnitOf(addr), unit)
                        << layout << " S=" << shard_count
                        << " policy=" << label;
                    EXPECT_TRUE(
                        homes.emplace(addr.shard, addr.unit).second)
                        << "two volume units share a home";
                };
                for (int64_t unit = 0; unit < head; ++unit)
                    probe(unit);
                for (int64_t unit =
                         std::max(head, volume.dataUnits() - 64);
                     unit < volume.dataUnits(); ++unit)
                    probe(unit);
            }
        }
    }
}

TEST(VolumeRouting, EveryShardServesOneChunkPerPeriod)
{
    const std::string layout = "pddl:width=4";
    ShuffledPlacement shuffled;
    EventQueue events;
    VolumeConfig config;
    config.chunk_units = 8;
    config.placement = &shuffled;
    VolumeManager volume(events, uniformShards(layout, 4), config);

    const int64_t periods =
        volume.shardDataUnits() / volume.chunkUnits();
    for (int64_t period = 0; period < std::min<int64_t>(periods, 32);
         ++period) {
        std::set<int> shards_hit;
        for (int slot = 0; slot < 4; ++slot) {
            const int64_t chunk = period * 4 + slot;
            VolumeAddress addr =
                volume.route(chunk * volume.chunkUnits());
            shards_hit.insert(addr.shard);
            // Chunk-local addresses stay within one shard chunk.
            EXPECT_EQ(addr.unit % volume.chunkUnits(), 0);
            EXPECT_EQ(addr.unit / volume.chunkUnits(), period);
        }
        EXPECT_EQ(shards_hit.size(), 4u) << "period " << period;
    }
}

struct VolumeFixture : ::testing::Test
{
    EventQueue events;
    const std::string layout = "pddl:width=4";

    std::unique_ptr<VolumeManager>
    makeVolume(int shard_count, int chunk_units = 8)
    {
        VolumeConfig config;
        config.chunk_units = chunk_units;
        return std::make_unique<VolumeManager>(
            events, uniformShards(layout, shard_count), config);
    }
};

TEST_F(VolumeFixture, RejectsInvalidConfigurations)
{
    EXPECT_THROW(VolumeManager(events, {}), std::logic_error);
    VolumeConfig tiny;
    tiny.chunk_units = 0;
    EXPECT_THROW(
        VolumeManager(events, uniformShards(layout, 2), tiny),
        std::logic_error);
    EXPECT_THROW(
        VolumeManager(events,
                      uniformShards(layout,
                                    kMaxVolumeShards + 1)),
        std::logic_error);
}

TEST_F(VolumeFixture, CapacityIsChunkAlignedAndLeveled)
{
    auto volume = makeVolume(3, 7);
    EXPECT_EQ(volume->shardDataUnits() % 7, 0);
    EXPECT_LE(volume->shardDataUnits(),
              volume->shard(0).dataUnits());
    EXPECT_EQ(volume->dataUnits(), 3 * volume->shardDataUnits());
}

TEST_F(VolumeFixture, AccessesCompleteAndFanOutAcrossChunks)
{
    auto volume = makeVolume(4);
    int completions = 0;
    // Aligned single-chunk access: exactly one sub-access.
    volume->access(0, 8, AccessType::Read, [&] { ++completions; });
    // Straddles a chunk boundary: fans out into two sub-accesses on
    // two different shards.
    volume->access(4, 8, AccessType::Read, [&] { ++completions; });
    events.runUntilEmpty();

    EXPECT_EQ(completions, 2);
    EXPECT_EQ(volume->volumeAccessesIssued(), 2u);
    EXPECT_EQ(volume->subAccessesIssued(), 3u);
    for (int s = 0; s < volume->shardCount(); ++s)
        EXPECT_EQ(volume->inFlight(s), 0);
    int busy_shards = 0;
    for (int s = 0; s < volume->shardCount(); ++s)
        busy_shards += volume->maxInFlight(s) > 0 ? 1 : 0;
    EXPECT_EQ(busy_shards, 2);
    // Target::accessesIssued rolls up the per-shard counts.
    EXPECT_EQ(volume->accessesIssued(), 3u);
}

TEST_F(VolumeFixture, DegradedShardKeepsServingItsChunks)
{
    auto volume = makeVolume(2);
    EXPECT_EQ(volume->degradedShards(), 0);
    volume->shard(0).transition(ArrayState::Degraded, 3);
    EXPECT_EQ(volume->degradedShards(), 1);

    // Whole-volume sweep: chunks on the degraded shard are served by
    // its degraded-mode machinery, the healthy shard is untouched.
    int completions = 0;
    const int64_t chunks =
        std::min<int64_t>(volume->dataUnits() / volume->chunkUnits(),
                          64);
    for (int64_t c = 0; c < chunks; ++c) {
        volume->access(c * volume->chunkUnits(), 1, AccessType::Read,
                       [&] { ++completions; });
    }
    events.runUntilEmpty();
    EXPECT_EQ(completions, chunks);
    EXPECT_EQ(volume->degradedShards(), 1);
    EXPECT_EQ(volume->shard(1).mode(), ArrayMode::FaultFree);
}

TEST_F(VolumeFixture, ClosedLoopOverVolumeIsDeterministic)
{
    ClosedLoopConfig config;
    config.clients = 6;
    config.access_units = 3;
    config.relative_tolerance = 0.0;
    config.min_samples = 400;
    config.max_samples = 400;
    config.warmup = 50;

    auto run = [&] {
        EventQueue queue;
        VolumeConfig vconfig;
        vconfig.chunk_units = 8;
        VolumeManager volume(queue, uniformShards(layout, 4),
                             vconfig);
        ClosedLoopClient client(config);
        client.start(queue, volume);
        queue.runUntilEmpty();
        return client.result();
    };
    SimResult a = run();
    SimResult b = run();
    EXPECT_DOUBLE_EQ(a.mean_response_ms, b.mean_response_ms);
    EXPECT_DOUBLE_EQ(a.throughput_per_s, b.throughput_per_s);
    EXPECT_EQ(a.samples, b.samples);
}

TEST_F(VolumeFixture, WorkloadRunsAgainstArrayAndVolumeAlike)
{
    // The redesigned API: one Workload drives any Target. The same
    // client config runs against a bare controller and a 1-shard
    // volume of the same layout; both complete the same sample count.
    ClosedLoopConfig config;
    config.clients = 4;
    config.access_units = 2;
    config.relative_tolerance = 0.0;
    config.min_samples = 200;
    config.max_samples = 200;
    config.warmup = 20;

    EventQueue queue_a;
    PddlLayout pddl = PddlLayout::make(13, 4);
    ArrayController array(queue_a, pddl, device::hp2247(),
                          ArrayConfig{});
    ClosedLoopClient on_array(config);
    on_array.start(queue_a, array);
    queue_a.runUntilEmpty();

    EventQueue queue_b;
    VolumeManager volume(queue_b, uniformShards(layout, 1));
    ClosedLoopClient on_volume(config);
    on_volume.start(queue_b, volume);
    queue_b.runUntilEmpty();

    // In-flight completions may land after the stopping rule
    // latches, so each run measures at least min_samples and at most
    // clients - 1 extra.
    EXPECT_GE(on_array.result().samples, config.min_samples);
    EXPECT_LT(on_array.result().samples,
              config.min_samples + config.clients);
    EXPECT_GE(on_volume.result().samples, config.min_samples);
    EXPECT_LT(on_volume.result().samples,
              config.min_samples + config.clients);
}

/** The heterogeneous fixture: a flash mirror tier + a PDDL shard. */
std::vector<ShardSpec>
hybridShards()
{
    ShardSpec fast;
    fast.layout_spec = "mirror:copies=2";
    fast.device_spec = "ssd";
    fast.disks = 4;
    ShardSpec bulk;
    bulk.layout_spec = "pddl:width=4";
    bulk.device_spec = "hp2247";
    bulk.disks = 13;
    return {fast, bulk};
}

VolumeConfig
tieredConfig()
{
    VolumeConfig config;
    config.chunk_units = 8;
    config.allocation = VolumeAllocation::Tiered;
    return config;
}

TEST(VolumeTiered, GroupsFormByDeviceClassInListingOrder)
{
    EventQueue events;
    VolumeManager volume(events, hybridShards(), tieredConfig());

    // Tier labels default from the device class: ssd -> "fast",
    // mechanical -> "bulk"; groups keep first-appearance order, so
    // the first-listed tier owns the address prefix.
    ASSERT_EQ(volume.allocationGroups(), 2);
    EXPECT_EQ(volume.groupTier(0), "fast");
    EXPECT_EQ(volume.groupTier(1), "bulk");
    EXPECT_EQ(volume.shardTier(0), "fast");
    EXPECT_EQ(volume.shardTier(1), "bulk");
    EXPECT_STREQ(volume.shardDevice(0).kind(), "ssd");
    EXPECT_STREQ(volume.shardDevice(1).kind(), "hp2247");
    EXPECT_NE(dynamic_cast<const MirrorLayout *>(
                  &volume.shard(0).layout()),
              nullptr);
    EXPECT_NE(dynamic_cast<const PddlLayout *>(&volume.shard(1).layout()),
              nullptr);

    // The address space is the concatenation of the group spans,
    // each chunk-aligned.
    EXPECT_EQ(volume.dataUnits(),
              volume.groupUnits(0) + volume.groupUnits(1));
    EXPECT_EQ(volume.shardDataUnits(0) % volume.chunkUnits(), 0);
    EXPECT_EQ(volume.shardDataUnits(1) % volume.chunkUnits(), 0);
    // Flash trades capacity for latency: the fast tier is the small
    // prefix, not the bulk of the volume.
    EXPECT_LT(volume.groupUnits(0), volume.groupUnits(1));

    // An explicit label overrides the device-class default.
    std::vector<ShardSpec> labeled = hybridShards();
    labeled[0].tier = "cache";
    VolumeManager relabeled(events, labeled, tieredConfig());
    EXPECT_EQ(relabeled.groupTier(0), "cache");
}

TEST(VolumeTiered, RoutingIsABijectionAndPrefixLandsOnFastTier)
{
    EventQueue events;
    VolumeManager volume(events, hybridShards(), tieredConfig());
    const int64_t fast_units = volume.groupUnits(0);

    std::set<std::pair<int, int64_t>> homes;
    auto probe = [&](int64_t unit) {
        VolumeAddress addr = volume.route(unit);
        const int expected_shard = unit < fast_units ? 0 : 1;
        ASSERT_EQ(addr.shard, expected_shard) << unit;
        ASSERT_GE(addr.unit, 0);
        ASSERT_LT(addr.unit, volume.shardDataUnits(addr.shard));
        EXPECT_EQ(volume.volumeUnitOf(addr), unit) << unit;
        EXPECT_TRUE(homes.emplace(addr.shard, addr.unit).second)
            << "two volume units share a home at " << unit;
    };
    // The fast prefix, the tier boundary, and the bulk tail.
    for (int64_t unit = 0; unit < std::min<int64_t>(fast_units, 512);
         ++unit)
        probe(unit);
    for (int64_t unit = fast_units - 64; unit < fast_units + 512;
         ++unit)
        probe(unit);
    for (int64_t unit = volume.dataUnits() - 64;
         unit < volume.dataUnits(); ++unit)
        probe(unit);
}

TEST(VolumeTiered, AccessesCrossTheTierBoundaryAndComplete)
{
    EventQueue events;
    VolumeManager volume(events, hybridShards(), tieredConfig());
    const int64_t boundary = volume.groupUnits(0);

    int completions = 0;
    volume.access(boundary - 1, 2, AccessType::Write,
                  [&] { ++completions; });
    events.runUntilEmpty();
    EXPECT_EQ(completions, 1);
    // The straddling access fanned out onto both tiers.
    EXPECT_EQ(volume.subAccessesIssued(), 2u);
    EXPECT_GT(volume.maxInFlight(0), 0);
    EXPECT_GT(volume.maxInFlight(1), 0);
}

TEST(VolumeTiered, SpecBuiltStripedVolumeMatchesPrebuiltLayouts)
{
    // Shards built from spec strings map and size exactly as a layout
    // built directly -- the registry changes construction, never
    // addressing.
    PddlLayout layout = PddlLayout::make(13, 4);
    EventQueue events;
    ArrayController array(events, layout, device::hp2247(),
                          ArrayConfig{});
    VolumeConfig config;
    config.chunk_units = 8;
    std::vector<ShardSpec> by_spec(2);
    for (ShardSpec &spec : by_spec) {
        spec.layout_spec = "pddl:width=4";
        spec.device_spec = "hp2247";
    }
    VolumeManager volume(events, by_spec, config);

    for (int s = 0; s < volume.shardCount(); ++s) {
        const Layout &built = volume.shard(s).layout();
        EXPECT_EQ(built.name(), layout.name());
        ASSERT_EQ(built.stripesPerPeriod(), layout.stripesPerPeriod());
        EXPECT_EQ(volume.shard(s).dataUnits(), array.dataUnits());
        for (int64_t stripe = 0; stripe < 2 * layout.stripesPerPeriod();
             ++stripe) {
            for (int pos = 0; pos < layout.stripeWidth(); ++pos) {
                const PhysAddr a = built.map({stripe, pos});
                const PhysAddr b = layout.map({stripe, pos});
                ASSERT_EQ(a.disk, b.disk) << stripe << "/" << pos;
                ASSERT_EQ(a.unit, b.unit) << stripe << "/" << pos;
            }
        }
    }
    EXPECT_EQ(volume.shardDataUnits(),
              array.dataUnits() - array.dataUnits() % 8);
}

TEST(VolumeSharing, ShardsWithEqualSpecsShareOneLayoutAndDevice)
{
    // A layout or device is immutable, so shards built from equal
    // specs share one object (and one map table); any difference in
    // spec or disk count gets its own, and the default device spec is
    // the HP 2247.
    const std::string hdd = "hdd:rpm=7200,avg_seek_ms=8";
    std::vector<ShardSpec> specs(6);
    specs[0].layout_spec = "raid5";
    specs[0].device_spec = "hp2247";
    specs[1].layout_spec = "pddl:width=4";
    specs[1].device_spec = hdd;
    specs[2].device_spec = hdd; // default layout_spec "pddl:width=4"
    specs[3].layout_spec = "pddl:width=4";
    specs[3].disks = 17;
    specs[3].device_spec = "hdd:rpm=5400,avg_seek_ms=8";
    specs[4].layout_spec = "raid5";
    specs[5].layout_spec = "pddl:width=4";
    EventQueue events;
    VolumeConfig config;
    config.chunk_units = 8;
    VolumeManager volume(events, specs, config);

    const Layout *shared = &volume.shard(1).layout();
    EXPECT_EQ(&volume.shard(2).layout(), shared);
    EXPECT_EQ(&volume.shard(5).layout(), shared);
    EXPECT_NE(&volume.shard(3).layout(), shared);
    EXPECT_EQ(volume.shard(3).layout().numDisks(), 17);
    EXPECT_NE(dynamic_cast<const Raid5Layout *>(&volume.shard(0).layout()),
              nullptr);
    EXPECT_EQ(&volume.shard(4).layout(), &volume.shard(0).layout());

    EXPECT_EQ(&volume.shardDevice(2), &volume.shardDevice(1));
    EXPECT_NE(&volume.shardDevice(3), &volume.shardDevice(1));
    EXPECT_EQ(&volume.shardDevice(5), &device::hp2247());
    EXPECT_EQ(&volume.shardDevice(4), &device::hp2247());
    EXPECT_EQ(&volume.shardDevice(0), &device::hp2247());

    // A volume built from a compiled scenario runs on the compiled
    // objects themselves; shards 0 and 2 are equal ("pddl" is
    // "pddl:width=4" in canonical form), so they share one of each.
    ScenarioSpec spec;
    spec.shards = {{"pddl", hdd, 13, "", -1, false},
                   {"raid5", "hp2247", 13, "", -1, false},
                   {"pddl:width=4", hdd, 13, "", -1, false}};
    std::string error;
    const std::optional<CompiledScenario> compiled =
        compileScenario(spec, error);
    ASSERT_TRUE(compiled) << error;
    ParallelEngine engine(3, {});
    std::vector<VolumeShard> shards;
    for (int s = 0; s < 3; ++s)
        shards.push_back({compiled->shard(s).layout,
                          compiled->shard(s).device, "", ArrayConfig{}});
    VolumeManager from_compiled(engine, std::move(shards), config);
    for (int s = 0; s < 3; ++s) {
        EXPECT_EQ(&from_compiled.shard(s).layout(),
                  compiled->shard(s).layout.get());
        EXPECT_EQ(&from_compiled.shardDevice(s),
                  compiled->shard(s).device.get());
    }
    EXPECT_EQ(compiled->shard(2).layout, compiled->shard(0).layout);
    EXPECT_EQ(compiled->shard(2).device, compiled->shard(0).device);
    EXPECT_NE(compiled->shard(1).layout, compiled->shard(0).layout);
}

TEST(VolumeTiered, DegradedMirrorShardKeepsServingTheFastTier)
{
    EventQueue events;
    VolumeManager volume(events, hybridShards(), tieredConfig());
    volume.shard(0).transition(ArrayState::Degraded, 1);
    EXPECT_EQ(volume.degradedShards(), 1);

    // Reads of the flash prefix are served degraded-free from the
    // surviving replicas.
    int completions = 0;
    for (int64_t c = 0;
         c < volume.groupUnits(0) / volume.chunkUnits() &&
         c < int64_t{64};
         ++c) {
        volume.access(c * volume.chunkUnits(), 1, AccessType::Read,
                      [&] { ++completions; });
    }
    events.runUntilEmpty();
    EXPECT_GT(completions, 0);
    EXPECT_EQ(volume.shard(1).mode(), ArrayMode::FaultFree);
}

} // namespace
} // namespace pddl
