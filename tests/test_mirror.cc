/**
 * @file
 * Tests for the RAID-1/0 mirrored layout: placement structure (full
 * replicas striped over groups), the three replica-read schedulers,
 * degraded-free reads with a failed copy, writes updating every
 * surviving replica, and end-to-end determinism of a simulated
 * closed loop over a mirrored array.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "array/request_mapper.hh"
#include "core/scenario_spec.hh"
#include "disk/device_model.hh"
#include "layout/mirror.hh"
#include "tune/scenario_runner.hh"

namespace pddl {
namespace {

TEST(Mirror, StripesOverReplicaGroups)
{
    // 6 disks, 2 copies: 3 groups; stripe s lives on group s mod 3,
    // row s / 3, and every position is a copy of the one data unit.
    MirrorLayout layout(6, 2);
    EXPECT_EQ(layout.stripesPerPeriod(), 3);
    EXPECT_EQ(layout.stripeWidth(), 2);
    EXPECT_EQ(layout.dataUnitsPerStripe(), 1);
    EXPECT_EQ(layout.mirrorCopies(), 2);
    EXPECT_EQ(layout.checkUnitsPerStripe(), 1);
    for (int64_t s = 0; s < 12; ++s) {
        for (int pos = 0; pos < 2; ++pos) {
            PhysAddr addr = layout.map({s, pos});
            EXPECT_EQ(addr.disk, (s % 3) * 2 + pos) << s;
            EXPECT_EQ(addr.unit, s / 3) << s;
        }
    }
}

TEST(Mirror, OnePeriodCoversEveryDiskRowOnce)
{
    for (int copies : {2, 3}) {
        MirrorLayout layout(12, copies);
        std::set<std::pair<int, int64_t>> seen;
        for (int64_t s = 0; s < layout.stripesPerPeriod(); ++s) {
            for (int pos = 0; pos < layout.stripeWidth(); ++pos) {
                PhysAddr addr = layout.map({s, pos});
                EXPECT_TRUE(
                    seen.insert({addr.disk, addr.unit}).second)
                    << "copies=" << copies << " stripe " << s;
            }
        }
        EXPECT_EQ(seen.size(),
                  static_cast<size_t>(12 *
                                      layout.unitsPerDiskPerPeriod()))
            << "copies=" << copies;
    }
}

/** The disk serving one single-unit read of data unit `unit`. */
int
readDisk(const RequestMapper &mapper, int64_t unit)
{
    std::vector<PhysOp> ops =
        mapper.expand(unit, 1, AccessType::Read);
    EXPECT_EQ(ops.size(), 1u);
    EXPECT_FALSE(ops[0].write);
    return ops[0].addr.disk;
}

TEST(Mirror, RoundRobinCyclesThroughCopies)
{
    MirrorLayout layout(4, 2, ReplicaSched::RoundRobin);
    RequestMapper mapper(layout);
    // Data unit 0 = stripe 0 = disks {0, 1}: successive reads
    // alternate copies.
    EXPECT_EQ(readDisk(mapper, 0), 0);
    EXPECT_EQ(readDisk(mapper, 0), 1);
    EXPECT_EQ(readDisk(mapper, 0), 0);
    EXPECT_EQ(readDisk(mapper, 0), 1);
}

TEST(Mirror, PrimaryAlwaysServesFirstSurvivor)
{
    MirrorLayout layout(4, 2, ReplicaSched::Primary);
    RequestMapper mapper(layout);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(readDisk(mapper, 0), 0);
    // With the primary failed, the survivor serves every read.
    mapper.setMode(ArrayMode::Degraded, 0);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(readDisk(mapper, 0), 1);
}

TEST(Mirror, ShortestQueuePicksLeastLoadedCopy)
{
    MirrorLayout layout(4, 2, ReplicaSched::ShortestQueue);
    RequestMapper mapper(layout);
    // Without a depth hook the scheduler falls back to the primary.
    EXPECT_EQ(readDisk(mapper, 0), 0);

    int depth[4] = {5, 1, 0, 0};
    mapper.setQueueDepthHook([&](int disk) { return depth[disk]; });
    EXPECT_EQ(readDisk(mapper, 0), 1);
    depth[1] = 9;
    EXPECT_EQ(readDisk(mapper, 0), 0);
    // Ties break to the lowest surviving position, deterministically.
    depth[0] = depth[1] = 3;
    EXPECT_EQ(readDisk(mapper, 0), 0);
}

TEST(Mirror, DegradedReadsNeedNoReconstruction)
{
    // A failed copy never fans a read out: one op on the survivor,
    // for every stripe of the failed disk's group.
    MirrorLayout layout(6, 2, ReplicaSched::RoundRobin);
    RequestMapper mapper(layout, ArrayMode::Degraded, 2);
    for (int64_t unit = 0; unit < 18; ++unit) {
        std::vector<PhysOp> ops =
            mapper.expand(unit, 1, AccessType::Read);
        ASSERT_EQ(ops.size(), 1u) << unit;
        EXPECT_FALSE(ops[0].write);
        EXPECT_NE(ops[0].addr.disk, 2) << unit;
    }
}

TEST(Mirror, WritesUpdateEverySurvivingCopy)
{
    MirrorLayout layout(6, 3);
    RequestMapper mapper(layout);
    std::vector<PhysOp> ops = mapper.expand(0, 1, AccessType::Write);
    ASSERT_EQ(ops.size(), 3u);
    std::set<int> disks;
    for (const PhysOp &op : ops) {
        EXPECT_TRUE(op.write);
        EXPECT_EQ(op.phase, 1); // no pre-reads: nothing to RMW
        EXPECT_EQ(op.addr.unit, 0);
        disks.insert(op.addr.disk);
    }
    EXPECT_EQ(disks, (std::set<int>{0, 1, 2}));

    // Degraded: the failed copy drops out, the survivors still get
    // the new data.
    mapper.setMode(ArrayMode::Degraded, 1);
    ops = mapper.expand(0, 1, AccessType::Write);
    ASSERT_EQ(ops.size(), 2u);
    for (const PhysOp &op : ops) {
        EXPECT_TRUE(op.write);
        EXPECT_NE(op.addr.disk, 1);
    }
}

TEST(Mirror, ClosedLoopRunsDeterministicallyUnderEachScheduler)
{
    for (const char *sched :
         {"primary", "round_robin", "shortest_queue"}) {
        ScenarioSpec spec;
        spec.shards.front().layout =
            std::string("mirror:copies=2,sched=") + sched;
        spec.shards.front().disks = 26;
        spec.dispatch_ms = 0.0;
        spec.client = "closed";
        spec.clients = 4;
        spec.ci_tolerance = 0.02;
        spec.min_samples = 200;
        spec.samples = 400;
        spec.warmup = 50;
        std::string error;
        ASSERT_TRUE(spec.normalize(error)) << error;
        const tune::RunScenarioOptions options;
        tune::ScenarioOutcome first = tune::runScenario(spec, options);
        tune::ScenarioOutcome again = tune::runScenario(spec, options);
        EXPECT_GT(first.samples, 0);
        EXPECT_GT(first.mean_ms, 0.0);
        EXPECT_EQ(first.mean_ms, again.mean_ms) << sched;
        EXPECT_EQ(first.samples, again.samples);

        // And degraded service stays up on the surviving copies.
        spec.shards.front().failed_disk = 3;
        tune::ScenarioOutcome degraded = tune::runScenario(spec, options);
        EXPECT_GT(degraded.samples, 0);
    }
}

} // namespace
} // namespace pddl
