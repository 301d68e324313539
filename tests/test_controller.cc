/**
 * @file
 * Integration tests for the simulated array controller: RMW phase
 * ordering, completion semantics, and capacity accounting.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "array/controller.hh"
#include "core/pddl_layout.hh"
#include "layout/raid5.hh"
#include "sim/event_queue.hh"

namespace pddl {
namespace {

struct ControllerFixture : ::testing::Test
{
    EventQueue events;
    const HddDeviceModel &model = device::hp2247();
};

TEST_F(ControllerFixture, CapacityCoversWholePatterns)
{
    Raid5Layout raid5(13);
    ArrayController array(events, raid5, model, ArrayConfig{});
    int64_t rows = model.totalSectors() / 16;
    EXPECT_EQ(array.dataUnits() % raid5.dataUnitsPerPeriod(), 0);
    EXPECT_LE(array.dataUnits() / raid5.dataUnitsPerStripe(),
              rows); // stripes fit the media
    EXPECT_GT(array.dataUnits(), 100000); // ~1 GB of 8 KB units
}

TEST_F(ControllerFixture, ReadCompletesOnce)
{
    Raid5Layout raid5(13);
    ArrayController array(events, raid5, model, ArrayConfig{});
    int completions = 0;
    array.access(0, 6, AccessType::Read, [&] { ++completions; });
    events.runUntilEmpty();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(array.aggregateTally().total(), 6);
}

TEST_F(ControllerFixture, WritePhasesAreOrdered)
{
    // A small write's overwrites must start after every pre-read
    // completes: total time >= two sequential disk services.
    PddlLayout pddl(boseConstruction(13, 4));
    ArrayController array(events, pddl, model, ArrayConfig{});
    SimTime done_at = -1.0;
    array.access(0, 1, AccessType::Write,
                 [&] { done_at = events.now(); });
    events.runUntilEmpty();
    ASSERT_GT(done_at, 0.0);
    // Lower bound: a full rotation cannot be beaten by the
    // read-then-write of the same unit (write waits for the platter
    // to come around again), plus the initial positioning.
    EXPECT_GT(done_at, model.revolutionMs());
    // 2 reads then 2 writes.
    EXPECT_EQ(array.aggregateTally().total(), 4);
}

TEST_F(ControllerFixture, ConcurrentAccessesAllComplete)
{
    Raid5Layout raid5(13);
    ArrayController array(events, raid5, model, ArrayConfig{});
    int completions = 0;
    for (int i = 0; i < 40; ++i) {
        array.access(i * 100, 3, AccessType::Read,
                     [&] { ++completions; });
    }
    events.runUntilEmpty();
    EXPECT_EQ(completions, 40);
    EXPECT_EQ(array.accessesIssued(), 40u);
    EXPECT_EQ(array.aggregateTally().total(), 120);
}

TEST_F(ControllerFixture, DegradedModeNeverUsesFailedDisk)
{
    PddlLayout pddl(boseConstruction(13, 4));
    ArrayConfig config;
    config.mode = ArrayMode::Degraded;
    config.failed_disk = 5;
    ArrayController array(events, pddl, model, config);
    int completions = 0;
    for (int i = 0; i < 30; ++i) {
        array.access(i * 37, 4,
                     i % 2 ? AccessType::Write : AccessType::Read,
                     [&] { ++completions; });
    }
    events.runUntilEmpty();
    EXPECT_EQ(completions, 30);
    EXPECT_EQ(array.disk(5).tally().total(), 0);
    EXPECT_EQ(array.disk(5).busyMs(), 0.0);
}

TEST_F(ControllerFixture, PostReconstructionUsesSpareHomes)
{
    PddlLayout pddl(boseConstruction(13, 4));
    ArrayConfig config;
    config.mode = ArrayMode::PostReconstruction;
    config.failed_disk = 5;
    ArrayController array(events, pddl, model, config);
    int completions = 0;
    for (int i = 0; i < 60; ++i) {
        array.access(i * 13, 1, AccessType::Read,
                     [&] { ++completions; });
    }
    events.runUntilEmpty();
    EXPECT_EQ(completions, 60);
    EXPECT_EQ(array.disk(5).tally().total(), 0);
    // Each read is exactly one op even when the unit was on disk 5.
    EXPECT_EQ(array.aggregateTally().total(), 60);
}

TEST_F(ControllerFixture, RuntimeFailureForcesLargeWriteOfLostDataUnit)
{
    // A write whose modified data unit sits on the failed disk must
    // become a reconstruct-write: pre-read the surviving unmodified
    // data, then overwrite the checks -- phase-1 never touches the
    // failed disk.
    PddlLayout pddl(boseConstruction(13, 4));
    ArrayController array(events, pddl, model, ArrayConfig{});
    const int64_t stripe = 7;
    const int failed = pddl.map({stripe, 0}).disk;
    array.transition(ArrayState::Degraded, failed);
    EXPECT_EQ(array.mode(), ArrayMode::Degraded);

    RequestMapper expect(pddl, ArrayMode::Degraded, failed);
    auto ops = expect.expand(stripe * 3, 1, AccessType::Write);
    // Large write: read 2 surviving data units, write the check.
    ASSERT_EQ(ops.size(), 3u);
    int64_t before = array.aggregateTally().total();
    int completions = 0;
    array.access(stripe * 3, 1, AccessType::Write,
                 [&] { ++completions; });
    events.runUntilEmpty();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(array.aggregateTally().total() - before,
              static_cast<int64_t>(ops.size()));
    EXPECT_EQ(array.disk(failed).tally().total(), 0);
}

TEST_F(ControllerFixture, RuntimeFailureForcesSmallWriteOfLostUnmodifiedUnit)
{
    // When the failed disk holds an *unmodified* data unit of the
    // stripe, the mapper must fall back to read-modify-write even
    // where fault-free policy would reconstruct-write.
    PddlLayout pddl(boseConstruction(13, 4));
    ArrayController array(events, pddl, model, ArrayConfig{});
    const int64_t stripe = 11;
    const int failed = pddl.map({stripe, 2}).disk;
    array.transition(ArrayState::Degraded, failed);

    RequestMapper expect(pddl, ArrayMode::Degraded, failed);
    // Modify 2 of 3 data units: fault-free policy would large-write,
    // but the unmodified unit's disk is gone.
    auto ops = expect.expand(stripe * 3, 2, AccessType::Write);
    // Small write: pre-read 2 modified data + check, overwrite them.
    ASSERT_EQ(ops.size(), 6u);
    for (const PhysOp &op : ops)
        EXPECT_NE(op.addr.disk, failed);
    int64_t before = array.aggregateTally().total();
    int completions = 0;
    array.access(stripe * 3, 2, AccessType::Write,
                 [&] { ++completions; });
    events.runUntilEmpty();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(array.aggregateTally().total() - before,
              static_cast<int64_t>(ops.size()));
    EXPECT_EQ(array.disk(failed).tally().total(), 0);
}

TEST_F(ControllerFixture, RuntimeFailureOfCheckUnitDropsParityMaintenance)
{
    // Failed check unit: nothing protects the stripe, so a write is
    // a bare overwrite of the modified data.
    PddlLayout pddl(boseConstruction(13, 4));
    ArrayController array(events, pddl, model, ArrayConfig{});
    const int64_t stripe = 5;
    const int failed = pddl.map({stripe, 3}).disk;
    array.transition(ArrayState::Degraded, failed);

    RequestMapper expect(pddl, ArrayMode::Degraded, failed);
    auto ops = expect.expand(stripe * 3, 1, AccessType::Write);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_TRUE(ops[0].write);
    int64_t before = array.aggregateTally().total();
    int completions = 0;
    array.access(stripe * 3, 1, AccessType::Write,
                 [&] { ++completions; });
    events.runUntilEmpty();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(array.aggregateTally().total() - before, 1);
    EXPECT_EQ(array.disk(failed).tally().total(), 0);
}

TEST_F(ControllerFixture, RuntimeFailRestoreCycleOnOneController)
{
    // The live lifecycle APIs flip one controller through fault-free
    // -> degraded -> post-reconstruction -> fault-free in place.
    PddlLayout pddl(boseConstruction(13, 4));
    ArrayController array(events, pddl, model, ArrayConfig{});
    EXPECT_EQ(array.mode(), ArrayMode::FaultFree);
    EXPECT_EQ(array.failedDisk(), -1);

    array.transition(ArrayState::Degraded, 4);
    EXPECT_EQ(array.mode(), ArrayMode::Degraded);
    EXPECT_EQ(array.failedDisk(), 4);
    int completions = 0;
    for (int i = 0; i < 20; ++i)
        array.access(i * 53, 2, AccessType::Read,
                     [&] { ++completions; });
    events.runUntilEmpty();
    EXPECT_EQ(completions, 20);
    EXPECT_EQ(array.disk(4).tally().total(), 0);

    array.transition(ArrayState::PostReconstruction, 4);
    EXPECT_EQ(array.mode(), ArrayMode::PostReconstruction);
    array.transition(ArrayState::FaultFree);
    EXPECT_EQ(array.mode(), ArrayMode::FaultFree);
    EXPECT_EQ(array.failedDisk(), -1);
    // Back in service: the repaired disk carries load again.
    for (int i = 0; i < 200; ++i)
        array.access(i * 3, 3, AccessType::Read,
                     [&] { ++completions; });
    events.runUntilEmpty();
    EXPECT_EQ(completions, 220);
    EXPECT_GT(array.disk(4).tally().total(), 0);
}

TEST_F(ControllerFixture, IllegalTransitionsThrow)
{
    PddlLayout pddl(boseConstruction(13, 4));
    ArrayController array(events, pddl, model, ArrayConfig{});

    // Sparing needs a prior failure; a fault-free array cannot
    // "return" to fault-free either.
    EXPECT_THROW(array.transition(ArrayState::PostReconstruction, 4),
                 std::logic_error);
    EXPECT_THROW(array.transition(ArrayState::FaultFree),
                 std::logic_error);
    // Disk id must name a real disk.
    EXPECT_THROW(array.transition(ArrayState::Degraded, -1),
                 std::logic_error);
    EXPECT_THROW(array.transition(ArrayState::Degraded,
                                  pddl.numDisks()),
                 std::logic_error);
    EXPECT_EQ(array.mode(), ArrayState::FaultFree);

    array.transition(ArrayState::Degraded, 4);
    // Second failure is data loss, not a transition.
    EXPECT_THROW(array.transition(ArrayState::Degraded, 5),
                 std::logic_error);
    // Sparing must name the disk that actually failed.
    EXPECT_THROW(array.transition(ArrayState::PostReconstruction, 5),
                 std::logic_error);
    EXPECT_EQ(array.mode(), ArrayState::Degraded);
    EXPECT_EQ(array.failedDisk(), 4);
}

TEST_F(ControllerFixture, SparingRequiresSpareSpace)
{
    Raid5Layout raid5(13); // no distributed spare
    ArrayController array(events, raid5, model, ArrayConfig{});
    array.transition(ArrayState::Degraded, 3);
    EXPECT_THROW(array.transition(ArrayState::PostReconstruction, 3),
                 std::logic_error);
    // Repair without sparing goes straight back to fault-free.
    array.transition(ArrayState::FaultFree);
    EXPECT_EQ(array.mode(), ArrayState::FaultFree);
}

TEST_F(ControllerFixture, TransitionsEmitTraceInstants)
{
    if (!obs::kObsEnabled)
        GTEST_SKIP() << "hooks compiled out (PDDL_OBS=OFF)";
    PddlLayout pddl(boseConstruction(13, 4));
    obs::MetricsRegistry registry;
    obs::Tracer tracer(64);
    ArrayConfig config;
    config.probe = obs::Probe(&registry, &tracer);
    ArrayController array(events, pddl, model, config);

    array.transition(ArrayState::Degraded, 2);
    array.transition(ArrayState::PostReconstruction, 2);
    array.transition(ArrayState::FaultFree);

    EXPECT_DOUBLE_EQ(registry.snapshot().counter("array.transitions"),
                     3.0);
    int instants = 0;
    for (const obs::TraceEvent &event : tracer.events()) {
        if (event.phase == obs::TraceEvent::Phase::Instant &&
            std::string(event.name) == "array.transition") {
            ++instants;
        }
    }
    EXPECT_EQ(instants, 3);
    std::string json = tracer.chromeJson();
    EXPECT_NE(json.find("\"from\": \"degraded\""), std::string::npos);
    EXPECT_NE(json.find("\"to\": \"post_reconstruction\""),
              std::string::npos);
}

TEST_F(ControllerFixture, DeterministicReplay)
{
    auto run = [&] {
        EventQueue queue;
        Raid5Layout raid5(13);
        ArrayController array(queue, raid5, model, ArrayConfig{});
        SimTime last = 0.0;
        for (int i = 0; i < 25; ++i) {
            array.access((i * 997) % 10000, 6,
                         i % 3 ? AccessType::Read : AccessType::Write,
                         [&] { last = queue.now(); });
        }
        queue.runUntilEmpty();
        return last;
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

} // namespace
} // namespace pddl
