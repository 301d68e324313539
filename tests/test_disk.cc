/**
 * @file
 * Tests for the simulated drive: service times, SSTF scheduling, and
 * the paper's local/non-local seek classification.
 */

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "disk/disk.hh"
#include "sim/event_queue.hh"
#include "util/ring_queue.hh"
#include "util/rng.hh"

namespace pddl {
namespace {

struct DiskFixture : ::testing::Test
{
    EventQueue events;
    const HddDeviceModel &model = device::hp2247();

    DiskRequest
    request(int64_t lba, int sectors, uint64_t access_id,
            InlineCallback done = {})
    {
        DiskRequest r;
        r.lba = lba;
        r.sectors = sectors;
        r.write = false;
        r.access_id = access_id;
        r.done = std::move(done);
        return r;
    }
};

TEST_F(DiskFixture, SingleRequestCompletesWithinMechanicalBounds)
{
    Disk disk(events, model);
    SimTime completion = -1.0;
    disk.submit(request(5000, 16, 1,
                        [&] { completion = events.now(); }));
    events.runUntilEmpty();
    ASSERT_GE(completion, 0.0);
    // Lower bound: pure transfer of 16 sectors. Upper bound: max seek
    // + full rotation + transfer + slack.
    double rev = model.revolutionMs();
    EXPECT_GT(completion, 16.0 / 89.0 * rev * 0.9);
    EXPECT_LT(completion, 18.0 + rev + 5.0);
}

TEST_F(DiskFixture, RotationalLatencyBelowOneRevolution)
{
    // Re-reading the sector just served must wait almost a whole
    // revolution; reading the next sector should be nearly free.
    Disk disk(events, model);
    SimTime first_done = 0.0, again_done = 0.0;
    disk.submit(request(0, 1, 1, [&] { first_done = events.now(); }));
    events.runUntilEmpty();
    disk.submit(request(0, 1, 2, [&] { again_done = events.now(); }));
    events.runUntilEmpty();
    double rev = model.revolutionMs();
    double wait = again_done - first_done;
    EXPECT_GT(wait, 0.8 * rev);
    EXPECT_LT(wait, 1.1 * rev);
}

TEST_F(DiskFixture, SequentialSectorsStreamAtMediaRate)
{
    Disk disk(events, model);
    SimTime done1 = 0.0, done2 = 0.0;
    disk.submit(request(0, 1, 1, [&] { done1 = events.now(); }));
    events.runUntilEmpty();
    disk.submit(request(1, 1, 2, [&] { done2 = events.now(); }));
    events.runUntilEmpty();
    // Next sector under the head: no seek, (almost) no rotation.
    double sector_time = model.revolutionMs() / 89.0;
    EXPECT_NEAR(done2 - done1, sector_time, sector_time * 0.5);
}

TEST_F(DiskFixture, SstfPicksNearestCylinder)
{
    // Queue: far cylinder first, near cylinder second. SSTF must
    // serve the near one first once the disk is busy with a third.
    Disk disk(events, model, 20);
    std::vector<int> completion_order;
    const DiskGeometry &geo = model.geometry();
    int64_t near_lba = geo.chsToLba({10, 0, 0});
    int64_t far_lba = geo.chsToLba({1900, 0, 0});
    // First request makes the disk busy at cylinder 0.
    disk.submit(request(0, 1, 1, [&] { completion_order.push_back(0); }));
    disk.submit(
        request(far_lba, 1, 2, [&] { completion_order.push_back(2); }));
    disk.submit(
        request(near_lba, 1, 3, [&] { completion_order.push_back(3); }));
    events.runUntilEmpty();
    ASSERT_EQ(completion_order.size(), 3u);
    EXPECT_EQ(completion_order[0], 0);
    EXPECT_EQ(completion_order[1], 3); // near before far
    EXPECT_EQ(completion_order[2], 2);
}

TEST_F(DiskFixture, FcfsWindowOneIgnoresDistance)
{
    Disk disk(events, model, 1); // degenerate SSTF = FCFS
    std::vector<int> completion_order;
    const DiskGeometry &geo = model.geometry();
    int64_t near_lba = geo.chsToLba({10, 0, 0});
    int64_t far_lba = geo.chsToLba({1900, 0, 0});
    disk.submit(request(0, 1, 1, [&] { completion_order.push_back(0); }));
    disk.submit(
        request(far_lba, 1, 2, [&] { completion_order.push_back(2); }));
    disk.submit(
        request(near_lba, 1, 3, [&] { completion_order.push_back(3); }));
    events.runUntilEmpty();
    ASSERT_EQ(completion_order.size(), 3u);
    EXPECT_EQ(completion_order[1], 2); // arrival order preserved
    EXPECT_EQ(completion_order[2], 3);
}

TEST_F(DiskFixture, SsdDefaultWindowServesInArrivalOrder)
{
    // Every ssd LBA locates to cylinder 0, so the default 20-deep
    // SSTF window must keep strict arrival order, while the same
    // queue on the hp2247 is reordered by distance.
    auto completionOrder = [&](const DeviceModel &device) {
        Disk disk(events, device); // default 20-deep window
        const int64_t last = device.totalSectors() - 16;
        const int64_t lbas[] = {0,          last,       16,
                                last / 2,   32,         last - 16,
                                last / 4,   48,         3 * last / 4,
                                last - 32};
        std::vector<int> order;
        for (int i = 0; i < 10; ++i) {
            disk.submit(request(lbas[i], 16, static_cast<uint64_t>(i),
                                [&order, i] { order.push_back(i); }));
        }
        events.runUntilEmpty();
        return order;
    };
    std::shared_ptr<const DeviceModel> ssd = device::makeDevice("ssd");
    const std::vector<int> arrival{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    EXPECT_EQ(completionOrder(*ssd), arrival);
    EXPECT_NE(completionOrder(model), arrival);
}

TEST_F(DiskFixture, SeekClassificationFollowsAccessIdentity)
{
    Disk disk(events, model);
    const DiskGeometry &geo = model.geometry();
    // Same access, same track -> no-switch; same access new cylinder
    // -> cylinder switch; new access -> non-local.
    disk.submit(request(0, 1, 7));
    disk.submit(request(4, 1, 7));                      // no-switch
    disk.submit(request(geo.chsToLba({0, 1, 0}), 1, 7)); // track switch
    disk.submit(request(geo.chsToLba({5, 0, 0}), 1, 7)); // cyl switch
    disk.submit(request(geo.chsToLba({5, 0, 8}), 1, 8)); // non-local
    events.runUntilEmpty();
    const SeekTally &tally = disk.tally();
    EXPECT_EQ(tally.non_local, 2); // first op is non-local too
    EXPECT_EQ(tally.no_switch, 1);
    EXPECT_EQ(tally.track_switch, 1);
    EXPECT_EQ(tally.cylinder_switch, 1);
    EXPECT_EQ(tally.total(), 5);
}

TEST_F(DiskFixture, MultiTrackTransferCrossesBoundaries)
{
    // 200 sectors from sector 0 spans 3 tracks in zone 0 (89/track).
    Disk disk(events, model);
    SimTime done = -1.0;
    disk.submit(request(0, 200, 1, [&] { done = events.now(); }));
    events.runUntilEmpty();
    double rev = model.revolutionMs();
    double transfer = 200.0 / 89.0 * rev;
    EXPECT_GT(done, transfer); // at least the media time
    EXPECT_LT(done, transfer + 2 * rev + 5.0);
}

TEST_F(DiskFixture, BusyTimeAccumulates)
{
    Disk disk(events, model);
    disk.submit(request(0, 16, 1));
    disk.submit(request(100000, 16, 2));
    events.runUntilEmpty();
    EXPECT_GT(disk.busyMs(), 0.0);
    EXPECT_LE(disk.busyMs(), events.now() + 1e-9);
}

TEST_F(DiskFixture, DeterministicReplay)
{
    auto run = [&]() {
        EventQueue q;
        Disk disk(q, model);
        SimTime last = 0.0;
        for (int i = 0; i < 50; ++i) {
            disk.submit({(i * 104729) % 1000000, 16, false,
                         static_cast<uint64_t>(i),
                         [&, i] { last = q.now(); }});
        }
        q.runUntilEmpty();
        return last;
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST_F(DiskFixture, ScriptedQueueDispatchesInExactSstfOrder)
{
    // A 3-deep window over a deeper queue. Once A is done the arm sits
    // at cylinder 100: B (90) and C (110) tie at distance 10 and B
    // arrived first, while E (100, distance 0) waits outside the
    // window. A's completion callback submits F to the same disk as
    // A's slot is freed; that submit starts B on the spot.
    Disk disk(events, model, 3);
    const DiskGeometry &geo = model.geometry();
    struct Step
    {
        char name;
        size_t depth;
        bool busy;
        bool operator==(const Step &) const = default;
    };
    std::vector<Step> steps;
    auto record = [&](char name) {
        steps.push_back({name, disk.queueDepth(), disk.busy()});
    };
    auto submitAt = [&](char name, int cylinder,
                        std::function<void()> after = {}) {
        disk.submit(request(geo.chsToLba({cylinder, 0, 0}), 1,
                            static_cast<uint64_t>(name),
                            [&record, name, after] {
                                record(name);
                                if (after)
                                    after();
                            }));
        record('+');
    };
    submitAt('A', 100, [&] {
        submitAt('F', 95);
    });
    submitAt('B', 90);
    submitAt('C', 110);
    submitAt('D', 300);
    submitAt('E', 100);
    events.runUntilEmpty();

    const std::vector<Step> expected{
        {'+', 0, true}, // A starts at once
        {'+', 1, true}, {'+', 2, true}, {'+', 3, true}, {'+', 4, true},
        {'A', 4, false}, // B C D E wait, the arm is free
        {'+', 4, true},  // F queued, B picked from {B, C, D}
        {'B', 4, false}, // then E (distance 10) from {C, D, E}
        {'E', 3, false}, // then F (distance 5) from {C, D, F}
        {'F', 2, false}, // then C
        {'C', 1, false}, // then D
        {'D', 0, false},
    };
    ASSERT_EQ(steps.size(), expected.size());
    for (size_t i = 0; i < steps.size(); ++i) {
        EXPECT_EQ(steps[i], expected[i])
            << "step " << i << ": got " << steps[i].name << " depth "
            << steps[i].depth << " busy " << steps[i].busy;
    }
    EXPECT_FALSE(disk.busy());
    EXPECT_EQ(disk.queueDepth(), 0u);
}

TEST(RingQueue, MatchesDequeUnderRandomPushAndPop)
{
    // The cache tier's stall queue: FIFO order, growth while wrapped
    // around.
    RingQueue<int> ring;
    std::deque<int> reference;
    Rng rng(7);
    for (int step = 0; step < 20000; ++step) {
        if (rng.below(3) < 2 || reference.empty()) {
            ring.push_back(step);
            reference.push_back(step);
        } else {
            ASSERT_EQ(ring.front(), reference.front());
            ring.pop_front();
            reference.pop_front();
        }
        ASSERT_EQ(ring.size(), reference.size());
    }
    for (size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(ring[i], reference[i]);
}

} // namespace
} // namespace pddl
