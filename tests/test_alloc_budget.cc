/**
 * @file
 * Allocation budget of the steady-state access path.
 *
 * Every heap allocation in this executable is counted: it replaces
 * the global allocation functions, which is why it is a binary of its
 * own instead of a suite in pddl_tests. The healthy cases run one
 * small scenario twice through runScenario, with N and with 2N
 * measured samples on the same seed. Both runs build the same stack
 * and share their first N accesses, so the difference in allocations
 * is what the second N accesses cost -- the steady state, free of
 * setup. The budget is 0.01 allocations per access: the access path
 * (metrics, disk queues, cache dirty set and read misses, rebuild
 * stripes) is meant to allocate nothing once its pools have grown.
 * One more case bounds how those pools grow: a burst of concurrent
 * writes on a fresh controller, where every access opens a new
 * request-arena slot. The bare event queue has a budget of its own:
 * a self-rescheduling timer mesh must fire its events without
 * allocating, at small and large pending-set sizes. So does one disk:
 * its request storage grows no faster than a doubling ring and then
 * stays put. The cache's dirty-set index allocates its blocks when it
 * is built and never again.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "array/controller.hh"
#include "cache/sparse_bitmap.hh"
#include "core/pddl_layout.hh"
#include "core/scenario_spec.hh"
#include "disk/device_model.hh"
#include "disk/disk.hh"
#include "sim/event_queue.hh"
#include "tune/scenario_runner.hh"
#include "util/rng.hh"

namespace {

std::atomic<uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t size, std::size_t align) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    if (align <= alignof(std::max_align_t))
        return std::malloc(size);
    // aligned_alloc wants a size that is a multiple of the alignment.
    return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void *
countedAllocOrThrow(std::size_t size, std::size_t align)
{
    if (void *p = countedAlloc(size, align))
        return p;
    throw std::bad_alloc();
}

} // namespace

// All eight replaceable new forms and all twelve delete forms, so no
// allocation escapes the count and every block goes back to free().
void *operator new(std::size_t n) { return countedAllocOrThrow(n, 0); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}
void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace pddl {
namespace tune {
namespace {

constexpr double kBudgetPerAccess = 0.01;

/** Allocations one runScenario call makes, and its outcome. */
uint64_t
allocationsOf(const std::string &spec_json, ScenarioOutcome &outcome)
{
    const ScenarioSpec spec = ScenarioSpec::parseOrThrow(spec_json);
    RunScenarioOptions options;
    options.seed = 42;
    const uint64_t before = g_allocations.load();
    outcome = runScenario(spec, options);
    return g_allocations.load() - before;
}

/**
 * Allocations per access over the second half: a run of `samples`
 * measured accesses minus a run of half as many. `spec_head` is the
 * spec's JSON without its closing brace and samples field.
 */
void
expectSteadyStateAllocationFree(const std::string &spec_head,
                                int64_t samples)
{
    const int64_t half = samples / 2;
    ScenarioOutcome short_run, long_run;
    const uint64_t short_allocs = allocationsOf(
        spec_head + ", \"samples\": " + std::to_string(half) + "}",
        short_run);
    const uint64_t long_allocs = allocationsOf(
        spec_head + ", \"samples\": " + std::to_string(samples) + "}",
        long_run);
    ASSERT_GT(long_run.samples, short_run.samples);
    ASSERT_FALSE(long_run.data_loss);
    const double per_access =
        (static_cast<double>(long_allocs) -
         static_cast<double>(short_allocs)) /
        static_cast<double>(long_run.samples - short_run.samples);
    EXPECT_LE(per_access, kBudgetPerAccess)
        << long_allocs << " allocations in the long run, " << short_allocs
        << " in the short one";
}

TEST(AllocBudget, ClosedLoopRmwOnPddlShard)
{
    // The paper's experiment: 8 closed-loop clients doing 8 KB
    // read-modify-writes on one PDDL(13, 4) array.
    expectSteadyStateAllocationFree(
        R"({"shards": [{"layout": "pddl:width=4", "device": "hp2247",
            "disks": 13}],
            "client": "closed", "clients": 8, "offsets": "uniform",
            "mix": [{"kb": 8, "op": "write", "weight": 1.0}],
            "warmup": 500)",
        20000);
}

TEST(AllocBudget, OpenLoopZipfThroughWriteBackCache)
{
    // Write-heavy zipf into a write-back tier at low watermarks, so
    // the destage pump, read misses and stalls all run.
    expectSteadyStateAllocationFree(
        R"({"shards": [{"layout": "pddl:width=4", "device": "hp2247",
            "disks": 13},
            {"layout": "pddl:width=4", "device": "hp2247", "disks": 13}],
            "chunk_units": 8, "dispatch_ms": 2.0,
            "client": "open", "arrivals_per_s": 100.0,
            "offsets": "zipf:0.99", "arrival": "poisson",
            "mix": [{"kb": 8, "op": "write", "weight": 0.6},
                    {"kb": 32, "op": "write", "weight": 0.1},
                    {"kb": 8, "op": "read", "weight": 0.25},
                    {"kb": 32, "op": "read", "weight": 0.05}],
            "warmup": 500,
            "cache": {"enabled": true, "kb": 4096, "high": 0.1,
                      "low": 0.05})",
        20000);
}

TEST(AllocBudget, ShardRebuildingAFailedDisk)
{
    // Shard 0 loses a disk early and rebuilds while mixed reads and
    // writes keep arriving. The engine drains every event, so each
    // run contains the whole rebuild sweep, however many samples it
    // measures: the fault's cost is the difference to the same run
    // without it -- the scheduler and rebuild setup plus every
    // rebuilt stripe and every degraded access -- and it must fit
    // the same per-access budget as the healthy access path.
    const std::string head =
        R"({"shards": [{"layout": "pddl:width=4", "device": "hp2247",
            "disks": 13},
            {"layout": "pddl:width=4", "device": "hp2247", "disks": 13}],
            "chunk_units": 8, "dispatch_ms": 2.0,
            "client": "open", "arrivals_per_s": 400.0,
            "offsets": "uniform", "arrival": "poisson",
            "mix": [{"kb": 8, "op": "read", "weight": 0.6},
                    {"kb": 8, "op": "write", "weight": 0.4}],
            "warmup": 500, "samples": 20000, "rebuild_parallel": 4)";
    ScenarioOutcome healthy, rebuilding;
    const uint64_t healthy_allocs = allocationsOf(head + "}", healthy);
    const uint64_t rebuilding_allocs = allocationsOf(
        head + R"(, "faults": [{"when_ms": 40.0, "shard": 0, "disk": 2}]})",
        rebuilding);
    ASSERT_EQ(rebuilding.rebuilds_completed, 1);
    ASSERT_FALSE(rebuilding.data_loss);
    ASSERT_EQ(healthy.samples, rebuilding.samples);
    const double per_access =
        (static_cast<double>(rebuilding_allocs) -
         static_cast<double>(healthy_allocs)) /
        static_cast<double>(rebuilding.samples);
    EXPECT_LE(per_access, kBudgetPerAccess)
        << rebuilding_allocs << " allocations with the rebuild, "
        << healthy_allocs << " without";
}

/**
 * Allocations of a fresh PDDL(13, 4) controller that takes `writes`
 * concurrent 24-unit (multi-stripe) writes at once and drains them.
 */
uint64_t
burstAllocations(int writes)
{
    EventQueue events;
    PddlLayout pddl(boseConstruction(13, 4));
    ArrayController array(events, pddl, device::hp2247(), ArrayConfig{});
    const uint64_t before = g_allocations.load();
    for (int i = 0; i < writes; ++i)
        array.access(int64_t{i} * 1000, 24, AccessType::Write, {});
    events.runUntilEmpty();
    return g_allocations.load() - before;
}

TEST(AllocBudget, BurstOfMultiStripeWritesOnFreshController)
{
    // Every write of the burst opens a new arena slot holding ~30
    // phase-1 overwrites. A new slot starts with the largest phase 1
    // seen so far, so it costs one allocation instead of a doubling
    // series; disk queues and the arena itself add a little more.
    // The difference of two bursts cancels the controller's setup.
    const int burst = 64;
    const uint64_t small = burstAllocations(burst);
    const uint64_t large = burstAllocations(2 * burst);
    const double per_write =
        (static_cast<double>(large) - static_cast<double>(small)) / burst;
    EXPECT_LE(per_write, 1.5)
        << large << " allocations for " << 2 * burst << " writes, "
        << small << " for " << burst;
}

/** One self-rescheduling timer of the event-queue mesh. */
struct Timer
{
    EventQueue *queue;
    double delta_ms;
    uint64_t fires = 0;
    double lag_ms = 0.0;

    void
    fire()
    {
        // A deadline + generation payload (24 bytes with `this`):
        // the footprint of the simulator's real completion closures,
        // which must fit the callback's inline storage.
        const uint64_t generation = fires + 1;
        const double due_ms = queue->now() + delta_ms;
        queue->scheduleAfter(delta_ms, [this, due_ms, generation] {
            lag_ms += queue->now() - due_ms;
            fires = generation;
            fire();
        });
    }
};

TEST(AllocBudget, EventQueueTimerMesh)
{
    // `timers` callbacks perpetually reschedule themselves at
    // staggered deltas, so the queue holds a steady population and
    // every event is one schedule, one heap pop and one dispatch.
    for (int timers : {64, 4096, 65536}) {
        EventQueue events;
        std::vector<Timer> mesh;
        mesh.reserve(static_cast<size_t>(timers));
        Rng rng(0xbe5affe);
        for (int t = 0; t < timers; ++t) {
            mesh.push_back(Timer{&events, 0.25 + 0.5 * rng.uniform()});
            mesh.back().fire();
        }
        const uint64_t warmup = 2 * static_cast<uint64_t>(timers);
        while (events.fired() < warmup)
            events.runOne();
        const uint64_t measured = 200000;
        const uint64_t before = g_allocations.load();
        while (events.fired() < warmup + measured)
            events.runOne();
        const double per_event =
            static_cast<double>(g_allocations.load() - before) /
            static_cast<double>(measured);
        // The access path's budget, per fired event.
        EXPECT_LE(per_event, kBudgetPerAccess) << timers << " timers";
    }
}

TEST(AllocBudget, ThrowingClosureGivesItsEventSlotBack)
{
    // A closure whose copy throws must not cost the queue its pool
    // slot: once the schedule throws, later schedule/run cycles reuse
    // the warmed slots instead of growing the pool.
    struct Throwing
    {
        Throwing() = default;
        Throwing(const Throwing &) { throw std::runtime_error("copy"); }
        void operator()() const {}
    };
    constexpr int kEvents = 64;
    EventQueue events;
    auto cycle = [&events] {
        for (int i = 0; i < kEvents; ++i)
            events.schedule(events.now() + 1.0, [] {});
        events.runUntilEmpty();
    };
    cycle();
    const Throwing throwing;
    for (int i = 0; i < 4 * kEvents; ++i) {
        EXPECT_THROW(events.schedule(events.now() + 1.0, throwing),
                     std::runtime_error);
    }
    EXPECT_EQ(events.pending(), 0u);

    const uint64_t before = g_allocations.load();
    for (int round = 0; round < 8; ++round)
        cycle();
    EXPECT_EQ(g_allocations.load() - before, 0u);
    EXPECT_EQ(events.fired(), 9u * kEvents);
}

TEST(AllocBudget, DiskQueueGrowsLikeADoublingRing)
{
    // A disk's request storage grows to its peak depth in doubling
    // steps -- no more allocations than a ring of waiting requests
    // with capacities 8, 16, 32, 64 -- and recycles its slots from
    // then on. bench/perf's allocs_per_access counts every one.
    EventQueue events;
    // Warm the queue's own arrays beyond the one event a disk keeps
    // pending, so only the disk's allocations are counted below.
    for (int i = 0; i < 4; ++i)
        events.schedule(0.0, [] {});
    events.runUntilEmpty();

    const HddDeviceModel &model = device::hp2247();
    uint64_t before = g_allocations.load();
    Disk disk(events, model);
    EXPECT_EQ(g_allocations.load() - before, 0u)
        << "a new disk allocates before its first submit";

    std::vector<int64_t> lbas;
    Rng rng(0xd15c);
    for (int i = 0; i < 4096; ++i)
        lbas.push_back(static_cast<int64_t>(
            rng.below(static_cast<uint64_t>(model.totalSectors() - 16))));
    int64_t submitted = 0;
    int64_t completed = 0;
    int64_t refills = 0;
    std::function<void()> submit = [&] {
        DiskRequest request;
        request.lba = lbas[static_cast<size_t>(submitted) % lbas.size()];
        request.sectors = 16;
        request.write = (submitted & 1) != 0;
        request.access_id = static_cast<uint64_t>(submitted);
        request.done = [&] {
            ++completed;
            if (refills > 0) {
                --refills;
                submit();
            }
        };
        ++submitted;
        disk.submit(std::move(request));
    };

    // Ring blocks a queue of each depth needs: 8, 16, 32, 64 slots.
    const std::pair<size_t, uint64_t> depths[] = {{8, 1}, {16, 2}, {40, 4}};
    before = g_allocations.load();
    for (const auto &[depth, ring_blocks] : depths) {
        while (disk.queueDepth() < depth)
            submit();
        EXPECT_LE(g_allocations.load() - before, ring_blocks)
            << "at depth " << depth;
    }
    events.runUntilEmpty();
    ASSERT_EQ(completed, submitted);

    // Steady state: each completion submits the next request, which
    // keeps the disk 32 deep for 200k submit/complete cycles.
    refills = 200000;
    before = g_allocations.load();
    for (int i = 0; i < 33; ++i)
        submit();
    events.runUntilEmpty();
    EXPECT_EQ(refills, 0);
    EXPECT_EQ(completed, submitted);
    EXPECT_EQ(g_allocations.load() - before, 0u)
        << "steady-state submit/complete cycles allocate";
}

TEST(SparseBitmapAllocations, OnlyAtConstruction)
{
    // The dirty-set index of a 32 MB cache over the 2.27M-unit zipf
    // volume: two blocks when built, then nothing while members come
    // and go across spans and leaves cycle through the pool.
    const int64_t units = 2270000;
    const int64_t capacity = 8192;
    uint64_t before = g_allocations.load();
    cache::SparseBitmap bitmap(units, capacity);
    EXPECT_EQ(g_allocations.load() - before, 2u);

    // A FIFO of members at most `capacity` long, filled by a stream
    // that mostly clusters and sometimes jumps.
    std::vector<int64_t> members(static_cast<size_t>(capacity));
    Rng rng(0xd1e7);
    int64_t centre = 0;
    int64_t head = 0;
    int64_t live = 0;
    int64_t misses = 0;
    before = g_allocations.load();
    for (int op = 0; op < 400000; ++op) {
        if (rng.below(32) == 0)
            centre = static_cast<int64_t>(
                rng.below(static_cast<uint64_t>(units - 4096)));
        const int64_t unit =
            centre + static_cast<int64_t>(rng.below(4096));
        if (bitmap.contains(unit))
            continue;
        if (live == capacity) {
            bitmap.erase(members[static_cast<size_t>(head)]);
            head = (head + 1) % capacity;
            --live;
        }
        bitmap.insert(unit);
        members[static_cast<size_t>((head + live) % capacity)] = unit;
        ++live;
        if (bitmap.lowerBound(unit / 2) > unit)
            ++misses; // the unit just inserted qualifies
    }
    EXPECT_EQ(g_allocations.load() - before, 0u);
    EXPECT_EQ(misses, 0);
}

} // namespace
} // namespace tune
} // namespace pddl
