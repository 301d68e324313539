/**
 * @file
 * Engine microbenchmark: how fast is the simulation core itself?
 *
 * Unlike the figure benches (which reproduce the paper and are
 * bit-deterministic), this binary measures *host* performance of the
 * discrete-event engine and reports:
 *
 *  - events/sec: raw EventQueue throughput on a self-rescheduling
 *    timer mesh (the pure schedule/fire cycle, no array model);
 *  - allocations/event: heap allocations per fired event on that
 *    steady-state path, counted by the interposed global allocator
 *    below (the engine rewrite's budget is <= 1);
 *  - requests/sec: end-to-end logical accesses per host second for a
 *    fixed-sample closed-loop run (allocations/access alongside);
 *  - mapping ns/op: Layout::map() latency per family, exercising the
 *    precomputed mapping tables.
 *
 * Results flow through the PR-1 harness into BENCH_engine.json so the
 * perf trajectory is tracked run over run. Host timing is inherently
 * noisy: rows carry real wall-derived numbers and are NOT expected to
 * be byte-identical between runs (every other BENCH_*.json is).
 * --check enforces generous CI floors and exits nonzero on a major
 * regression.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench_util.hh"
#include "sim/event_queue.hh"
#include "util/rng.hh"

// ---------------------------------------------------------------------
// Interposed counting allocator: every global new/delete in this
// binary bumps one relaxed atomic. Only counts are recorded --
// allocation itself is forwarded to malloc/free -- so the measured
// engine runs at full speed.
// ---------------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_allocations{0};

uint64_t
allocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

void *
countedAlloc(size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](size_t size)
{
    return countedAlloc(size);
}

void *
operator new(size_t size, std::align_val_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(static_cast<size_t>(align),
                                     size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace pddl {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One self-rescheduling timer of the event-throughput mesh. */
struct Timer
{
    EventQueue *queue;
    double delta_ms;
    uint64_t fires = 0;
    double lag_ms = 0.0;

    void
    fire()
    {
        // The closure carries a deadline + generation payload (24
        // bytes with `this`) because that is what the simulator's
        // real event closures look like -- completion hooks capture a
        // component pointer plus address/deadline/outstanding-count
        // context (see reconstruction.cc, scrubber.cc). The mesh
        // must measure the callback type's storage strategy on that
        // footprint, not on an atypically slim capture.
        const uint64_t generation = fires + 1;
        const double due_ms = queue->now() + delta_ms;
        queue->scheduleAfter(delta_ms, [this, due_ms, generation] {
            lag_ms += queue->now() - due_ms;
            fires = generation;
            fire();
        });
    }
};

/**
 * Raw engine throughput: `timers` callbacks perpetually reschedule
 * themselves at staggered deltas, so the queue holds a steady
 * population and every iteration is one schedule + one heap pop +
 * one dispatch. The grid sweeps `timers` over three decades because
 * pending-set size is what separates queue implementations: at 64
 * pending events any heap is cache-resident and dispatch overhead
 * dominates; at tens of thousands the sift depth and the bytes moved
 * per sift level decide the rate.
 */
SimResult
runEventMesh(int timers, harness::Extras &extras)
{
    const uint64_t warmup = 100000 + static_cast<uint64_t>(timers);
    const uint64_t measured = 2000000;

    EventQueue events;
    std::vector<Timer> mesh;
    mesh.reserve(static_cast<size_t>(timers));
    Rng rng(0xbe5affe);
    for (int t = 0; t < timers; ++t) {
        mesh.push_back(Timer{&events, 0.25 + 0.5 * rng.uniform()});
        mesh.back().fire();
    }

    while (events.fired() < warmup)
        events.runOne();

    const uint64_t allocs_before = allocationCount();
    const auto start = Clock::now();
    while (events.fired() < warmup + measured)
        events.runOne();
    const double wall_s = secondsSince(start);
    const uint64_t allocs =
        allocationCount() - allocs_before;

    extras.emplace_back("events_per_s",
                        static_cast<double>(measured) / wall_s);
    extras.emplace_back("allocs_per_event",
                        static_cast<double>(allocs) /
                            static_cast<double>(measured));
    extras.emplace_back("timers", timers);
    // Keep the per-timer accounting observable.
    double lag_ms = 0.0;
    for (const Timer &timer : mesh)
        lag_ms += timer.lag_ms;
    extras.emplace_back("sink_low_bits",
                        static_cast<double>(
                            static_cast<uint64_t>(lag_ms) & 0xff));

    SimResult result;
    result.samples = static_cast<int64_t>(measured);
    return result;
}

/**
 * End-to-end engine rate: a fixed-sample closed-loop scenario on the
 * paper's array (one bare PDDL array, no fabric), measured in host
 * time. The fixed sample budget pins the simulated work, so wall
 * time measures only the engine (plus one array build).
 */
SimResult
runRequestRate(AccessType type, uint64_t seed, harness::Extras &extras)
{
    ScenarioSpec spec;
    spec.dispatch_ms = 0.0;
    spec.client = "closed";
    spec.clients = 8;
    // 24 KB: mixes small + multi-unit ops.
    spec.mix = {{24, type == AccessType::Write, 1.0}};
    spec.samples = 6000;
    spec.warmup = 200;
    spec = bench::normalized(spec);
    tune::RunScenarioOptions options;
    options.seed = seed;

    const uint64_t allocs_before = allocationCount();
    const auto start = Clock::now();
    const tune::ScenarioOutcome outcome =
        tune::runScenario(spec, options);
    const double wall_s = secondsSince(start);
    const uint64_t allocs = allocationCount() - allocs_before;

    const double accesses =
        static_cast<double>(outcome.samples + spec.warmup);
    extras.emplace_back("host_requests_per_s", accesses / wall_s);
    extras.emplace_back("allocs_per_access", allocs / accesses);
    return bench::simResult(outcome);
}

/**
 * Layout::map() latency. Virtual addresses are pre-drawn (the RNG is
 * not part of the measurement) and span several periods, so both the
 * table lookup and the period-shift arithmetic are exercised.
 */
SimResult
runMappingRate(const Layout &layout, harness::Extras &extras)
{
    const size_t span = 1 << 16;
    const uint64_t ops = 4000000;

    std::vector<VirtualAddress> addresses;
    addresses.reserve(span);
    Rng rng(0x3a77ab1e);
    const int64_t stripes = 4 * layout.stripesPerPeriod();
    for (size_t i = 0; i < span; ++i) {
        addresses.push_back(
            {static_cast<int64_t>(
                 rng.below(static_cast<uint64_t>(stripes))),
             static_cast<int>(rng.below(
                 static_cast<uint64_t>(layout.stripeWidth())))});
    }

    // Warm the lazy table outside the timed region.
    int64_t sink = 0;
    for (const VirtualAddress &va : addresses) {
        PhysAddr addr = layout.map(va);
        sink += addr.disk + addr.unit;
    }

    const auto start = Clock::now();
    for (uint64_t op = 0; op < ops; ++op) {
        const VirtualAddress &va = addresses[op & (span - 1)];
        PhysAddr addr = layout.map(va);
        sink += addr.disk ^ addr.unit;
    }
    const double wall_s = secondsSince(start);

    extras.emplace_back("map_ns_per_op",
                        wall_s * 1e9 / static_cast<double>(ops));
    // Defeat dead-code elimination of the measured loop.
    extras.emplace_back("sink_low_bits",
                        static_cast<double>(sink & 0xff));

    SimResult result;
    result.samples = static_cast<int64_t>(ops);
    return result;
}

struct CheckLimits
{
    double min_events_per_s = 2e6;
    double max_allocs_per_event = 1.0;
};

/** Enforce the CI floors on the finished grid. @return exit code. */
int
checkFloors(const harness::RunSummary &summary,
            const CheckLimits &limits)
{
    int failures = 0;
    for (const harness::PointResult &point : summary.points) {
        for (const auto &[key, value] : point.extras) {
            if (key == "events_per_s" &&
                value < limits.min_events_per_s) {
                std::fprintf(stderr,
                             "[check] FAIL %s: events/sec %.3g below "
                             "floor %.3g\n",
                             point.point.layout.c_str(), value,
                             limits.min_events_per_s);
                ++failures;
            }
            if (key == "allocs_per_event" &&
                value > limits.max_allocs_per_event) {
                std::fprintf(stderr,
                             "[check] FAIL %s: allocations/event %.3f "
                             "over budget %.3f\n",
                             point.point.layout.c_str(), value,
                             limits.max_allocs_per_event);
                ++failures;
            }
        }
    }
    if (failures == 0)
        std::fprintf(stderr, "[check] all engine floors met\n");
    return failures == 0 ? 0 : 1;
}

} // namespace
} // namespace pddl

int
main(int argc, char **argv)
{
    using namespace pddl;

    bench::BenchCli cli(
        argv[0],
        "Engine microbenchmark: events/sec, requests/sec, mapping "
        "ns/op and allocations/event of the simulation core "
        "(host-time based; rows are not run-to-run deterministic).");
    cli.addBool("check",
                "enforce CI floors (events/sec, allocations/"
                "event) and exit 1 on regression");
    // Timing rows run serially by default; --threads overrides.
    cli.parseOrExit(argc, argv, /*default_threads=*/1);

    std::vector<std::unique_ptr<Layout>> layouts;
    for (const std::string &spec : bench::evaluatedLayouts())
        layouts.push_back(pddl::layouts::makeLayout(spec, bench::kDisks));

    std::vector<harness::Experiment> experiments;

    for (int timers : {64, 4096, 65536}) {
        harness::Experiment experiment;
        experiment.point = {"Engine",
                            "event_queue/" + std::to_string(timers), 0,
                            timers, AccessType::Read,
                            ArrayMode::FaultFree};
        experiment.run = [timers](uint64_t, const obs::Probe &,
                                  harness::Extras &extras) {
            return runEventMesh(timers, extras);
        };
        experiments.push_back(std::move(experiment));
    }

    for (AccessType type : {AccessType::Read, AccessType::Write}) {
        harness::Experiment experiment;
        std::string label = std::string("closed_loop/") +
                            harness::accessTypeName(type);
        experiment.point = {"Engine", label, 24, 8, type,
                            ArrayMode::FaultFree};
        experiment.run = [type](uint64_t seed, const obs::Probe &,
                                harness::Extras &extras) {
            return runRequestRate(type, seed, extras);
        };
        experiments.push_back(std::move(experiment));
    }

    for (const auto &layout : layouts) {
        harness::Experiment experiment;
        experiment.point = {"Engine",
                            "map/" + std::string(layout->family()), 0,
                            0, AccessType::Read, ArrayMode::FaultFree};
        const Layout *l = layout.get();
        experiment.run = [l](uint64_t, const obs::Probe &,
                             harness::Extras &extras) {
            return runMappingRate(*l, extras);
        };
        experiments.push_back(std::move(experiment));
    }

    harness::RunSummary summary = bench::runGrid(
        "Engine",
        "Simulation-core microbenchmark: events/sec, requests/sec, "
        "mapping ns/op, allocations/event (host-time based)",
        experiments);

    std::printf("Engine microbenchmark\n");
    std::printf("%-24s %14s %14s\n", "row", "metric", "value");
    bench::printRule(6);
    for (const harness::PointResult &point : summary.points) {
        for (const auto &[key, value] : point.extras) {
            if (key == "sink_low_bits" || key == "timers")
                continue;
            std::printf("%-24s %14s %14.1f\n",
                        point.point.layout.c_str(), key.c_str(),
                        value);
        }
    }

    if (cli.getBool("check"))
        return checkFloors(summary, CheckLimits{});
    return 0;
}
