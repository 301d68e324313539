/**
 * @file
 * Parallel engine: window mechanics and the determinism contract.
 *
 * The conservative time-window engine claims that a volume run on
 * its lanes is the same simulation as the serial one on one shared
 * queue -- same event counts, same completion times -- and that it
 * repeats byte for byte. The property tests here earn that claim the
 * hard way: randomized fault/workload timelines swept over shard
 * counts x placement policies, each compared field-for-field (and
 * bit-for-bit where doubles are involved) against the serial
 * VolumeManager on one shared queue.
 *
 * The comparison works because serial and windowed volumes simulate
 * the identical system: sub-accesses pay the same dispatch_ms on the
 * way to a shard, shard machinery is shard-local in both, and the
 * barrier replays completions sorted by completion time. One caveat
 * is deliberate: when two shards complete at the *exact same* hub
 * timestamp, the serial queue breaks the tie by global insertion
 * order while the barrier uses the canonical (time, shard, FIFO)
 * order. Both are valid schedules of the same simulation; the only
 * observable difference is the fold order of floating-point
 * statistics, which can move a mean by an ulp. The test therefore
 * holds schedule-level keys (event counts, times, seek tallies,
 * fault outcomes) bit-exact against serial, allows ulp-level slack
 * on aggregate statistics against serial, and holds *everything*
 * bit-exact across repeated engine runs -- the contract the engine
 * actually promises.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_scheduler.hh"
#include "obs/metrics.hh"
#include "sim/parallel_engine.hh"
#include "util/rng.hh"
#include "volume/volume_manager.hh"
#include "workload/closed_loop.hh"
#include "workload/open_loop.hh"

namespace pddl {
namespace {

uint64_t
bits(double value)
{
    uint64_t out;
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

void
fold(uint64_t &hash, uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
}

uint64_t
foldString(const std::string &text)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Everything a scenario observes, keyed for comparison output. */
using Fingerprint = std::map<std::string, uint64_t>;

struct ScenarioParams
{
    int shards = 2;
    /** Run the serial VolumeManager on one shared queue instead of
     *  the engine. */
    bool serial = false;
    const PlacementPolicy *placement = nullptr;
    uint64_t seed = 1;
    /** Open-loop arrivals instead of a closed population. */
    bool open_loop = false;
    /** Draw per-shard fault timelines (0 disables failures). */
    double disk_mttf_ms = 0.0;
};

constexpr double kDispatchMs = 0.75;

/**
 * One randomized volume scenario, serial or parallel. Each shard
 * gets its own single-writer metrics registry (merged in shard
 * order afterwards), its own drawn fault timeline, and -- in the
 * parallel build -- its own engine lane.
 */
Fingerprint
runScenario(const ScenarioParams &params)
{
    const size_t shard_count = static_cast<size_t>(params.shards);
    std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
    for (size_t s = 0; s <= shard_count; ++s)
        registries.push_back(
            std::make_unique<obs::MetricsRegistry>());
    obs::MetricsRegistry &volume_registry = *registries[shard_count];

    std::vector<ShardSpec> specs(shard_count);
    for (size_t s = 0; s < shard_count; ++s) {
        specs[s].layout_spec = "pddl:width=4";
        specs[s].array.probe =
            obs::Probe(registries[s].get(), nullptr);
    }
    VolumeConfig vconfig;
    vconfig.chunk_units = 4;
    vconfig.placement = params.placement;
    vconfig.dispatch_ms = kDispatchMs;
    vconfig.probe = obs::Probe(&volume_registry, nullptr);

    std::unique_ptr<EventQueue> serial_queue;
    std::unique_ptr<ParallelEngine> engine;
    std::unique_ptr<VolumeManager> volume;
    auto shardQueue = [&](int s) -> EventQueue & {
        return engine != nullptr ? engine->shardQueue(s)
                                 : *serial_queue;
    };
    if (params.serial) {
        serial_queue = std::make_unique<EventQueue>();
        volume = std::make_unique<VolumeManager>(
            *serial_queue, std::move(specs), vconfig);
    } else {
        ParallelEngine::Config engine_config;
        engine_config.lookahead = kDispatchMs;
        engine = std::make_unique<ParallelEngine>(params.shards,
                                                  engine_config);
        volume = std::make_unique<VolumeManager>(
            *engine, std::move(specs), vconfig);
    }

    // Per-shard randomized fault timelines, identical for every
    // execution mode because they are drawn from (seed, shard).
    const Layout &layout = volume->shard(0).layout();
    int64_t rows_per_disk = volume->shard(0).dataUnits() /
                            layout.dataUnitsPerPeriod() *
                            layout.unitsPerDiskPerPeriod();
    std::vector<std::unique_ptr<FaultScheduler>> fault_schedulers;
    if (params.disk_mttf_ms > 0.0) {
        FaultDrawParams draw;
        draw.horizon_ms = 900.0;
        draw.disks = layout.numDisks();
        draw.disk_mttf_ms = params.disk_mttf_ms;
        draw.latent_mtbe_ms = params.disk_mttf_ms * 2.0;
        draw.units_per_disk = rows_per_disk;
        for (size_t s = 0; s < shard_count; ++s) {
            FaultScheduler::Options options;
            options.rebuild_parallel = 2;
            options.rebuild_stripes = 40;
            fault_schedulers.push_back(
                std::make_unique<FaultScheduler>(
                    shardQueue(static_cast<int>(s)),
                    FaultSchedule::draw(
                        params.seed * 0x9e3779b97f4a7c15ULL +
                            static_cast<uint64_t>(s),
                        draw),
                    std::move(options)));
            fault_schedulers.back()->bindArray(
                volume->shard(static_cast<int>(s)));
            fault_schedulers.back()->start();
        }
    }

    // Two workload shapes: a closed population (completions trigger
    // reissues at completion times) and an open arrival process
    // (timers on the hub lane), both seeded from the scenario.
    std::unique_ptr<ClosedLoopClient> closed;
    std::unique_ptr<OpenLoopClient> open;
    Workload *workload = nullptr;
    obs::HistogramData latency(obs::defaultLatencyBoundsMs());
    if (params.open_loop) {
        OpenLoopConfig config;
        config.latency = &latency;
        config.arrivals_per_s = 220.0 * params.shards;
        config.warmup = 40;
        config.samples = 220;
        config.seed = params.seed;
        config.mix = {{1, AccessType::Read, 0.55},
                      {5, AccessType::Write, 0.30},
                      {9, AccessType::Read, 0.15}};
        open = std::make_unique<OpenLoopClient>(config);
        workload = open.get();
    } else {
        ClosedLoopConfig config;
        config.clients = 3 * params.shards;
        config.access_units = 3;
        config.type = AccessType::Read;
        config.relative_tolerance = 0.0;
        config.min_samples = 260;
        config.max_samples = 260;
        config.warmup = 40;
        config.seed = params.seed;
        closed = std::make_unique<ClosedLoopClient>(config);
        workload = closed.get();
    }

    if (engine != nullptr) {
        startOnHub(*workload, *engine, *volume);
        engine->run();
    } else {
        workload->start(*serial_queue, *volume);
        serial_queue->runUntilEmpty();
    }

    Fingerprint print;
    print["volume_accesses"] = volume->volumeAccessesIssued();
    print["sub_accesses"] = volume->subAccessesIssued();
    print["accesses_issued"] = volume->accessesIssued();
    print["degraded_shards_end"] =
        static_cast<uint64_t>(volume->degradedShards());
    // Total fired events must agree exactly: serial and parallel
    // schedule the same events, just on different queues.
    print["events_fired"] =
        engine != nullptr ? engine->eventsFired()
                          : serial_queue->fired();
    print["final_now_bits"] =
        bits(engine != nullptr ? engine->now()
                               : serial_queue->now());

    if (closed != nullptr) {
        SimResult result = closed->result();
        print["samples"] = static_cast<uint64_t>(result.samples);
        print["response_mean_bits"] = bits(result.mean_response_ms);
        print["throughput_bits"] = bits(result.throughput_per_s);
    } else {
        OpenLoopResult result = open->result();
        print["samples"] = static_cast<uint64_t>(result.samples);
        print["response_mean_bits"] = bits(result.mean_response_ms);
        print["latency_p95_bits"] = bits(latency.quantile(0.95));
        print["max_outstanding"] =
            static_cast<uint64_t>(result.max_outstanding);
    }

    uint64_t shard_hash = 0xcbf29ce484222325ULL;
    for (size_t s = 0; s < shard_count; ++s) {
        const ArrayController &shard =
            volume->shard(static_cast<int>(s));
        fold(shard_hash, shard.accessesIssued());
        SeekTally tally = shard.aggregateTally();
        fold(shard_hash, static_cast<uint64_t>(tally.non_local));
        fold(shard_hash,
             static_cast<uint64_t>(tally.cylinder_switch));
        fold(shard_hash, static_cast<uint64_t>(tally.track_switch));
        fold(shard_hash, static_cast<uint64_t>(tally.no_switch));
        fold(shard_hash,
             static_cast<uint64_t>(volume->maxInFlight(
                 static_cast<int>(s))));
    }
    print["shard_hash"] = shard_hash;

    uint64_t fault_hash = 0xcbf29ce484222325ULL;
    for (const auto &scheduler : fault_schedulers) {
        const FaultStats &stats = scheduler->stats();
        fold(fault_hash,
             static_cast<uint64_t>(stats.failures_applied));
        fold(fault_hash,
             static_cast<uint64_t>(stats.rebuilds_completed));
        fold(fault_hash,
             static_cast<uint64_t>(stats.latent_injected));
        fold(fault_hash,
             static_cast<uint64_t>(stats.latent_detected));
        fold(fault_hash, stats.data_loss ? 1 : 0);
        fold(fault_hash, bits(stats.data_loss_ms));
    }
    print["fault_hash"] = fault_hash;

    // The merged metrics must be byte-identical: single-writer
    // per-lane registries merged in fixed shard order make every
    // floating-point fold associativity-stable.
    obs::MetricsSnapshot merged;
    for (const auto &registry : registries)
        merged.merge(registry->snapshot());
    print["metrics_json_hash"] = foldString(merged.toJson().dump());
    return print;
}

double
fromBits(uint64_t word)
{
    double out;
    std::memcpy(&out, &word, sizeof(out));
    return out;
}

/** Aggregate-statistic keys whose floating-point fold order follows
 * completion order, so exact-tie scheduling differences between the
 * serial queue and the barrier can move them by an ulp. */
bool
isStatFoldKey(const std::string &key)
{
    return key == "response_mean_bits" || key == "throughput_bits" ||
           key == "p95_bits" || key == "metrics_json_hash";
}

void
expectSameHistory(const Fingerprint &baseline,
                  const Fingerprint &other,
                  const std::string &label)
{
    ASSERT_EQ(baseline.size(), other.size()) << label;
    for (const auto &[key, value] : baseline) {
        ASSERT_TRUE(other.count(key)) << label << " lost " << key;
        EXPECT_EQ(other.at(key), value)
            << label << " diverged at " << key;
    }
}

/** Serial-vs-engine comparison: schedule keys bit-exact, aggregate
 * statistics within ulp-level slack (see the file comment). The
 * metrics JSON hash is checked across repeated engine runs instead
 * -- a hash admits no tolerance. */
void
expectSerialEquivalent(const Fingerprint &serial,
                       const Fingerprint &parallel,
                       const std::string &label)
{
    ASSERT_EQ(serial.size(), parallel.size()) << label;
    for (const auto &[key, value] : serial) {
        ASSERT_TRUE(parallel.count(key)) << label << " lost " << key;
        if (key == "metrics_json_hash")
            continue;
        if (isStatFoldKey(key)) {
            const double expected = fromBits(value);
            const double actual = fromBits(parallel.at(key));
            EXPECT_NEAR(actual, expected,
                        1e-9 * std::max(1.0, std::abs(expected)))
                << label << " drifted at " << key;
        } else {
            EXPECT_EQ(parallel.at(key), value)
                << label << " diverged at " << key;
        }
    }
}

/**
 * The headline property: for every shard count x placement policy x
 * workload shape x fault density, the engine reproduces the serial
 * volume's schedule exactly (statistics to within tie-fold slack).
 */
TEST(ParallelEngine, MatchesSerialAcrossShardsAndPlacements)
{
    StaticPlacement fixed;
    RotatedPlacement rotated;
    ShuffledPlacement shuffled(0x2545f4914f6cdd1dULL);
    struct Case
    {
        int shards;
        const PlacementPolicy *placement;
        const char *placement_name;
        bool open_loop;
        double mttf;
    };
    const Case cases[] = {
        {2, &fixed, "static", false, 0.0},
        {2, &shuffled, "shuffled", true, 300.0},
        {5, &rotated, "rotated", false, 450.0},
        {5, &shuffled, "shuffled", true, 0.0},
        {8, &rotated, "rotated", true, 350.0},
        {8, &fixed, "static", false, 500.0},
    };
    uint64_t seed = 0xbadc0ffee0ddf00dULL;
    for (const Case &scenario : cases) {
        ScenarioParams params;
        params.shards = scenario.shards;
        params.placement = scenario.placement;
        params.open_loop = scenario.open_loop;
        params.disk_mttf_ms = scenario.mttf;
        params.seed = splitMix64(seed);

        const std::string base =
            std::to_string(scenario.shards) + " shards/" +
            scenario.placement_name + "/" +
            (scenario.open_loop ? "open" : "closed") + "/mttf " +
            std::to_string(scenario.mttf);

        const Fingerprint engine_run = runScenario(params);
        params.serial = true;
        expectSerialEquivalent(runScenario(params), engine_run,
                               base + "/engine vs serial");
    }
}

/** Same params run twice on the engine: bitwise repeatable, metrics
 * bytes included. */
TEST(ParallelEngine, RunIsRepeatable)
{
    ShuffledPlacement shuffled;
    ScenarioParams params;
    params.shards = 4;
    params.placement = &shuffled;
    params.disk_mttf_ms = 400.0;
    params.seed = 7;
    Fingerprint first = runScenario(params);
    Fingerprint second = runScenario(params);
    expectSameHistory(first, second, "repeat");
}

/** Posts drain at the barrier in (time, lane, FIFO-seq) order. */
TEST(ParallelEngine, BarrierDrainsMailboxesInDeterministicOrder)
{
    ParallelEngine::Config config;
    config.lookahead = 1.0;
    ParallelEngine engine(3, config);

    std::vector<int> order;
    // Lane events at t=0.5 in every lane post hub work carrying the
    // lane id; lane 2 posts twice to exercise FIFO within a lane.
    // All posts carry when=0.5, so order must be lane 0, 1, 2, 2.
    for (int lane : {2, 0, 1}) {
        engine.shardQueue(lane).schedule(0.5, [&engine, &order,
                                               lane] {
            engine.post(0.5, [&order, lane] { order.push_back(lane); });
            if (lane == 2)
                engine.post(0.5, [&order] { order.push_back(12); });
        });
    }
    engine.run();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 2);
    EXPECT_EQ(order[3], 12);
    EXPECT_GE(engine.windowsRun(), 1u);
}

/** Posts interleave with hub events by time, not just amongst
 * themselves: a hub event earlier than a post's time fires first. */
TEST(ParallelEngine, PostsInterleaveWithHubEventsByTime)
{
    ParallelEngine::Config config;
    config.lookahead = 1.0;
    ParallelEngine engine(1, config);

    std::vector<std::pair<char, double>> trace;
    engine.hubQueue().schedule(0.25, [&] {
        trace.emplace_back('h', engine.hubQueue().now());
    });
    engine.shardQueue(0).schedule(0.5, [&] {
        engine.post(0.5, [&] {
            trace.emplace_back('p', engine.hubQueue().now());
        });
    });
    engine.hubQueue().schedule(0.75, [&] {
        trace.emplace_back('h', engine.hubQueue().now());
    });
    engine.run();
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0], (std::pair<char, double>{'h', 0.25}));
    // The post runs with the hub clock at its post time.
    EXPECT_EQ(trace[1], (std::pair<char, double>{'p', 0.5}));
    EXPECT_EQ(trace[2], (std::pair<char, double>{'h', 0.75}));
}

/** A lookahead below half an ulp of the clock must still advance:
 * each window fires at least the events at its start. It once spun
 * forever here (the same event at 1e5 ms fired), so ctest bounds it. */
TEST(ParallelEngine, LookaheadBelowClockUlpStillAdvances)
{
    ParallelEngine::Config config;
    config.lookahead = 1e-11;
    ParallelEngine engine(1, config);

    std::vector<double> trace;
    engine.shardQueue(0).schedule(1e6, [&] {
        trace.push_back(engine.shardQueue(0).now());
        engine.post(1e6 + config.lookahead, [&] {
            trace.push_back(engine.hubQueue().now());
        });
    });
    engine.run();
    EXPECT_EQ(trace, (std::vector<double>{1e6, 1e6}));
    EXPECT_EQ(engine.eventsFired(), 1u);
    EXPECT_EQ(engine.windowsRun(), 1u);
}

TEST(ParallelEngine, ValidatesConfig)
{
    ParallelEngine::Config config;
    config.lookahead = 0.5;
    ParallelEngine engine(3, config);
    EXPECT_EQ(engine.shardLanes(), 3);

    config.lookahead = 0.0;
    EXPECT_THROW(ParallelEngine(2, config), std::logic_error);
    config.lookahead = 0.5;
    EXPECT_THROW(ParallelEngine(0, config), std::logic_error);
}

TEST(ParallelEngine, VolumeRejectsUndersizedDispatchOrLanes)
{
    std::vector<ShardSpec> specs(2);

    ParallelEngine::Config config;
    config.lookahead = 1.0;
    ParallelEngine engine(2, config);

    // dispatch_ms below the lookahead breaks the window safety
    // condition; fewer lanes than shards leaves shards unhomed.
    VolumeConfig vconfig;
    vconfig.dispatch_ms = 0.5;
    EXPECT_THROW(VolumeManager(engine, specs, vconfig),
                 std::logic_error);
    VolumeConfig ok;
    ok.dispatch_ms = 1.0;
    ParallelEngine small(1, config);
    EXPECT_THROW(VolumeManager(small, specs, ok), std::logic_error);
    EXPECT_NO_THROW(VolumeManager(engine, std::move(specs), ok));
}

} // namespace
} // namespace pddl
