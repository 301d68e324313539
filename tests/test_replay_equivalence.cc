/**
 * @file
 * Replay equivalence: the engine rewrite (pooled events, indexed
 * 4-ary heap, arena'd requests, SBO callbacks) must not change any
 * observable history. This suite drives a mixed closed-loop +
 * fault-schedule scenario and fingerprints the full event sequence --
 * after every fired event it folds (now(), pending()) into an FNV-1a
 * hash, so any reordering, extra or missing event changes the
 * digest -- plus a final metrics snapshot (seek tallies, completions,
 * response-time bits, fault counters).
 *
 * The golden file tests/golden/replay_scenario.txt was recorded from
 * the pre-rewrite engine (std::priority_queue + std::function +
 * shared_ptr<Pending>); the current engine must reproduce it bit for
 * bit. Regenerate deliberately with PDDL_REPLAY_REGOLD=1 (only when a
 * change is *supposed* to alter history, e.g. a new tie-break rule).
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "array/controller.hh"
#include "core/pddl_layout.hh"
#include "fault/fault_scheduler.hh"
#include "harness/parallel_for.hh"
#include "sim/event_queue.hh"
#include "sim/parallel_engine.hh"
#include "stats/welford.hh"
#include "util/rng.hh"
#include "volume/volume_manager.hh"
#include "workload/closed_loop.hh"

#ifndef PDDL_TEST_GOLDEN_DIR
#define PDDL_TEST_GOLDEN_DIR "."
#endif

namespace pddl {
namespace {

/** Bit pattern of a double, for exact (not printf-rounded) compare. */
uint64_t
bits(double value)
{
    uint64_t out;
    static_assert(sizeof(out) == sizeof(value));
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

/** Order-sensitive FNV-1a fold of one 64-bit word. */
void
fold(uint64_t &hash, uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
}

/** Everything the scenario observes, keyed for the golden file. */
using Fingerprint = std::map<std::string, uint64_t>;

/**
 * One mixed scenario: 6 closed-loop clients (70/30 read/write mix,
 * sizes alternating 1 and 6 units) against PDDL(13,4) while a
 * scripted fault timeline fails a disk, rebuilds it into spare space
 * and sprinkles latent sector errors, with the scrubber running.
 */
Fingerprint
runScenario()
{
    PddlLayout layout = PddlLayout::make(13, 4);
    const DeviceModel &model = device::hp2247();

    EventQueue events;
    ArrayConfig config;
    ArrayController array(events, layout, model, config);

    int64_t rows_per_disk = array.dataUnits() /
                            layout.dataUnitsPerPeriod() *
                            layout.unitsPerDiskPerPeriod();

    FaultSchedule schedule;
    schedule.events.push_back(
        {40.0, FaultEvent::Kind::LatentError, 3, rows_per_disk / 3});
    schedule.events.push_back(
        {55.0, FaultEvent::Kind::LatentError, 7, rows_per_disk / 2});
    schedule.events.push_back(
        {120.0, FaultEvent::Kind::DiskFailure, 5, 0});
    schedule.events.push_back(
        {130.0, FaultEvent::Kind::LatentError, 1, rows_per_disk / 4});

    FaultScheduler::Options options;
    options.rebuild_parallel = 2;
    options.rebuild_stripes = 60;
    options.scrub_interval_ms = 15.0;
    FaultScheduler scheduler(events, std::move(schedule),
                             std::move(options));
    scheduler.bindArray(array);

    Rng rng(0x5ca1ab1eULL);
    Welford response;
    int64_t completions = 0;
    const int64_t target_completions = 600;
    std::function<void()> client = [&] {
        if (completions >= target_completions)
            return;
        int units = (completions % 2 == 0) ? 1 : 6;
        int64_t span = array.dataUnits() - units;
        int64_t start = static_cast<int64_t>(
            rng.below(static_cast<uint64_t>(span + 1)));
        AccessType type = rng.below(10) < 7 ? AccessType::Read
                                            : AccessType::Write;
        SimTime issued = events.now();
        array.access(start, units, type, [&, issued] {
            ++completions;
            response.add(events.now() - issued);
            client();
        });
    };

    scheduler.start();
    for (int c = 0; c < 6; ++c)
        client();

    // Drive the loop one event at a time, folding the observable
    // sequence -- fire time and backlog after every event -- into the
    // digest. Any divergence in ordering shows up here. The periodic
    // scrubber keeps the queue nonempty forever, so the scenario is
    // bounded by an event budget (itself part of the fingerprint).
    const uint64_t event_budget = 120000;
    uint64_t sequence = 0xcbf29ce484222325ULL;
    while (events.fired() < event_budget && events.runOne()) {
        fold(sequence, bits(events.now()));
        fold(sequence, events.pending());
    }

    Fingerprint print;
    print["events_fired"] = events.fired();
    print["sequence_hash"] = sequence;
    print["final_now_bits"] = bits(events.now());
    print["completions"] = static_cast<uint64_t>(completions);
    print["response_mean_bits"] = bits(response.mean());
    print["response_count"] = static_cast<uint64_t>(response.count());
    SeekTally tally = array.aggregateTally();
    print["seek_non_local"] = static_cast<uint64_t>(tally.non_local);
    print["seek_cylinder"] =
        static_cast<uint64_t>(tally.cylinder_switch);
    print["seek_track"] = static_cast<uint64_t>(tally.track_switch);
    print["seek_none"] = static_cast<uint64_t>(tally.no_switch);
    print["accesses_issued"] = array.accessesIssued();
    print["array_state"] = static_cast<uint64_t>(array.mode());
    const FaultStats &stats = scheduler.stats();
    print["failures_applied"] =
        static_cast<uint64_t>(stats.failures_applied);
    print["rebuilds_completed"] =
        static_cast<uint64_t>(stats.rebuilds_completed);
    print["latent_injected"] =
        static_cast<uint64_t>(stats.latent_injected);
    print["latent_detected"] =
        static_cast<uint64_t>(stats.latent_detected);
    print["data_loss"] = stats.data_loss ? 1 : 0;
    double busy = 0.0;
    for (int d = 0; d < layout.numDisks(); ++d)
        busy += array.disk(d).busyMs();
    print["busy_ms_sum_bits"] = bits(busy);
    return print;
}

/**
 * The volume counterpart: a 4-shard volume on the parallel engine,
 * two shards playing scripted fault timelines, a closed-loop
 * population on the hub lane. Per-lane history digests (see
 * EventQueue::enableHistoryDigest) pin the *dispatch sequence* of
 * every lane and the hub, not just the end state -- so the golden
 * asserts the engine reproduces the recorded event schedule exactly.
 */
Fingerprint
runVolumeScenario()
{
    constexpr int kShards = 4;
    constexpr double kDispatchMs = 0.75;

    ParallelEngine::Config engine_config;
    engine_config.lookahead = kDispatchMs;
    ParallelEngine engine(kShards, engine_config);
    engine.hubQueue().enableHistoryDigest();
    for (int lane = 0; lane < kShards; ++lane)
        engine.shardQueue(lane).enableHistoryDigest();

    ShuffledPlacement placement(0x243f6a8885a308d3ULL);
    std::vector<ShardSpec> specs(kShards);
    for (ShardSpec &spec : specs)
        spec.layout_spec = "pddl:width=4";
    VolumeConfig vconfig;
    vconfig.chunk_units = 4;
    vconfig.placement = &placement;
    vconfig.dispatch_ms = kDispatchMs;
    VolumeManager volume(engine, std::move(specs), vconfig);

    const Layout &layout = volume.shard(0).layout();
    int64_t rows_per_disk = volume.shard(0).dataUnits() /
                            layout.dataUnitsPerPeriod() *
                            layout.unitsPerDiskPerPeriod();

    FaultSchedule shard1_faults;
    shard1_faults.events.push_back(
        {45.0, FaultEvent::Kind::LatentError, 7, rows_per_disk / 3});
    shard1_faults.events.push_back(
        {120.0, FaultEvent::Kind::DiskFailure, 5, 0});
    FaultSchedule shard3_faults;
    shard3_faults.events.push_back(
        {300.0, FaultEvent::Kind::DiskFailure, 2, 0});

    FaultScheduler::Options options;
    options.rebuild_parallel = 2;
    options.rebuild_stripes = 50;
    FaultScheduler scheduler1(engine.shardQueue(1),
                              std::move(shard1_faults), options);
    scheduler1.bindArray(volume.shard(1));
    scheduler1.start();
    FaultScheduler scheduler3(engine.shardQueue(3),
                              std::move(shard3_faults), options);
    scheduler3.bindArray(volume.shard(3));
    scheduler3.start();

    ClosedLoopConfig workload;
    workload.clients = 8;
    workload.access_units = 3;
    workload.type = AccessType::Read;
    workload.relative_tolerance = 0.0;
    workload.min_samples = 500;
    workload.max_samples = 500;
    workload.warmup = 60;
    workload.seed = 0xfeedfacecafef00dULL;
    ClosedLoopClient client(workload);
    startOnHub(client, engine, volume);
    engine.run();

    Fingerprint print;
    print["hub_digest"] = engine.hubQueue().historyDigest();
    print["hub_fired"] = engine.hubQueue().fired();
    for (int lane = 0; lane < kShards; ++lane) {
        const std::string prefix =
            "lane" + std::to_string(lane) + "_";
        print[prefix + "digest"] =
            engine.shardQueue(lane).historyDigest();
        print[prefix + "fired"] = engine.shardQueue(lane).fired();
        print[prefix + "now_bits"] =
            bits(engine.shardQueue(lane).now());
    }
    print["windows"] = engine.windowsRun();
    print["final_now_bits"] = bits(engine.now());
    print["volume_accesses"] = volume.volumeAccessesIssued();
    print["sub_accesses"] = volume.subAccessesIssued();
    print["degraded_shards_end"] =
        static_cast<uint64_t>(volume.degradedShards());
    SimResult result = client.result();
    print["samples"] = static_cast<uint64_t>(result.samples);
    print["response_mean_bits"] = bits(result.mean_response_ms);
    print["throughput_bits"] = bits(result.throughput_per_s);
    SeekTally tally = volume.aggregateTally();
    print["seek_non_local"] = static_cast<uint64_t>(tally.non_local);
    print["seek_cylinder"] =
        static_cast<uint64_t>(tally.cylinder_switch);
    print["seek_track"] = static_cast<uint64_t>(tally.track_switch);
    print["seek_none"] = static_cast<uint64_t>(tally.no_switch);
    for (const FaultScheduler *scheduler :
         {&scheduler1, &scheduler3}) {
        const std::string prefix =
            scheduler == &scheduler1 ? "shard1_" : "shard3_";
        const FaultStats &stats = scheduler->stats();
        print[prefix + "failures"] =
            static_cast<uint64_t>(stats.failures_applied);
        print[prefix + "rebuilds"] =
            static_cast<uint64_t>(stats.rebuilds_completed);
        print[prefix + "latent_detected"] =
            static_cast<uint64_t>(stats.latent_detected);
        print[prefix + "data_loss"] = stats.data_loss ? 1 : 0;
    }
    return print;
}

std::string
goldenPath(const char *file)
{
    return std::string(PDDL_TEST_GOLDEN_DIR) + "/" + file;
}

Fingerprint
readGolden(const std::string &path)
{
    Fingerprint golden;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        auto eq = line.find('=');
        if (eq == std::string::npos) {
            ADD_FAILURE() << "bad golden line: " << line;
            continue;
        }
        golden[line.substr(0, eq)] =
            std::strtoull(line.c_str() + eq + 1, nullptr, 16);
    }
    return golden;
}

/**
 * Regold when PDDL_REPLAY_REGOLD is set (returns true), otherwise
 * compare `print` against the golden file key by key.
 */
bool
compareOrRegold(Fingerprint print, const char *file,
                const char *header)
{
    const std::string path = goldenPath(file);
    if (std::getenv("PDDL_REPLAY_REGOLD") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        EXPECT_TRUE(out) << "cannot write " << path;
        out << header;
        char buf[64];
        for (const auto &[key, value] : print) {
            std::snprintf(buf, sizeof(buf), "%s=%" PRIx64 "\n",
                          key.c_str(), value);
            out << buf;
        }
        return true;
    }

    Fingerprint golden = readGolden(path);
    EXPECT_FALSE(golden.empty())
        << "missing golden " << path
        << " (generate with PDDL_REPLAY_REGOLD=1)";
    for (const auto &[key, value] : golden) {
        if (!print.count(key)) {
            ADD_FAILURE() << "scenario lost key " << key;
            continue;
        }
        EXPECT_EQ(print[key], value) << "history diverged at " << key;
    }
    EXPECT_EQ(print.size(), golden.size());
    return false;
}

TEST(ReplayEquivalence, MixedFaultScenarioMatchesGolden)
{
    if (compareOrRegold(
            runScenario(), "replay_scenario.txt",
            "# Recorded observable history of the replay scenario\n"
            "# (see test_replay_equivalence.cc). Values are hex;\n"
            "# doubles are stored as IEEE-754 bit patterns.\n")) {
        GTEST_SKIP() << "golden regenerated";
    }
}

/**
 * The scenario itself must be deterministic run-to-run within one
 * binary, or the golden comparison would be meaningless.
 */
TEST(ReplayEquivalence, ScenarioIsDeterministic)
{
    EXPECT_EQ(runScenario(), runScenario());
}

TEST(ReplayEquivalence, VolumeScenarioMatchesGolden)
{
    if (compareOrRegold(
            runVolumeScenario(), "replay_volume.txt",
            "# Recorded observable history of the 4-shard volume\n"
            "# scenario on the parallel engine at 1 worker thread\n"
            "# (see test_replay_equivalence.cc). Values are hex;\n"
            "# doubles are stored as IEEE-754 bit patterns;\n"
            "# *_digest keys are per-lane dispatch-history hashes.\n")) {
        GTEST_SKIP() << "golden regenerated";
    }
}

/**
 * The volume scenario run on 2 and 8 worker threads at once, one copy
 * per thread as a bench grid runs its points, fires the single run's
 * schedule exactly -- per-lane dispatch digests included, so no state
 * shared between concurrent scenarios may move one event.
 */
TEST(ReplayEquivalence, VolumeScenarioIdenticalAcrossWorkerThreads)
{
    const Fingerprint single = runVolumeScenario();
    for (int threads : {2, 8}) {
        std::vector<Fingerprint> runs(static_cast<size_t>(threads));
        harness::parallelFor(threads, runs.size(), [&runs](size_t i) {
            runs[i] = runVolumeScenario();
        });
        for (const Fingerprint &run : runs)
            EXPECT_EQ(run, single) << threads << " worker threads";
    }
}

} // namespace
} // namespace pddl
