/**
 * @file
 * Tests for the parallel experiment harness: parallelFor,
 * deterministic per-point seeding, the serial-vs-parallel determinism
 * guarantee, and the BENCH_*.json emitter.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/scenario_spec.hh"
#include "harness/parallel_for.hh"
#include "harness/runner.hh"
#include "tune/scenario_runner.hh"
#include "util/json.hh"

namespace pddl {
namespace {

using harness::deriveSeed;
using harness::Experiment;
using harness::ExperimentRunner;
using harness::GridPoint;
using harness::parallelFor;
using harness::RunSummary;

TEST(ParallelFor, DefaultThreadsHonorsEnvironment)
{
    ::setenv("PDDL_BENCH_THREADS", "7", 1);
    EXPECT_EQ(harness::defaultThreads(), 7);
    // Nonsense values fall back to hardware concurrency (>= 1).
    ::setenv("PDDL_BENCH_THREADS", "0", 1);
    EXPECT_GE(harness::defaultThreads(), 1);
    ::unsetenv("PDDL_BENCH_THREADS");
    EXPECT_GE(harness::defaultThreads(), 1);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 4, 8}) {
        const size_t count = 500;
        std::vector<std::atomic<int>> hits(count);
        parallelFor(threads, count,
                    [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < count; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with "
                                         << threads << " threads";
    }
}

TEST(ParallelFor, EmptyBatchIsANoop)
{
    parallelFor(4, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, PropagatesTaskExceptions)
{
    // The first failure surfaces only after every other index ran,
    // so no result slot is left unwritten behind the error.
    for (int threads : {1, 4}) {
        std::vector<std::atomic<int>> hits(64);
        EXPECT_THROW(parallelFor(threads, hits.size(),
                                 [&](size_t i) {
                                     hits[i].fetch_add(1);
                                     if (i == 17)
                                         throw std::runtime_error(
                                             "boom");
                                 }),
                     std::runtime_error);
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with "
                                         << threads << " threads";
    }
}

TEST(ParallelFor, OneThreadRunsInlineInIndexOrder)
{
    // threads = 1, and threads = 0 resolved through
    // PDDL_BENCH_THREADS=1: the serial reference schedule.
    ::setenv("PDDL_BENCH_THREADS", "1", 1);
    for (int threads : {1, 0}) {
        std::vector<size_t> order;
        std::vector<std::thread::id> ids;
        parallelFor(threads, 6, [&](size_t i) {
            order.push_back(i);
            ids.push_back(std::this_thread::get_id());
        });
        EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5}))
            << "threads " << threads;
        for (const std::thread::id &id : ids)
            EXPECT_EQ(id, std::this_thread::get_id());
    }
    ::unsetenv("PDDL_BENCH_THREADS");
}

TEST(ParallelFor, NeverRunsMoreThreadsThanItems)
{
    std::mutex mutex;
    std::set<std::thread::id> ids;
    parallelFor(8, 3, [&](size_t) {
        // Hold each item long enough that idle threads, if any had
        // been started, would be seen claiming work.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), 3u);
}

TEST(DeriveSeed, StableAndFieldSensitive)
{
    GridPoint base{"Figure 5", "PDDL", 24, 8, AccessType::Read,
                   ArrayMode::FaultFree};
    // Pure function of the identity: repeated calls agree.
    EXPECT_EQ(deriveSeed(base), deriveSeed(base));

    // Every identity field feeds the hash.
    std::set<uint64_t> seeds{deriveSeed(base)};
    GridPoint p = base;
    p.figure = "Figure 6";
    EXPECT_TRUE(seeds.insert(deriveSeed(p)).second);
    p = base;
    p.layout = "RAID-5";
    EXPECT_TRUE(seeds.insert(deriveSeed(p)).second);
    p = base;
    p.size_kb = 48;
    EXPECT_TRUE(seeds.insert(deriveSeed(p)).second);
    p = base;
    p.clients = 10;
    EXPECT_TRUE(seeds.insert(deriveSeed(p)).second);
    p = base;
    p.type = AccessType::Write;
    EXPECT_TRUE(seeds.insert(deriveSeed(p)).second);
    p = base;
    p.mode = ArrayMode::Degraded;
    EXPECT_TRUE(seeds.insert(deriveSeed(p)).second);
}

TEST(DeriveSeed, DistinctAcrossAGrid)
{
    std::set<uint64_t> seeds;
    int points = 0;
    for (int kb : {8, 24, 48})
        for (const char *layout : {"PDDL", "RAID-5", "DATUM"})
            for (int clients : {1, 4, 8, 25}) {
                GridPoint point{"Figure 14", layout, kb, clients,
                                AccessType::Read, ArrayMode::FaultFree};
                seeds.insert(deriveSeed(point));
                ++points;
            }
    EXPECT_EQ(static_cast<int>(seeds.size()), points);
}

/** A small but real simulation grid over a 5-disk RAID-5. */
std::vector<Experiment>
smallGrid()
{
    std::vector<Experiment> experiments;
    for (int clients : {1, 4, 8}) {
        for (AccessType type : {AccessType::Read, AccessType::Write}) {
            ScenarioSpec spec;
            spec.shards.front().layout = "raid5";
            spec.shards.front().disks = 5;
            spec.dispatch_ms = 0.0;
            spec.client = "closed";
            spec.clients = clients;
            spec.mix = {{16, type == AccessType::Write, 1.0}};
            spec.ci_tolerance = 0.02;
            spec.min_samples = 60;
            spec.samples = 200;
            spec.warmup = 20;
            std::string error;
            EXPECT_TRUE(spec.normalize(error)) << error;

            Experiment experiment;
            experiment.point = {"Harness test", "RAID-5", 16, clients,
                                type, ArrayMode::FaultFree};
            experiment.run = [spec](uint64_t seed,
                                    const obs::Probe &probe,
                                    harness::Extras &) {
                tune::RunScenarioOptions options;
                options.seed = seed;
                options.probe = probe;
                const tune::ScenarioOutcome outcome =
                    tune::runScenario(spec, options);
                SimResult result;
                result.mean_response_ms = outcome.mean_ms;
                result.ci_half_width_ms = outcome.ci_half_width_ms;
                result.throughput_per_s = outcome.throughput_per_s;
                result.samples = outcome.samples;
                result.non_local_seeks = outcome.non_local_seeks;
                result.cylinder_switches = outcome.cylinder_switches;
                result.track_switches = outcome.track_switches;
                result.no_switches = outcome.no_switches;
                return result;
            };
            experiments.push_back(std::move(experiment));
        }
    }
    return experiments;
}

TEST(ExperimentRunner, ParallelRunMatchesSerialBitForBit)
{
    auto experiments = smallGrid();

    RunSummary serial = ExperimentRunner(1).run(experiments);
    RunSummary parallel = ExperimentRunner(4).run(experiments);

    EXPECT_EQ(serial.threads, 1);
    EXPECT_EQ(parallel.threads, 4);
    ASSERT_EQ(serial.points.size(), experiments.size());
    ASSERT_EQ(parallel.points.size(), experiments.size());
    for (size_t i = 0; i < experiments.size(); ++i) {
        const SimResult &a = serial.points[i].result;
        const SimResult &b = parallel.points[i].result;
        EXPECT_EQ(serial.points[i].seed, parallel.points[i].seed);
        // Bit-identical, not approximately equal: the parallel
        // schedule must not perturb any simulation.
        EXPECT_EQ(a.mean_response_ms, b.mean_response_ms) << "row " << i;
        EXPECT_EQ(a.ci_half_width_ms, b.ci_half_width_ms) << "row " << i;
        EXPECT_EQ(a.throughput_per_s, b.throughput_per_s) << "row " << i;
        EXPECT_EQ(a.samples, b.samples) << "row " << i;
        EXPECT_EQ(a.non_local_seeks, b.non_local_seeks) << "row " << i;
        EXPECT_EQ(a.cylinder_switches, b.cylinder_switches)
            << "row " << i;
        EXPECT_EQ(a.track_switches, b.track_switches) << "row " << i;
        EXPECT_EQ(a.no_switches, b.no_switches) << "row " << i;
    }
    EXPECT_EQ(serial.totals.get("points"),
              parallel.totals.get("points"));
    EXPECT_EQ(serial.totals.get("samples"),
              parallel.totals.get("samples"));
}

TEST(ExperimentRunner, CustomExperimentsReceiveTheDerivedSeed)
{
    Experiment experiment;
    experiment.point = {"Custom", "analytic", 0, 0, AccessType::Read,
                        ArrayMode::FaultFree};
    experiment.run = [](uint64_t seed, const obs::Probe &probe,
                        harness::Extras &extras) {
        extras.emplace_back("seed_lo32",
                            static_cast<double>(seed & 0xffffffffu));
        // Metrics are off, so the point's probe is off.
        EXPECT_FALSE(probe.on());
        SimResult result;
        result.samples = 1;
        return result;
    };
    RunSummary summary = ExperimentRunner(2).run({experiment});
    ASSERT_EQ(summary.points.size(), 1u);
    const auto &point = summary.points[0];
    EXPECT_EQ(point.seed, deriveSeed(experiment.point));
    ASSERT_EQ(point.extras.size(), 1u);
    EXPECT_EQ(point.extras[0].second,
              static_cast<double>(point.seed & 0xffffffffu));
}

TEST(ExperimentRunner, PointProbeFeedsPerPointMetrics)
{
    // With metrics on, each point's probe writes that point's own
    // registry: runScenario wires it to the queue, controller and
    // disks, and the snapshots match across thread counts.
    auto experiments = smallGrid();
    ExperimentRunner serial_runner(1);
    serial_runner.enableMetrics(true);
    ExperimentRunner parallel_runner(4);
    parallel_runner.enableMetrics(true);
    RunSummary serial = serial_runner.run(experiments);
    RunSummary parallel = parallel_runner.run(experiments);
    for (size_t i = 0; i < experiments.size(); ++i) {
        const obs::MetricsSnapshot &metrics = serial.points[i].metrics;
        EXPECT_EQ(metrics.toJson().dump(0),
                  parallel.points[i].metrics.toJson().dump(0));
        if (obs::kObsEnabled) {
            const bool reads =
                experiments[i].point.type == AccessType::Read;
            EXPECT_GT(metrics.counter(reads ? "array.reads"
                                            : "array.writes"),
                      0.0)
                << "row " << i;
        } else {
            EXPECT_TRUE(metrics.empty()) << "row " << i;
        }
    }
}

TEST(FigureSlug, NormalizesCaptionsToFileNames)
{
    EXPECT_EQ(harness::figureSlug("Figure 5"), "figure_5");
    EXPECT_EQ(harness::figureSlug("Figure 14 (top left)"),
              "figure_14_top_left");
    EXPECT_EQ(harness::figureSlug("SSTF ablation"), "sstf_ablation");
    EXPECT_EQ(harness::figureSlug("---"), "unnamed");
}

TEST(Json, DumpsScalarsAndEscapes)
{
    EXPECT_EQ(Json(true).dump(0), "true");
    EXPECT_EQ(Json(42).dump(0), "42");
    // Seeds above INT64_MAX are emitted as their signed bit pattern
    // (documented in the schema).
    EXPECT_EQ(Json(uint64_t{0xffffffffffffffffULL}).dump(0), "-1");
    EXPECT_EQ(Json("a\"b\\c\n\t").dump(0), "\"a\\\"b\\\\c\\n\\t\"");
    EXPECT_EQ(Json(std::string(1, '\x01')).dump(0), "\"\\u0001\"");
    // Non-finite doubles have no JSON rendering; they become null.
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(0),
              "null");
}

TEST(Json, NumbersRoundTripAtFullPrecision)
{
    double value = 0.1 + 0.2;
    std::string text = Json(value).dump(0);
    EXPECT_EQ(std::stod(text), value);
}

TEST(Json, ObjectsKeepInsertionOrderAndReplaceKeys)
{
    Json object = Json::object();
    object.set("b", 1).set("a", 2).set("b", 3);
    EXPECT_EQ(object.dump(0), "{\"b\":3,\"a\":2}");

    Json array = Json::array();
    array.push(1).push("two").push(Json::object());
    EXPECT_EQ(array.dump(0), "[1,\"two\",{}]");
}

TEST(WriteFigureJson, EmitsAParsableDocument)
{
    auto experiments = smallGrid();
    RunSummary summary = ExperimentRunner(2).run(experiments);

    auto dir = std::filesystem::temp_directory_path() /
               "pddl_harness_test";
    std::filesystem::create_directories(dir);
    std::string path = harness::writeFigureJson(
        dir.string(), "Harness test", "unit test grid", summary);
    EXPECT_EQ(std::filesystem::path(path).filename().string(),
              "BENCH_harness_test.json");

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    EXPECT_NE(text.find("\"schema\": \"pddl-bench-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"rows\""), std::string::npos);
    EXPECT_NE(text.find("\"seeks\""), std::string::npos);
    // One row per experiment.
    size_t rows = 0;
    for (size_t at = text.find("\"seed\""); at != std::string::npos;
         at = text.find("\"seed\"", at + 1))
        ++rows;
    EXPECT_EQ(rows, experiments.size());
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace pddl
