/**
 * @file
 * Scale-out benchmark: one volume striped over S independent PDDL
 * arrays, swept over shard counts {1, 2, 4, 8}.
 *
 * Each row runs a closed-loop client population (8 clients per
 * shard, 24 KB accesses) against a VolumeManager on the parallel
 * engine and reports simulated rates only -- requests per simulated
 * second and engine events per simulated second -- so
 * BENCH_scaleout.json is bit-identical for every --threads AND
 * every --sim-threads value (host wall time never enters a row, and
 * the engine's windows are a pure function of simulation state).
 * The fault rows additionally play a scripted disk-failure timeline
 * against shard 0, measuring how one rebuilding shard's spillover
 * shows up against the healthy remainder (degraded sub-access
 * share, rebuild completion).
 *
 * --speedup (implied by --check) adds the wall-clock rows: one big
 * 64-shard volume run at 1, 2 and 4 intra-scenario threads, same
 * simulated history at every count, host wall time printed per row
 * (stdout only -- wall time never reaches the JSON).
 *
 * --check enforces the scale-out acceptance floors in CI: the
 * 4-shard healthy row must deliver at least 3x the 1-shard
 * aggregate request rate, no fault row may end in data loss, and --
 * on hosts with at least 4 hardware threads -- the 64-shard volume
 * must run at least 3x faster at 4 intra-scenario threads.
 */

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "core/pddl_layout.hh"
#include "fault/fault_scheduler.hh"
#include "sim/parallel_engine.hh"
#include "volume/volume_manager.hh"

namespace pddl {
namespace {

const std::vector<int> kShardCounts = {1, 2, 4, 8};

/** Clients per shard: the offered concurrency scales with capacity. */
constexpr int kClientsPerShard = 8;

/**
 * Volume->shard dispatch latency, and therefore the engine's
 * conservative window width (lookahead). Two milliseconds keeps
 * tens of disk events per lane inside each window at this bench's
 * load, so barrier overhead stays in the noise.
 */
constexpr double kDispatchMs = 2.0;

/**
 * One scale-out point: a volume of `shard_count` PDDL shards under a
 * closed-loop population, optionally with a scripted disk failure on
 * shard 0. Fixed sample count (min == max, zero tolerance) pins the
 * simulated work so rates compare cleanly across shard counts. Runs
 * on the parallel engine with --sim-threads workers; every reported
 * number is identical at every worker count.
 */
SimResult
runScaleout(int shard_count, bool faulted, uint64_t seed,
            harness::Extras &extras)
{
    ParallelEngine::Config engine_config;
    engine_config.threads = bench::options().sim_threads;
    engine_config.lookahead = kDispatchMs;
    ParallelEngine engine(shard_count, engine_config);

    PddlLayout layout = PddlLayout::make(13, 4);
    const DeviceModel &model = device::hp2247();

    std::vector<ShardSpec> specs(static_cast<size_t>(shard_count));
    for (ShardSpec &spec : specs) {
        spec.layout = &layout;
        spec.device = &model;
    }
    VolumeConfig vconfig;
    vconfig.chunk_units = 8;
    vconfig.dispatch_ms = kDispatchMs;
    VolumeManager volume(engine, std::move(specs), vconfig);

    // Per-shard fault injection: shard 0 loses disk 2 early in the
    // run and rebuilds into its distributed spare while the other
    // shards keep serving at full speed. The scheduler lives on
    // shard 0's lane: all of its machinery is shard-local.
    std::unique_ptr<FaultScheduler> faults;
    if (faulted) {
        FaultSchedule schedule;
        schedule.events.push_back(
            {40.0, FaultEvent::Kind::DiskFailure, 2, 0});
        faults = std::make_unique<FaultScheduler>(
            engine.shardQueue(0), std::move(schedule),
            FaultScheduler::Options{});
        faults->bindArray(volume.shard(0));
        faults->start();
    }

    ClosedLoopConfig config;
    config.clients = kClientsPerShard * shard_count;
    config.access_units = 3; // 24 KB: mixes chunk-local + split ops
    config.type = AccessType::Read;
    config.relative_tolerance = 0.0;
    config.min_samples = bench::fullFidelity() ? 12000 : 3000;
    config.max_samples = config.min_samples;
    config.warmup = 200;
    config.seed = seed;

    ClosedLoopClient client(config);
    startOnHub(client, engine, volume);
    engine.run();

    SimResult result = client.result();

    // Simulated rates only: host wall time must never reach a row,
    // or the JSON would stop being bit-identical across --threads
    // and --sim-threads.
    const double sim_s = engine.now() / 1000.0;
    extras.emplace_back("shards", shard_count);
    extras.emplace_back("req_per_s", result.throughput_per_s);
    extras.emplace_back("events_per_sim_s",
                        static_cast<double>(engine.eventsFired()) /
                            sim_s);
    extras.emplace_back("windows_per_sim_s",
                        static_cast<double>(engine.windowsRun()) /
                            sim_s);
    extras.emplace_back(
        "sub_per_access",
        static_cast<double>(volume.subAccessesIssued()) /
            static_cast<double>(volume.volumeAccessesIssued()));
    int max_depth = 0;
    for (int s = 0; s < volume.shardCount(); ++s)
        max_depth = std::max(max_depth, volume.maxInFlight(s));
    extras.emplace_back("max_in_flight", max_depth);
    extras.emplace_back("degraded_shards_end", volume.degradedShards());
    if (faulted) {
        const FaultStats &stats = faults->stats();
        extras.emplace_back("rebuilds_completed",
                            stats.rebuilds_completed);
        extras.emplace_back("data_loss", stats.data_loss ? 1.0 : 0.0);
        extras.emplace_back("degraded_ms", faults->degradedMs());
    }
    return result;
}

/**
 * The wall-clock scenario: a 64-shard volume under a heavy
 * closed-loop population of large accesses (each sub-access expands
 * to a whole chunk of disk ops), so nearly all event work lives on
 * the shard lanes and the windows stay dense. Returns the host wall
 * milliseconds of engine.run(); the simulated outcome is checked
 * identical across thread counts by the caller.
 */
struct WallRun
{
    double wall_ms = 0.0;
    uint64_t events = 0;
    double sim_ms = 0.0;
    double mean_response_ms = 0.0;
    int64_t samples = 0;
};

WallRun
runWallScenario(int shard_count, int sim_threads)
{
    ParallelEngine::Config engine_config;
    engine_config.threads = sim_threads;
    engine_config.lookahead = kDispatchMs;
    ParallelEngine engine(shard_count, engine_config);

    PddlLayout layout = PddlLayout::make(13, 4);
    const DeviceModel &model = device::hp2247();
    std::vector<ShardSpec> specs(static_cast<size_t>(shard_count));
    for (ShardSpec &spec : specs) {
        spec.layout = &layout;
        spec.device = &model;
    }
    VolumeConfig vconfig;
    vconfig.chunk_units = 8;
    vconfig.dispatch_ms = kDispatchMs;
    VolumeManager volume(engine, std::move(specs), vconfig);

    ClosedLoopConfig config;
    config.clients = 16 * shard_count;
    config.access_units = 8; // one whole chunk: 8 disk ops per sub
    config.type = AccessType::Read;
    config.relative_tolerance = 0.0;
    config.min_samples = bench::fullFidelity() ? 40000 : 12000;
    config.max_samples = config.min_samples;
    config.warmup = 500;
    config.seed = 0x5ca1ab1eULL;

    ClosedLoopClient client(config);
    startOnHub(client, engine, volume);

    const auto start = std::chrono::steady_clock::now();
    engine.run();
    const auto stop = std::chrono::steady_clock::now();

    WallRun run;
    run.wall_ms =
        std::chrono::duration<double, std::milli>(stop - start)
            .count();
    run.events = engine.eventsFired();
    run.sim_ms = engine.now();
    run.mean_response_ms = client.result().mean_response_ms;
    run.samples = client.result().samples;
    return run;
}

/**
 * Print the wall-clock speedup rows (stdout only, never JSON) and
 * return the per-thread-count results for floor checking.
 */
std::map<int, WallRun>
runSpeedupRows(int shard_count)
{
    std::map<int, WallRun> runs;
    std::printf("\n64-shard wall-clock speedup (host time; identical "
                "simulated history per row)\n");
    std::printf("%12s %10s %12s %12s %10s %9s\n", "sim-threads",
                "wall ms", "events", "Mev/s-wall", "speedup",
                "resp ms");
    bench::printRule(7);
    double base_ms = 0.0;
    for (int threads : {1, 2, 4}) {
        WallRun run = runWallScenario(shard_count, threads);
        if (threads == 1)
            base_ms = run.wall_ms;
        std::printf("%12d %10.0f %12llu %12.2f %9.2fx %9.2f\n",
                    threads, run.wall_ms,
                    static_cast<unsigned long long>(run.events),
                    static_cast<double>(run.events) / 1e3 /
                        run.wall_ms,
                    base_ms / run.wall_ms, run.mean_response_ms);
        runs[threads] = run;
    }
    return runs;
}

double
extra(const harness::PointResult &point, const char *key)
{
    for (const auto &[name, value] : point.extras) {
        if (name == key)
            return value;
    }
    return 0.0;
}

/** Enforce the scale-out acceptance floors. @return exit code. */
int
checkFloors(const harness::RunSummary &summary,
            const std::map<int, WallRun> &wall_runs)
{
    int failures = 0;
    std::map<int, double> healthy_req_per_s;
    for (const harness::PointResult &point : summary.points) {
        const int shards = static_cast<int>(extra(point, "shards"));
        const bool faulted = point.point.mode != ArrayMode::FaultFree;
        if (!faulted) {
            healthy_req_per_s[shards] = extra(point, "req_per_s");
            continue;
        }
        if (extra(point, "data_loss") != 0.0) {
            std::fprintf(stderr,
                         "[check] FAIL %d shards: single failure "
                         "ended in data loss\n",
                         shards);
            ++failures;
        }
        if (extra(point, "rebuilds_completed") < 1.0) {
            std::fprintf(stderr,
                         "[check] FAIL %d shards: rebuild never "
                         "completed\n",
                         shards);
            ++failures;
        }
    }
    const double base = healthy_req_per_s[1];
    const double four = healthy_req_per_s[4];
    if (base <= 0.0 || four < 3.0 * base) {
        std::fprintf(stderr,
                     "[check] FAIL scale-out: 4-shard %.0f req/s is "
                     "below 3x the 1-shard %.0f req/s\n",
                     four, base);
        ++failures;
    } else {
        std::fprintf(stderr,
                     "[check] 4-shard scale-out %.2fx the 1-shard "
                     "rate\n",
                     four / base);
    }

    // Wall-clock floor: the 64-shard volume must run >= 3x faster
    // at 4 intra-scenario threads. Host-dependent by nature, so it
    // only binds where 4 hardware threads exist to run on.
    const auto one = wall_runs.find(1);
    const auto fourt = wall_runs.find(4);
    if (one != wall_runs.end() && fourt != wall_runs.end()) {
        if (one->second.events != fourt->second.events ||
            one->second.sim_ms != fourt->second.sim_ms ||
            one->second.mean_response_ms !=
                fourt->second.mean_response_ms) {
            std::fprintf(stderr,
                         "[check] FAIL speedup rows: simulated "
                         "history differs across thread counts\n");
            ++failures;
        }
        const double speedup =
            one->second.wall_ms / fourt->second.wall_ms;
        if (std::thread::hardware_concurrency() < 4) {
            std::fprintf(stderr,
                         "[check] SKIP wall-clock floor: host has "
                         "%u hardware threads (< 4); measured "
                         "%.2fx\n",
                         std::thread::hardware_concurrency(),
                         speedup);
        } else if (speedup < 3.0) {
            std::fprintf(stderr,
                         "[check] FAIL wall-clock: 64-shard volume "
                         "at 4 sim-threads is %.2fx the serial "
                         "engine (floor 3x)\n",
                         speedup);
            ++failures;
        } else {
            std::fprintf(stderr,
                         "[check] 64-shard wall-clock speedup "
                         "%.2fx at 4 sim-threads\n",
                         speedup);
        }
    }
    if (failures == 0)
        std::fprintf(stderr, "[check] all scale-out floors met\n");
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
        "Scale-out benchmark: request and event rates of one volume "
        "striped over 1/2/4/8 PDDL shards, healthy and with a "
        "single-shard disk failure (simulated rates; rows are "
        "bit-identical for every --threads and --sim-threads "
        "value).");
    cli.addBool("check",
                "enforce CI floors (4-shard >= 3x 1-shard req/s, "
                "fault rows rebuild without data loss, 64-shard "
                ">= 3x wall speedup at 4 sim-threads) and exit 1 "
                "on regression");
    cli.addBool("speedup",
                "also run the 64-shard wall-clock speedup rows at "
                "1/2/4 intra-scenario threads");
    cli.parseOrExit(argc, argv);
    // Every row is a simulated rate: strip the informational host
    // wall fields so BENCH_scaleout.json is byte-identical for any
    // --threads value and CI can diff the raw files.
    bench::options().deterministic_json = true;

    std::vector<harness::Experiment> experiments;
    for (int shards : kShardCounts) {
        for (bool faulted : {false, true}) {
            harness::Experiment experiment;
            experiment.point = {"Scaleout",
                                std::string("volume/") +
                                    (faulted ? "shard0_failure"
                                             : "healthy"),
                                24, kClientsPerShard * shards,
                                AccessType::Read,
                                faulted ? ArrayMode::Degraded
                                        : ArrayMode::FaultFree};
            experiment.run = [shards, faulted](
                                 uint64_t seed, const obs::Probe &,
                                 harness::Extras &extras) {
                return runScaleout(shards, faulted, seed, extras);
            };
            experiments.push_back(std::move(experiment));
        }
    }

    harness::RunSummary summary = bench::runGrid(
        "Scaleout",
        "Volume scale-out: req/s and events/s vs shard count, "
        "healthy and with one shard rebuilding (simulated rates)",
        experiments);

    std::printf("Volume scale-out (%d clients per shard, 24 KB "
                "reads, %d sim-thread(s))\n",
                kClientsPerShard, bench::options().sim_threads);
    std::printf("%7s %16s %12s %14s %9s %9s %10s\n", "shards",
                "scenario", "req/s", "events/sim-s", "resp ms",
                "sub/acc", "max depth");
    bench::printRule(8);
    for (const harness::PointResult &point : summary.points) {
        std::printf("%7d %16s %12.0f %14.0f %9.2f %9.3f %10.0f\n",
                    static_cast<int>(extra(point, "shards")),
                    point.point.mode == ArrayMode::FaultFree
                        ? "healthy"
                        : "shard0 failure",
                    extra(point, "req_per_s"),
                    extra(point, "events_per_sim_s"),
                    point.result.mean_response_ms,
                    extra(point, "sub_per_access"),
                    extra(point, "max_in_flight"));
    }

    std::map<int, WallRun> wall_runs;
    if (cli.getBool("check") || cli.getBool("speedup"))
        wall_runs = runSpeedupRows(64);

    if (cli.getBool("check"))
        return checkFloors(summary, wall_runs);
    return 0;
}
