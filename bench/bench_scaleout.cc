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
 * Every row is a ScenarioSpec run by tune::runScenario; the outcome
 * carries the engine and volume counters the rows report.
 *
 * --speedup (implied by --check) adds the wall-clock rows: one big
 * 64-shard volume run at 1, 2 and 4 intra-scenario threads, same
 * simulated history at every count, host wall time of the whole
 * runScenario call printed per row (stdout only -- wall time never
 * reaches the JSON).
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
#include <thread>
#include <vector>

#include "bench_util.hh"

namespace pddl {
namespace {

const std::vector<int> kShardCounts = {1, 2, 4, 8};

/** Clients per shard: the offered concurrency scales with capacity. */
constexpr int kClientsPerShard = 8;

/**
 * A volume of `shard_count` 13-disk PDDL shards under a closed-loop
 * population of `clients`, each issuing `kb` KB reads. Volume->shard
 * dispatch latency, and therefore the engine's conservative window
 * width (lookahead), is 2 ms: that keeps tens of disk events per
 * lane inside each window at this bench's load, so barrier overhead
 * stays in the noise. A fixed sample count (no CI rule) pins the
 * simulated work so rates compare cleanly across shard counts.
 */
ScenarioSpec
volumeSpec(int shard_count, int clients, int kb, int64_t samples,
           int64_t warmup)
{
    ScenarioSpec spec;
    spec.shards.assign(static_cast<size_t>(shard_count),
                       ScenarioShard{});
    spec.chunk_units = 8;
    spec.dispatch_ms = 2.0;
    spec.client = "closed";
    spec.clients = clients;
    spec.mix = {{kb, false, 1.0}};
    spec.samples = samples;
    spec.warmup = warmup;
    return bench::normalized(spec);
}

/**
 * A scale-out row's extras: simulated rates only. Host wall time must
 * never reach a row, or the JSON would stop being bit-identical
 * across --threads and --sim-threads.
 */
void
rowExtras(const ScenarioSpec &spec, const tune::ScenarioOutcome &outcome,
          harness::Extras &extras)
{
    const double sim_s = outcome.sim_ms / 1000.0;
    extras.emplace_back("shards", static_cast<int>(spec.shards.size()));
    extras.emplace_back("req_per_s", outcome.throughput_per_s);
    extras.emplace_back("events_per_sim_s",
                        static_cast<double>(outcome.events_fired) / sim_s);
    extras.emplace_back("windows_per_sim_s",
                        static_cast<double>(outcome.windows_run) / sim_s);
    extras.emplace_back("sub_per_access",
                        static_cast<double>(outcome.sub_accesses) /
                            static_cast<double>(outcome.backend_accesses));
    extras.emplace_back("max_in_flight", outcome.max_in_flight);
    extras.emplace_back("degraded_shards_end", outcome.degraded_shards_end);
    if (!spec.faults.empty()) {
        extras.emplace_back("rebuilds_completed",
                            outcome.rebuilds_completed);
        extras.emplace_back("data_loss", outcome.data_loss ? 1.0 : 0.0);
        extras.emplace_back("degraded_ms", outcome.degraded_ms);
    }
}

/** One wall-clock row: host time of the whole runScenario call. */
struct WallRun
{
    double wall_ms = 0.0;
    tune::ScenarioOutcome outcome;
};

/**
 * The wall-clock scenario: a 64-shard volume under a heavy
 * closed-loop population of large accesses, so nearly all event work
 * lives on the shard lanes and the windows stay dense. Prints one
 * row per intra-scenario thread count (stdout only, never JSON),
 * timing the whole runScenario call, stack setup included, and
 * returns the runs for floor checking (the simulated outcome must be
 * identical across thread counts).
 */
std::map<int, WallRun>
runSpeedupRows(int shard_count)
{
    // 16 clients per shard reading one whole 64 KB chunk each: 8
    // disk ops per sub-access.
    const ScenarioSpec spec =
        volumeSpec(shard_count, 16 * shard_count, 64,
                   bench::fullFidelity() ? 40000 : 12000, 500);
    std::map<int, WallRun> runs;
    std::printf("\n64-shard wall-clock speedup (host time; identical "
                "simulated history per row)\n");
    std::printf("%12s %10s %12s %12s %10s %9s\n", "sim-threads",
                "wall ms", "events", "Mev/s-wall", "speedup",
                "resp ms");
    bench::printRule(7);
    double base_ms = 0.0;
    for (int threads : {1, 2, 4}) {
        tune::RunScenarioOptions options;
        options.seed = 0x5ca1ab1eULL;
        options.sim_threads = threads;
        WallRun run;
        const auto start = std::chrono::steady_clock::now();
        run.outcome = tune::runScenario(spec, options);
        run.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        if (threads == 1)
            base_ms = run.wall_ms;
        const auto events =
            static_cast<unsigned long long>(run.outcome.events_fired);
        std::printf("%12d %10.0f %12llu %12.2f %9.2fx %9.2f\n",
                    threads, run.wall_ms, events,
                    static_cast<double>(events) / 1e3 / run.wall_ms,
                    base_ms / run.wall_ms, run.outcome.mean_ms);
        runs[threads] = run;
    }
    return runs;
}

/** Enforce the scale-out acceptance floors. @return exit code. */
int
checkFloors(const harness::RunSummary &summary,
            const std::map<int, WallRun> &wall_runs)
{
    int failures = 0;
    std::map<int, double> healthy_req_per_s;
    for (const harness::PointResult &point : summary.points) {
        const int shards = static_cast<int>(bench::extra(point, "shards"));
        const bool faulted = point.point.mode != ArrayMode::FaultFree;
        if (!faulted) {
            healthy_req_per_s[shards] = bench::extra(point, "req_per_s");
            continue;
        }
        if (bench::extra(point, "data_loss") != 0.0) {
            std::fprintf(stderr,
                         "[check] FAIL %d shards: single failure "
                         "ended in data loss\n",
                         shards);
            ++failures;
        }
        if (bench::extra(point, "rebuilds_completed") < 1.0) {
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
        const tune::ScenarioOutcome &a = one->second.outcome;
        const tune::ScenarioOutcome &b = fourt->second.outcome;
        if (a.events_fired != b.events_fired || a.sim_ms != b.sim_ms ||
            a.mean_ms != b.mean_ms) {
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
        "value).",
        bench::kObserved | bench::kSimThreads);
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
    // 8 clients per shard doing 24 KB reads (a mix of chunk-local and
    // split accesses); the fault rows have shard 0 lose disk 2 early
    // and rebuild into its distributed spare while the other shards
    // keep serving at full speed.
    for (int shards : kShardCounts) {
        for (bool faulted : {false, true}) {
            ScenarioSpec spec =
                volumeSpec(shards, kClientsPerShard * shards, 24,
                           bench::fullFidelity() ? 12000 : 3000, 200);
            if (faulted)
                spec.faults = {{40.0, 0, 2}};
            experiments.push_back(bench::scenarioExperiment(
                {"Scaleout",
                 std::string("volume/") +
                     (faulted ? "shard0_failure" : "healthy"),
                 24, kClientsPerShard * shards, AccessType::Read,
                 faulted ? ArrayMode::Degraded : ArrayMode::FaultFree},
                spec, {.extras = rowExtras}));
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
                    static_cast<int>(bench::extra(point, "shards")),
                    point.point.mode == ArrayMode::FaultFree
                        ? "healthy"
                        : "shard0 failure",
                    bench::extra(point, "req_per_s"),
                    bench::extra(point, "events_per_sim_s"),
                    point.result.mean_response_ms,
                    bench::extra(point, "sub_per_access"),
                    bench::extra(point, "max_in_flight"));
    }

    std::map<int, WallRun> wall_runs;
    if (cli.getBool("check") || cli.getBool("speedup"))
        wall_runs = runSpeedupRows(64);

    if (cli.getBool("check"))
        return checkFloors(summary, wall_runs);
    return 0;
}
