/**
 * @file
 * Scale-out benchmark: one volume striped over S independent PDDL
 * arrays, swept over shard counts {1, 2, 4, 8}.
 *
 * Each row runs a closed-loop client population (8 clients per
 * shard, 24 KB accesses) against a VolumeManager on the parallel
 * engine and reports simulated rates only -- requests per simulated
 * second and engine events per simulated second -- so
 * BENCH_scaleout.json is bit-identical for every --threads value
 * (host wall time never enters a row, and the engine's windows are a
 * pure function of simulation state).
 * The fault rows additionally play a scripted disk-failure timeline
 * against shard 0, measuring how one rebuilding shard's spillover
 * shows up against the healthy remainder (degraded sub-access
 * share, rebuild completion).
 *
 * Every row is a ScenarioSpec run by tune::runScenario; the outcome
 * carries the engine and volume counters the rows report.
 *
 * --check enforces the scale-out acceptance floors in CI: the
 * 4-shard healthy row must deliver at least 3x the 1-shard
 * aggregate request rate, and every fault row must finish its
 * rebuild without data loss.
 */

#include <cstdio>
#include <map>
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
 * across --threads.
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

/** Enforce the scale-out acceptance floors. @return exit code. */
int
checkFloors(const harness::RunSummary &summary)
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
        "bit-identical for every --threads value).",
        bench::kObserved);
    cli.addBool("check",
                "enforce CI floors (4-shard >= 3x 1-shard req/s, "
                "fault rows rebuild without data loss) and exit 1 "
                "on regression");
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

    std::printf("Volume scale-out (%d clients per shard, 24 KB reads)\n",
                kClientsPerShard);
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

    if (cli.getBool("check"))
        return checkFloors(summary);
    return 0;
}
