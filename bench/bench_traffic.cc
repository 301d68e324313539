/**
 * @file
 * Production-traffic benchmark: tail latency under skewed and bursty
 * load, with and without the write-back cache tier, over a 2-shard
 * PDDL volume (healthy / degraded / rebuilding).
 *
 * Two panels:
 *
 *  - traffic: offset skew {uniform, zipf, hot-spot} x arrival process
 *    {poisson, diurnal, mmpp} against the raw volume -- how much of
 *    the tail is burstiness, how much is skew;
 *  - slo: the write-heavy SLO sweep -- skew {zipf, hot-spot} x
 *    {no cache, write-back cache} x {healthy, degraded, rebuilding}.
 *
 * Every row is one ScenarioSpec (core/scenario_spec.hh) run through
 * the shared scenario runner (src/tune) -- the same engine that backs
 * bench_hybrid and the autotuner, so a row here is replayable from
 * its serialized spec alone. --scenario <file|json> swaps the base
 * configuration (volume, cache budget, rates) for a validated spec
 * of your own; the panels then vary skew/arrival/health on top of it.
 *
 * Every row reports p50/p95/p99/p99.9 from the client.latency_ms
 * histogram as first-class JSON columns, plus the cache counters
 * (hit rate, absorbed writes, destage runs, stalls). Rows contain
 * only simulated quantities, so BENCH_traffic.json is byte-identical
 * across --threads; CI diffs the raw files.
 *
 * --skew <spec> narrows the traffic panel to one validated offset
 * spec ("uniform", "zipf:<theta>", "hot:<fraction>,<weight>").
 * --capture <file> records the zipf/poisson row's offered accesses
 * as a replayable text trace; --replay <file> appends a row that
 * replays such a trace against the healthy uncached volume.
 *
 * --check enforces the CI floors: the hot-spot cached row must hit
 * at least 50% of reads in cache, the cached zipf write-heavy row
 * must beat the uncached row's p99, and the rebuilding rows must
 * complete their rebuild without data loss.
 */

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "traffic/offset_dist.hh"
#include "traffic/trace.hh"
#include "tune/scenario_runner.hh"

namespace pddl {
namespace {

/**
 * The hot-spot spec both panels use. The volume addresses ~2.3M
 * units, so 0.05% is ~1.1K units -- a hot set that fits the cache
 * with room to spare, the regime where a write-back tier earns its
 * keep (a hot set much larger than the cache just streams misses).
 */
constexpr double kHotFraction = 0.0005;
constexpr double kHotWeight = 0.95;

/** Shard 0's health in an slo row. */
struct Health
{
    const char *name;
    /** Degraded throughout on this disk; -1 keeps it healthy. */
    int failed_disk;
    /** Loses disk 2 at 40 ms and rebuilds it. */
    bool rebuilding;
};

constexpr Health kHealths[] = {{"healthy", -1, false},
                               {"degraded", 2, false},
                               {"rebuilding", -1, true}};

/** One row of either panel: a label plus the full scenario. */
struct Row
{
    std::string label;
    ScenarioSpec spec;
    /** Replay this trace instead of synthetic traffic (may be empty). */
    std::vector<traffic::TraceRecord> replay;
    /** Capture the offered accesses into this file (may be empty). */
    std::string capture_path;
};

/**
 * The base scenario every row starts from: --scenario when given,
 * else the bench's traditional 2-shard PDDL volume behind the
 * 2 ms fabric.
 */
ScenarioSpec
baseSpec()
{
    if (std::optional<ScenarioSpec> spec = bench::scenarioFlag())
        return *spec;
    ScenarioSpec spec;
    spec.shards.assign(2, ScenarioShard{});
    spec.chunk_units = 8;
    spec.dispatch_ms = 2.0;
    // The write-back tier's budget: 4096 lines of 8 KB = 32 MB,
    // tight watermarks that keep the destage pump visibly active at
    // this bench's offered load instead of parking every dirty unit
    // until drain.
    spec.cache_kb = 32768;
    spec.cache_high = 0.10;
    spec.cache_low = 0.05;
    return spec;
}

/** A row's extras: tails, backend load, cache and rebuild counters. */
void
rowExtras(const ScenarioSpec &spec, const tune::ScenarioOutcome &outcome,
          harness::Extras &extras)
{
    extras.emplace_back("max_outstanding", outcome.max_outstanding);
    extras.emplace_back("p50_ms", outcome.p50_ms);
    extras.emplace_back("p95_ms", outcome.p95_ms);
    extras.emplace_back("p99_ms", outcome.p99_ms);
    extras.emplace_back("p999_ms", outcome.p999_ms);
    extras.emplace_back("backend_accesses",
                        static_cast<double>(outcome.backend_accesses));
    if (spec.cache_enabled) {
        extras.emplace_back("hit_rate", outcome.hit_rate);
        extras.emplace_back(
            "writes_absorbed",
            static_cast<double>(outcome.writes_absorbed));
        extras.emplace_back(
            "write_stalls",
            static_cast<double>(outcome.write_stalls));
        extras.emplace_back(
            "destage_runs",
            static_cast<double>(outcome.destage_runs));
        extras.emplace_back(
            "destage_units",
            static_cast<double>(outcome.destage_units));
        extras.emplace_back("dirty_end",
                            static_cast<double>(outcome.dirty_end));
        extras.emplace_back(
            "stalled_end",
            static_cast<double>(outcome.stalled_end));
    }
    if (!spec.faults.empty()) {
        extras.emplace_back("rebuilds_completed",
                            outcome.rebuilds_completed);
        extras.emplace_back("data_loss",
                            outcome.data_loss ? 1.0 : 0.0);
    }
}

using bench::extra;
using bench::findRow;

/** Enforce the traffic/cache acceptance floors. @return exit code. */
int
checkFloors(const harness::RunSummary &summary)
{
    int failures = 0;

    const harness::PointResult *hot =
        findRow(summary, "slo/hot:0.0005,0.95/wb/healthy");
    if (hot == nullptr || extra(*hot, "hit_rate") < 0.5) {
        std::fprintf(stderr,
                     "[check] FAIL hot-spot cache: hit rate %.3f "
                     "below the 0.5 floor\n",
                     hot ? extra(*hot, "hit_rate") : 0.0);
        ++failures;
    } else {
        std::fprintf(stderr, "[check] hot-spot cache hit rate %.3f\n",
                     extra(*hot, "hit_rate"));
    }

    const harness::PointResult *cached =
        findRow(summary, "slo/zipf:0.99/wb/healthy");
    const harness::PointResult *raw =
        findRow(summary, "slo/zipf:0.99/nocache/healthy");
    if (cached == nullptr || raw == nullptr ||
        extra(*cached, "p99_ms") >= extra(*raw, "p99_ms")) {
        std::fprintf(stderr,
                     "[check] FAIL write-back p99: cached %.2f ms "
                     "does not beat uncached %.2f ms\n",
                     cached ? extra(*cached, "p99_ms") : 0.0,
                     raw ? extra(*raw, "p99_ms") : 0.0);
        ++failures;
    } else {
        std::fprintf(stderr,
                     "[check] write-back p99 %.2f ms vs uncached "
                     "%.2f ms\n",
                     extra(*cached, "p99_ms"), extra(*raw, "p99_ms"));
    }

    for (const harness::PointResult &point : summary.points) {
        if (point.point.layout.find("/rebuilding") ==
            std::string::npos)
            continue;
        if (extra(point, "data_loss") != 0.0 ||
            extra(point, "rebuilds_completed") < 1.0) {
            std::fprintf(stderr,
                         "[check] FAIL %s: rebuild incomplete or "
                         "data lost\n",
                         point.point.layout.c_str());
            ++failures;
        }
    }

    // Stalled writes must always drain: a stall that outlives the
    // run would be a wedged cache, not a latency effect.
    for (const harness::PointResult &point : summary.points) {
        if (extra(point, "stalled_end") != 0.0) {
            std::fprintf(stderr,
                         "[check] FAIL %s: %d writes still stalled "
                         "at drain\n",
                         point.point.layout.c_str(),
                         static_cast<int>(extra(point, "stalled_end")));
            ++failures;
        }
    }

    if (failures == 0)
        std::fprintf(stderr, "[check] all traffic floors met\n");
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
        "Production traffic benchmark: tail latency (p50..p99.9) "
        "under skewed/bursty load over a 2-shard PDDL volume, with "
        "and without the write-back cache tier (rows are "
        "bit-identical for every --threads value).",
        bench::kObserved | bench::kScenario);
    cli.addString("skew", "spec",
                  "narrow the traffic panel to one offset spec: "
                  "uniform, zipf:<theta> or hot:<fraction>,<weight>",
                  [](const std::string &value) {
                      traffic::OffsetSpec spec;
                      std::string error;
                      return traffic::parseOffsetSpec(value, spec,
                                                      error)
                                 ? std::string()
                                 : error;
                  });
    cli.addString("replay", "file",
                  "append a row replaying this trace file against "
                  "the healthy uncached volume",
                  [](const std::string &value) {
                      std::ifstream in(value);
                      return in ? std::string()
                                : std::string("cannot read file");
                  });
    cli.addString("capture", "file",
                  "record the zipf/poisson traffic row's accesses "
                  "as a replayable trace");
    cli.addBool("check",
                "enforce CI floors (hot-spot cache hit rate >= 0.5, "
                "cached zipf p99 beats uncached, rebuilding rows "
                "loss-free, stalls drained) and exit 1 on "
                "regression");
    cli.parseOrExit(argc, argv);
    bench::options().deterministic_json = true;

    const ScenarioSpec base = baseSpec();

    char hot[64];
    std::snprintf(hot, sizeof(hot), "hot:%g,%g", kHotFraction,
                  kHotWeight);
    std::vector<std::string> panel_skews = {"uniform", "zipf:0.99", hot};
    if (cli.has("skew"))
        panel_skews = {cli.getString("skew")};

    std::vector<Row> rows;

    // Panel 1 -- traffic: skew x arrival against the raw volume.
    for (const std::string &skew : panel_skews) {
        for (const char *arrival_name :
             {"poisson", "diurnal", "mmpp"}) {
            Row row;
            row.spec = base;
            row.spec.cache_enabled = false;
            row.spec.offsets = skew;
            if (std::string(arrival_name) == "diurnal") {
                // Quiet / busy / peak / busy, 500 ms phases.
                row.spec.arrival = "diurnal:0.25,1,2.5,1@500";
            } else {
                row.spec.arrival = arrival_name;
            }
            row.spec.arrivals_per_s = 150.0;
            bench::applyTrafficMix(row.spec, false);
            row.spec.samples = bench::fullFidelity() ? 8000 : 2000;
            row.spec.warmup = 200;
            row.spec = bench::normalized(row.spec, "traffic");
            // Label with the canonical offset name so --skew and
            // the default panel produce identical row keys.
            row.label = std::string("traffic/") + row.spec.offsets +
                        "+" + arrival_name;
            rows.push_back(std::move(row));
        }
    }

    // Panel 2 -- slo: the write-heavy cache sweep.
    for (const std::string &skew :
         {std::string("zipf:0.99"), std::string(hot)}) {
        for (bool cached : {false, true}) {
            for (const Health &health : kHealths) {
                Row row;
                row.spec = base;
                row.spec.offsets = skew;
                row.spec.arrival = "poisson";
                row.spec.arrivals_per_s = 100.0;
                // A long warm-up lets the tier reach steady state
                // (hot set resident, pump cycling) before the
                // measured window opens.
                row.spec.samples = bench::fullFidelity() ? 12000 : 4000;
                row.spec.warmup = bench::fullFidelity() ? 3000 : 1500;
                bench::applyTrafficMix(row.spec, true);
                row.spec.cache_enabled = cached;
                if (health.failed_disk >= 0)
                    row.spec.shards[0].failed_disk = health.failed_disk;
                if (health.rebuilding)
                    row.spec.faults = {{40.0, 0, 2}};
                row.spec = bench::normalized(row.spec, "slo");
                row.label = std::string("slo/") + row.spec.offsets +
                            "/" + (cached ? "wb" : "nocache") + "/" +
                            health.name;
                rows.push_back(std::move(row));
            }
        }
    }

    if (cli.has("capture")) {
        for (Row &row : rows) {
            if (row.label == "traffic/zipf:0.99+poisson") {
                row.capture_path = cli.getString("capture");
                break;
            }
        }
    }
    if (cli.has("replay")) {
        Row row;
        row.label = "replay/" + cli.getString("replay");
        row.spec = base;
        row.spec.cache_enabled = false;
        row.spec = bench::normalized(row.spec, "replay");
        row.replay = traffic::loadTrace(cli.getString("replay"));
        rows.push_back(std::move(row));
    }

    std::vector<harness::Experiment> experiments;
    for (const Row &row : rows) {
        const bool write_heavy =
            !row.spec.mix.empty() && row.spec.mix.front().write;
        experiments.push_back(bench::scenarioExperiment(
            {"Traffic", row.label, 8,
             static_cast<int>(row.spec.arrivals_per_s),
             write_heavy ? AccessType::Write : AccessType::Read,
             row.spec.shards[0].failed_disk < 0 && row.spec.faults.empty()
                 ? ArrayMode::FaultFree
                 : ArrayMode::Degraded},
            row.spec,
            {.extras = rowExtras,
             .capture_path = row.capture_path,
             .replay = &row.replay}));
    }

    harness::RunSummary summary = bench::runGrid(
        "Traffic",
        "Tail latency under production traffic: skew x burstiness x "
        "write-back cache x shard health (p50/p95/p99/p99.9 ms)",
        experiments);

    std::printf("Production traffic (2-shard PDDL volume, 1 "
                "sim-thread(s))\n");
    std::printf("%-34s %8s %8s %8s %8s %8s %8s %7s\n", "scenario",
                "req/s", "p50", "p95", "p99", "p99.9", "hit", "stall");
    bench::printRule(10);
    for (const harness::PointResult &point : summary.points) {
        const bool cached =
            point.point.layout.find("/wb") != std::string::npos;
        std::printf("%-34s %8.1f %8.2f %8.2f %8.2f %8.2f",
                    point.point.layout.c_str(),
                    point.result.throughput_per_s,
                    extra(point, "p50_ms"), extra(point, "p95_ms"),
                    extra(point, "p99_ms"), extra(point, "p999_ms"));
        if (cached) {
            std::printf(" %8.3f %7.0f\n", extra(point, "hit_rate"),
                        extra(point, "write_stalls"));
        } else {
            std::printf(" %8s %7s\n", "-", "-");
        }
    }

    if (cli.getBool("check"))
        return checkFloors(summary);
    return 0;
}
