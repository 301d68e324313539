/**
 * @file
 * Heterogeneous-volume benchmark: mixed-tier (flash mirror + PDDL
 * rotating disks) against homogeneous configurations of equal
 * hardware cost, under the hot-spot traffic of the traffic bench.
 *
 * Every configuration spends the same cost budget (sum over shards
 * of disks x DeviceModel::costUnits()):
 *
 *  - hdd-pddl:    2 shards x 13 HP 2247 drives, PDDL width 4 -- the
 *                 paper's array, scaled out (the incumbent);
 *  - hdd-mirror:  one RAID-1/0 shard over 26 HP 2247 drives -- no
 *                 parity RMW, but every access is mechanical;
 *  - ssd-mirror:  one RAID-1/0 shard over 8 flash devices -- fast
 *                 but an order of magnitude short on capacity, so
 *                 it is reported yet excluded from the --check
 *                 floors (capacity-infeasible at this budget);
 *  - hybrid:      a 4-device flash mirror tier fronting a 13-drive
 *                 PDDL shard under Tiered allocation -- the hot
 *                 address prefix lands on the mirror, cold capacity
 *                 on parity-protected disks.
 *
 * Every row is one ScenarioSpec (core/scenario_spec.hh) run through
 * the shared scenario runner (src/tune) -- the same engine that backs
 * bench_traffic and the autotuner, so a row here is replayable from
 * its serialized spec alone. --scenario <file|json> swaps the
 * workload template (rates, chunking, sample budget); the bench then
 * substitutes each configuration's shard set and allocation on top.
 *
 * The workload is the PR-7 hot-spot profile: hot:0.02,0.9 (2% of
 * the address space takes 90% of the traffic), in a write-heavy and
 * a read-heavy mix. Under Tiered allocation the hot prefix is
 * exactly the flash tier's span, so the hybrid serves ~90% of
 * accesses from flash while every cold access pays the mechanical
 * price -- the class-aware placement the heterogeneous-array
 * literature argues for.
 *
 * Rows report p50/p95/p99/p99.9 from the client.latency_ms
 * histogram, whose bucket bounds come from the device registry
 * (device::latencyBoundsForDevices, applied inside the runner):
 * flash-class rows keep sub-millisecond resolution instead of
 * collapsing into bucket 0. Rows contain only simulated quantities,
 * so BENCH_hybrid.json is byte-identical across --threads; CI diffs
 * the raw files.
 *
 * --check enforces the CI floors: every configuration spends the
 * same cost budget, and the hybrid beats every capacity-feasible
 * homogeneous configuration (mean and p99, both mixes).
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "tune/scenario_runner.hh"

namespace pddl {
namespace {

/** The hot-spot profile: 2% of addresses take 90% of the traffic. */
constexpr double kHotFraction = 0.02;
constexpr double kHotWeight = 0.90;

/** One equal-cost volume configuration. */
struct HybridConfig
{
    std::string name;
    std::vector<ScenarioShard> shards;
    std::string allocation = "striped";
    /** Excluded from the --check floors (capacity-infeasible). */
    bool feasible = true;
};

ScenarioShard
shard(const std::string &layout, const std::string &device, int disks,
      const std::string &tier = "")
{
    ScenarioShard spec;
    spec.layout = layout;
    spec.device = device;
    spec.disks = disks;
    spec.tier = tier;
    return spec;
}

/**
 * The evaluated configurations. The flash device's default cost
 * (3.25 units vs the HP 2247's 1.0) makes the budgets line up:
 * 26 = 2x13 hdd = 26 hdd = 8 x 3.25 ssd = 4 x 3.25 ssd + 13 hdd.
 */
std::vector<HybridConfig>
configurations()
{
    std::vector<HybridConfig> configs;

    HybridConfig hdd_pddl;
    hdd_pddl.name = "hdd-pddl";
    hdd_pddl.shards = {shard("pddl:width=4", "hp2247", 13),
                       shard("pddl:width=4", "hp2247", 13)};
    configs.push_back(std::move(hdd_pddl));

    HybridConfig hdd_mirror;
    hdd_mirror.name = "hdd-mirror";
    hdd_mirror.shards = {
        shard("mirror:copies=2,sched=round_robin", "hp2247", 26)};
    configs.push_back(std::move(hdd_mirror));

    HybridConfig ssd_mirror;
    ssd_mirror.name = "ssd-mirror";
    ssd_mirror.shards = {
        shard("mirror:copies=2,sched=round_robin", "ssd", 8)};
    ssd_mirror.feasible = false; // ~10x short on capacity
    configs.push_back(std::move(ssd_mirror));

    HybridConfig hybrid;
    hybrid.name = "hybrid";
    hybrid.shards = {
        shard("mirror:copies=2,sched=round_robin", "ssd", 4, "fast"),
        shard("pddl:width=4", "hp2247", 13, "bulk")};
    hybrid.allocation = "tiered";
    configs.push_back(std::move(hybrid));

    // The hybrid again with the shortest-queue replica scheduler:
    // same hardware, the read path load-balances on live queue
    // depth instead of round-robin.
    HybridConfig hybrid_sq;
    hybrid_sq.name = "hybrid-sq";
    hybrid_sq.shards = {
        shard("mirror:copies=2,sched=shortest_queue", "ssd", 4,
              "fast"),
        shard("pddl:width=4", "hp2247", 13, "bulk")};
    hybrid_sq.allocation = "tiered";
    configs.push_back(std::move(hybrid_sq));

    return configs;
}

/**
 * The workload template every row starts from: --scenario when
 * given, else the bench's traditional open-loop hot-spot profile.
 * Each configuration then replaces the shard set and allocation.
 */
ScenarioSpec
baseSpec()
{
    if (std::optional<ScenarioSpec> spec = bench::scenarioFlag())
        return *spec;
    ScenarioSpec spec;
    spec.chunk_units = 8;
    spec.dispatch_ms = 2.0;
    spec.arrivals_per_s = 120.0;
    char hot[64];
    std::snprintf(hot, sizeof(hot), "hot:%g,%g", kHotFraction,
                  kHotWeight);
    spec.offsets = hot;
    spec.samples = bench::fullFidelity() ? 12000 : 4000;
    spec.warmup = bench::fullFidelity() ? 1500 : 600;
    return spec;
}

/** One row = one configuration under one mix. */
struct Row
{
    std::string label;
    std::optional<CompiledScenario> scenario;
    bool feasible = true;
};

using bench::extra;
using bench::findRow;

/** Enforce the equal-cost floors. @return exit code. */
int
checkFloors(const harness::RunSummary &summary)
{
    int failures = 0;

    // Every configuration spends the same budget.
    const double budget = extra(summary.points.front(), "cost_units");
    for (const harness::PointResult &point : summary.points) {
        if (extra(point, "cost_units") != budget) {
            std::fprintf(stderr,
                         "[check] FAIL %s: cost %.2f != budget %.2f\n",
                         point.point.layout.c_str(),
                         extra(point, "cost_units"), budget);
            ++failures;
        }
    }

    // The hybrid beats every capacity-feasible homogeneous config.
    for (const char *mix : {"write-heavy", "read-heavy"}) {
        const harness::PointResult *hybrid =
            findRow(summary, std::string("hybrid/") + mix);
        if (hybrid == nullptr) {
            std::fprintf(stderr, "[check] FAIL missing hybrid/%s\n",
                         mix);
            ++failures;
            continue;
        }
        for (const char *rival : {"hdd-pddl", "hdd-mirror"}) {
            const harness::PointResult *row =
                findRow(summary, std::string(rival) + "/" + mix);
            if (row == nullptr) {
                std::fprintf(stderr,
                             "[check] FAIL missing %s/%s\n", rival,
                             mix);
                ++failures;
                continue;
            }
            const bool mean_ok = hybrid->result.mean_response_ms <
                                 row->result.mean_response_ms;
            const bool p99_ok =
                extra(*hybrid, "p99_ms") <= extra(*row, "p99_ms");
            if (!mean_ok || !p99_ok) {
                std::fprintf(
                    stderr,
                    "[check] FAIL hybrid/%s vs %s: mean %.2f vs "
                    "%.2f ms, p99 %.2f vs %.2f ms\n",
                    mix, rival, hybrid->result.mean_response_ms,
                    row->result.mean_response_ms,
                    extra(*hybrid, "p99_ms"), extra(*row, "p99_ms"));
                ++failures;
            } else {
                std::fprintf(
                    stderr,
                    "[check] hybrid/%s beats %s: mean %.2f vs %.2f "
                    "ms, p99 %.2f vs %.2f ms\n",
                    mix, rival, hybrid->result.mean_response_ms,
                    row->result.mean_response_ms,
                    extra(*hybrid, "p99_ms"), extra(*row, "p99_ms"));
            }
        }
    }

    if (failures == 0)
        std::fprintf(stderr, "[check] all hybrid floors met\n");
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
        "Heterogeneous-volume benchmark: a flash-mirror tier "
        "fronting PDDL rotating disks vs homogeneous configurations "
        "of equal hardware cost, under hot-spot traffic (rows are "
        "bit-identical for every --threads value).",
        bench::kObserved | bench::kScenario);
    cli.addBool("check",
                "enforce CI floors (equal cost budgets; the hybrid "
                "beats every capacity-feasible homogeneous config on "
                "mean and p99) and exit 1 on regression");
    cli.parseOrExit(argc, argv);
    bench::options().deterministic_json = true;

    const ScenarioSpec base = baseSpec();

    std::vector<Row> rows;
    for (const HybridConfig &config : configurations()) {
        for (bool write_heavy : {true, false}) {
            ScenarioSpec spec = base;
            spec.shards = config.shards;
            spec.allocation = config.allocation;
            bench::applyTrafficMix(spec, write_heavy);
            Row row;
            row.feasible = config.feasible;
            row.scenario = bench::compiled(spec, config.name);
            row.label = config.name + "/" +
                        (write_heavy ? "write-heavy" : "read-heavy");
            rows.push_back(std::move(row));
        }
    }

    std::vector<harness::Experiment> experiments;
    for (const Row &row : rows) {
        const ScenarioSpec &spec = row.scenario->spec();
        const bool write_heavy = !spec.mix.empty() && spec.mix.front().write;
        experiments.push_back(bench::scenarioExperiment(
            {"Hybrid", row.label, 8, static_cast<int>(spec.arrivals_per_s),
             write_heavy ? AccessType::Write : AccessType::Read,
             ArrayMode::FaultFree},
            *row.scenario,
            // Tails, volume shape and how the tiering split the
            // traffic.
            {.extras = [feasible = row.feasible](
                           const ScenarioSpec &,
                           const tune::ScenarioOutcome &outcome,
                           harness::Extras &extras) {
                extras.emplace_back("p50_ms", outcome.p50_ms);
                extras.emplace_back("p95_ms", outcome.p95_ms);
                extras.emplace_back("p99_ms", outcome.p99_ms);
                extras.emplace_back("p999_ms", outcome.p999_ms);
                extras.emplace_back("max_outstanding",
                                    outcome.max_outstanding);
                extras.emplace_back("cost_units", outcome.cost_units);
                extras.emplace_back(
                    "capacity_units",
                    static_cast<double>(outcome.capacity_units));
                extras.emplace_back("feasible", feasible ? 1.0 : 0.0);
                for (size_t s = 0; s < outcome.shard_accesses.size();
                     ++s) {
                    extras.emplace_back(
                        "shard" + std::to_string(s) + "_accesses",
                        static_cast<double>(outcome.shard_accesses[s]));
                }
            }}));
    }

    harness::RunSummary summary = bench::runGrid(
        "Hybrid",
        "Mixed-tier vs homogeneous volumes at equal cost: hot-spot "
        "traffic, write-heavy and read-heavy mixes "
        "(p50/p95/p99/p99.9 ms)",
        experiments);

    std::printf("Heterogeneous volumes at equal cost\n");
    std::printf("%-24s %8s %8s %8s %8s %8s %10s %6s\n",
                "configuration", "req/s", "p50", "p95", "p99",
                "p99.9", "capacity", "cost");
    bench::printRule(9);
    for (const harness::PointResult &point : summary.points) {
        std::printf("%-24s %8.1f %8.2f %8.2f %8.2f %8.2f %10.0f "
                    "%6.1f%s\n",
                    point.point.layout.c_str(),
                    point.result.throughput_per_s,
                    extra(point, "p50_ms"), extra(point, "p95_ms"),
                    extra(point, "p99_ms"), extra(point, "p999_ms"),
                    extra(point, "capacity_units"),
                    extra(point, "cost_units"),
                    extra(point, "feasible") != 0.0
                        ? ""
                        : "  (capacity-infeasible)");
    }

    if (cli.getBool("check"))
        return checkFloors(summary);
    return 0;
}
