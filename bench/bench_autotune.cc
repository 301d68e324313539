/**
 * @file
 * Self-tuning benchmark: anneal a ScenarioSpec's knob space against
 * the write-heavy SLO scenario and verify the winner generalizes.
 *
 * The baseline is the hand-picked configuration the traffic bench
 * ships (2-shard PDDL volume, write-back tier at the 0.10/0.05
 * watermarks, 8 KB stripe units): src/tune anneals layout family and
 * seed, stripe-unit size, chunk size, placement, SSTF window, cache
 * watermarks/geometry/size (capped at the baseline budget) and
 * rebuild aggressiveness on a *training* workload, then both configs
 * are scored on a *held-out* workload the tuner never saw (shifted
 * write mix, MMPP arrivals, fresh seeds).
 *
 * Rows in BENCH_autotune.json -- baseline/tuned on train/held-out,
 * plus one summary row per annealing chain -- are pure functions of
 * simulated history and fixed protocol seeds, so the file is
 * byte-identical for every --threads value; CI diffs the raw files.
 *
 * --out <file> dumps the winning configuration as a self-contained
 * pddl-autotune-v1 JSON: the full held-out scenario plus the
 * protocol seeds and the recorded objective. --replay <file> re-runs
 * such a dump from the file alone and exits 0 only when the
 * objective reproduces bit-for-bit -- the claim that the scenario
 * API serializes everything that matters.
 *
 * --check enforces the CI floors: the tuned configuration must
 * strictly beat the baseline on the held-out workload, and the
 * dump/parse/re-run loop must reproduce the recorded objective
 * exactly.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "tune/scenario_runner.hh"
#include "tune/tuner.hh"
#include "util/json.hh"

namespace pddl {
namespace {

/** Protocol seeds: training is what the tuner optimizes against. */
const std::vector<uint64_t> kTrainSeeds = {0x7e57a1u};
const std::vector<uint64_t> kHoldoutSeeds = {0xAB5EEDu, 0xAB5EEEu};

/**
 * The hand-picked default the traffic bench's SLO panel runs: the
 * zipf write-heavy scenario over the cached 2-shard PDDL volume.
 */
ScenarioSpec
baselineSpec()
{
    ScenarioSpec spec;
    spec.shards.assign(2, ScenarioShard{});
    spec.chunk_units = 8;
    spec.dispatch_ms = 2.0;
    spec.arrivals_per_s = 100.0;
    spec.offsets = "zipf:0.99";
    // Training traffic is moderately bursty: knobs that only matter
    // under load spikes (watermarks, destage width) are invisible
    // under pure Poisson, and the held-out workload bursts harder.
    spec.arrival = "mmpp:4,1200,400";
    spec.mix = {{8, true, 0.60},
                {32, true, 0.10},
                {8, false, 0.25},
                {32, false, 0.05}};
    spec.cache_enabled = true;
    // The traffic bench's tier: 4096 lines of 8 KB = 32 MB, tight
    // 0.10/0.05 watermarks.
    spec.cache_kb = 32768;
    spec.cache_high = 0.10;
    spec.cache_low = 0.05;
    spec.samples = bench::fullFidelity() ? 4000 : 1200;
    spec.warmup = bench::fullFidelity() ? 1500 : 600;
    return bench::normalized(spec);
}

/**
 * The held-out workload: same volume and tier question, but a
 * shifted write mix, bursty MMPP arrivals and fresh seeds -- knobs
 * that only overfit the training run do not survive this.
 */
ScenarioSpec
holdoutVariant(const ScenarioSpec &spec)
{
    ScenarioSpec held = spec;
    held.mix = {{8, true, 0.55},
                {32, true, 0.15},
                {8, false, 0.25},
                {32, false, 0.05}};
    held.arrival = "mmpp:6,1500,500";
    held.samples = bench::fullFidelity() ? 4000 : 1600;
    held.warmup = bench::fullFidelity() ? 1500 : 600;
    return bench::normalized(held);
}

/** Score a spec on the held-out protocol (spec carries its budget). */
double
holdoutObjective(const ScenarioSpec &spec, tune::Objective objective)
{
    return tune::evaluateScenario(holdoutVariant(spec), kHoldoutSeeds,
                                  objective, 0, -1);
}

/** The pddl-autotune-v1 winner document (self-contained replay). */
Json
winnerJson(const ScenarioSpec &tuned, tune::Objective objective,
           double tuned_holdout, double baseline_holdout,
           double tuned_train, double baseline_train)
{
    Json seeds = Json::array();
    for (uint64_t seed : kHoldoutSeeds)
        seeds.push(Json(static_cast<int64_t>(seed)));
    Json doc = Json::object();
    doc.set("schema", "pddl-autotune-v1")
        .set("objective", tune::objectiveName(objective))
        .set("seeds", std::move(seeds))
        .set("objective_value", tuned_holdout)
        .set("baseline_value", baseline_holdout)
        .set("train_value", tuned_train)
        .set("baseline_train_value", baseline_train)
        // The full held-out scenario, budget included: --replay
        // needs nothing but this file.
        .set("scenario", holdoutVariant(tuned).toJson());
    return doc;
}

/**
 * Re-run a pddl-autotune-v1 document from its text alone: its
 * scenario, seeds and objective. @return false, with `error` set,
 * when the text is not such a document.
 */
bool
replayDocument(const std::string &text, double &replayed,
               double &recorded, std::string &error)
{
    Json doc;
    if (!Json::parse(text, doc, error))
        return false;
    const Json *schema = doc.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->asString() != "pddl-autotune-v1") {
        error = "not a pddl-autotune-v1 document";
        return false;
    }
    const Json *scenario = doc.find("scenario");
    const Json *seeds = doc.find("seeds");
    const Json *objective_name = doc.find("objective");
    const Json *value = doc.find("objective_value");
    if (scenario == nullptr || seeds == nullptr ||
        !seeds->isArray() || objective_name == nullptr ||
        !objective_name->isString() || value == nullptr ||
        !value->isNumber()) {
        error = "missing scenario/seeds/objective fields";
        return false;
    }
    ScenarioSpec spec;
    if (!ScenarioSpec::fromJson(*scenario, spec, error)) {
        error = "scenario: " + error;
        return false;
    }
    tune::Objective objective;
    if (!tune::parseObjective(objective_name->asString(), objective,
                              error)) {
        error = "objective: " + error;
        return false;
    }
    std::vector<uint64_t> seed_list;
    for (size_t i = 0; i < seeds->size(); ++i)
        seed_list.push_back(
            static_cast<uint64_t>(seeds->at(i).asInt()));
    replayed = tune::evaluateScenario(spec, seed_list, objective, 0, -1);
    recorded = value->asDouble();
    return true;
}

/**
 * --replay: re-run a dump from the file alone and compare the
 * objective bit-for-bit. @return process exit code.
 */
int
replayWinner(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "[replay] cannot read %s\n",
                     path.c_str());
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    double replayed = 0.0, want = 0.0;
    std::string error;
    if (!replayDocument(text.str(), replayed, want, error)) {
        std::fprintf(stderr, "[replay] %s: %s\n", path.c_str(),
                     error.c_str());
        return 2;
    }
    const bool match = replayed == want;
    std::printf("replay objective %.17g recorded %.17g %s\n",
                replayed, want, match ? "MATCH" : "MISMATCH");
    return match ? 0 : 1;
}

/** A train/held-out row's extras: the objective and its inputs. */
void
rowExtras(const tune::ScenarioOutcome &outcome, tune::Objective objective,
          harness::Extras &extras)
{
    extras.emplace_back("objective",
                        tune::objectiveOf(outcome, objective));
    extras.emplace_back("p50_ms", outcome.p50_ms);
    extras.emplace_back("p95_ms", outcome.p95_ms);
    extras.emplace_back("p99_ms", outcome.p99_ms);
    extras.emplace_back("p999_ms", outcome.p999_ms);
    extras.emplace_back("hit_rate", outcome.hit_rate);
    extras.emplace_back("write_stalls",
                        static_cast<double>(outcome.write_stalls));
    extras.emplace_back("stalled_end",
                        static_cast<double>(outcome.stalled_end));
    extras.emplace_back("data_loss", outcome.data_loss ? 1.0 : 0.0);
    extras.emplace_back("max_outstanding", outcome.max_outstanding);
}

} // namespace
} // namespace pddl

int
main(int argc, char **argv)
{
    using namespace pddl;

    bench::BenchCli cli(
        argv[0],
        "Self-tuning scenario search: anneal layout, striping, "
        "placement and cache knobs from the hand-picked traffic "
        "defaults, then verify the winner on a held-out workload "
        "(rows are bit-identical for every --threads value).",
        bench::kObserved);
    cli.addInt("chains", "n", "independent annealing chains", 1);
    cli.addInt("moves", "n", "mutation attempts per chain", 1);
    cli.addString("objective", "kind",
                  "what the tuner minimizes: p99 (default), p999, "
                  "p95 or mean",
                  [](const std::string &value) {
                      tune::Objective objective;
                      std::string error;
                      return tune::parseObjective(value, objective,
                                                  error)
                                 ? std::string()
                                 : error;
                  });
    cli.addString("out", "file",
                  "dump the winning configuration as a "
                  "self-contained pddl-autotune-v1 JSON");
    cli.addString("replay", "file",
                  "re-run a pddl-autotune-v1 dump from the file "
                  "alone and require the recorded objective to "
                  "reproduce bit-for-bit");
    cli.addBool("check",
                "enforce CI floors (tuned strictly beats the "
                "baseline on the held-out workload; dump/parse/"
                "re-run reproduces the recorded objective exactly) "
                "and exit 1 on regression");
    cli.parseOrExit(argc, argv);
    bench::options().deterministic_json = true;

    if (cli.has("replay"))
        return replayWinner(cli.getString("replay"));

    tune::Objective objective = tune::Objective::P99;
    if (cli.has("objective")) {
        std::string error;
        tune::parseObjective(cli.getString("objective"), objective,
                             error);
    }

    const ScenarioSpec baseline = baselineSpec();

    tune::TuneOptions toptions;
    toptions.chains = static_cast<int>(cli.getInt("chains", 4));
    toptions.moves = static_cast<int>(
        cli.getInt("moves", bench::fullFidelity() ? 16 : 10));
    toptions.seed = 0xA070u;
    toptions.threads = bench::options().threads;
    toptions.objective = objective;
    toptions.eval_seeds = kTrainSeeds;

    const tune::TuneResult tuned = tune::tune(baseline, toptions);

    const double baseline_holdout =
        holdoutObjective(baseline, objective);
    const double tuned_holdout =
        holdoutObjective(tuned.best, objective);

    // The JSON rows: train and held-out panels for both configs
    // (fixed protocol seeds, never the harness seed), plus one
    // summary row per chain. Everything is simulated or derived
    // from the deterministic search, so the file is byte-identical
    // across --threads.
    std::vector<harness::Experiment> experiments;
    struct Row
    {
        std::string label;
        const ScenarioSpec *spec;
        bool holdout;
    };
    const ScenarioSpec baseline_held = holdoutVariant(baseline);
    const ScenarioSpec tuned_held = holdoutVariant(tuned.best);
    const std::vector<Row> rows = {
        {"baseline/train", &baseline, false},
        {"tuned/train", &tuned.best, false},
        {"baseline/holdout", &baseline_held, true},
        {"tuned/holdout", &tuned_held, true},
    };
    for (const Row &row : rows) {
        experiments.push_back(bench::scenarioExperiment(
            {"Autotune", row.label, 8, 100, AccessType::Write,
             ArrayMode::FaultFree},
            *row.spec,
            {.extras =
                 [objective](const ScenarioSpec &,
                             const tune::ScenarioOutcome &outcome,
                             harness::Extras &extras) {
                     rowExtras(outcome, objective, extras);
                 },
             .seed = row.holdout ? kHoldoutSeeds[0] : kTrainSeeds[0]}));
    }
    for (const tune::TuneChain &chain : tuned.chains) {
        harness::Experiment experiment;
        experiment.point = {"Autotune",
                            "chain/" + std::to_string(chain.chain), 8,
                            100, AccessType::Write,
                            ArrayMode::FaultFree};
        const tune::TuneChain *stats = &chain;
        experiment.run = [stats](uint64_t, const obs::Probe &,
                                 harness::Extras &extras) {
            extras.emplace_back("best_objective",
                                stats->best_objective);
            extras.emplace_back("evaluated", stats->evaluated);
            extras.emplace_back("memo_hits", stats->memo_hits);
            extras.emplace_back("accepted", stats->accepted);
            extras.emplace_back("surrogate_rejects",
                                stats->surrogate_rejects);
            extras.emplace_back("invalid_moves",
                                stats->invalid_moves);
            return SimResult{};
        };
        experiments.push_back(std::move(experiment));
    }

    harness::RunSummary summary = bench::runGrid(
        "Autotune",
        "Annealed configuration search vs the hand-picked default: "
        "training and held-out objectives (lower is better)",
        experiments);

    std::printf("Autotune (%s objective, %d chains x %d moves, %d "
                "evaluations)\n",
                tune::objectiveName(objective), toptions.chains,
                toptions.moves, tuned.evaluations);
    std::printf("%-20s %12s %10s %10s %10s %8s\n", "config",
                "objective", "p99", "mean", "hit", "stalls");
    bench::printRule(8);
    for (const harness::PointResult &point : summary.points) {
        if (point.point.layout.rfind("chain/", 0) == 0)
            continue;
        std::printf("%-20s %12.3f %10.2f %10.2f %10.3f %8.0f\n",
                    point.point.layout.c_str(),
                    bench::extra(point, "objective"),
                    bench::extra(point, "p99_ms"),
                    point.result.mean_response_ms,
                    bench::extra(point, "hit_rate"),
                    bench::extra(point, "write_stalls"));
    }
    std::printf("\ntuned scenario: %s\n",
                tuned.best.describe().c_str());
    std::printf("train: baseline %.3f -> tuned %.3f; held-out: "
                "baseline %.3f -> tuned %.3f\n",
                tuned.baseline_objective, tuned.best_objective,
                baseline_holdout, tuned_holdout);

    const Json winner =
        winnerJson(tuned.best, objective, tuned_holdout,
                   baseline_holdout, tuned.best_objective,
                   tuned.baseline_objective);
    if (cli.has("out")) {
        const std::string path = cli.getString("out");
        std::ofstream out(path, std::ios::trunc);
        if (out) {
            out << winner.dump(2);
            std::fprintf(stderr, "[Autotune] wrote %s\n",
                         path.c_str());
        } else {
            std::fprintf(stderr, "[Autotune] cannot write %s\n",
                         path.c_str());
            return 2;
        }
    }

    if (cli.getBool("check")) {
        int failures = 0;
        if (!(tuned_holdout < baseline_holdout)) {
            std::fprintf(stderr,
                         "[check] FAIL held-out: tuned %.3f does not "
                         "beat baseline %.3f\n",
                         tuned_holdout, baseline_holdout);
            ++failures;
        } else {
            std::fprintf(stderr,
                         "[check] held-out: tuned %.3f beats "
                         "baseline %.3f\n",
                         tuned_holdout, baseline_holdout);
        }
        // The serialization loop: dump -> parse -> re-run must land
        // on the recorded objective bit-for-bit, from the document
        // alone, through the same path as --replay.
        double replayed = 0.0, recorded = 0.0;
        std::string error;
        if (!replayDocument(winner.dump(2), replayed, recorded, error)) {
            std::fprintf(stderr, "[check] FAIL round-trip: %s\n",
                         error.c_str());
            ++failures;
        } else if (replayed == recorded) {
            std::fprintf(stderr,
                         "[check] replay from JSON reproduces "
                         "%.17g\n",
                         replayed);
        } else {
            std::fprintf(stderr,
                         "[check] FAIL replay: %.17g != recorded "
                         "%.17g\n",
                         replayed, recorded);
            ++failures;
        }
        if (failures == 0)
            std::fprintf(stderr, "[check] all autotune floors met\n");
        return failures == 0 ? 0 : 1;
    }
    return 0;
}
