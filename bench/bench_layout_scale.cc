/**
 * @file
 * dRAID-scale layout quality: imbalance-vs-n curves and the
 * incremental-evaluator perf story.
 *
 * Sweeps the array size into the hundreds and scores every family
 * the registry can construct there with the ImbalanceEvaluator's
 * worst/mean/RMS rebuild-read imbalance for single- and double-fault
 * cases:
 *
 *  - pddl: the paper's construction (Bose primes, k = 8, one spare);
 *  - draid_random: best of C seeded developed-random-rows maps (the
 *    ZFS dRAID approach), same shapes plus a two-spare family;
 *  - draid_derand: the parallel seeded derandomization search started
 *    from those same C seeds (core/layout_search.hh);
 *  - tdesign: the boolean Steiner quadruple system where
 *    constructible (power-of-two n, k = 4), with a width-matched
 *    draid pair alongside.
 *
 * Every row is a pure function of the grid identity -- scoring walks
 * layout tables and integer tallies, no simulation -- so
 * BENCH_layout_scale.json is byte-identical at every --threads value
 * (deterministic_json strips the host-wall fields). The host-timed
 * perf leg (O(k) incremental swap deltas vs whole-map recompute at
 * n = 258) prints to stderr only and backs --check, which also
 * enforces bit-exact incremental-vs-audit agreement and that
 * derandomization strictly improves the worst-case single-fault
 * imbalance over its best raw seed at every swept n.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/imbalance.hh"
#include "core/layout_search.hh"
#include "core/pddl_layout.hh"
#include "layout/developed_random.hh"
#include "layout/tdesign.hh"
#include "util/rng.hh"

namespace pddl {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Master seed of one swept shape; shared by the draid_random point
 *  and the derandomization baseline so both see the same raw maps. */
uint64_t
shapeSeed(int n, int k, int spares)
{
    return hashMix64(static_cast<uint64_t>(n) << 32 |
                         static_cast<uint64_t>(k) << 16 |
                         static_cast<uint64_t>(spares),
                     0x4c61796f75745363ULL); // "LayoutSc"
}

/** Independent seeded chains per shape (dRAID's "candidate seeds"). */
constexpr int kChains = 4;

/** Search depth: candidate transpositions per chain. */
int64_t
movesFor(int n)
{
    return 24LL * n * n;
}

/** Score one evaluator into the row's extras. */
SimResult
score(const ImbalanceEvaluator &eval, harness::Extras &extras)
{
    const ImbalanceMetrics one = eval.metrics(1);
    const ImbalanceMetrics two = eval.metrics(2);
    extras.emplace_back("disks", eval.disks());
    extras.emplace_back("groups",
                        static_cast<double>(eval.groupCount()));
    extras.emplace_back("cost", static_cast<double>(eval.cost()));
    extras.emplace_back("worst1", one.worst);
    extras.emplace_back("mean1", one.mean);
    extras.emplace_back("rms1", one.rms);
    extras.emplace_back("worst2", two.worst);
    extras.emplace_back("mean2", two.mean);
    extras.emplace_back("rms2", two.rms);
    SimResult result;
    result.samples = one.cases + two.cases;
    return result;
}

/** One swept shape of the draid family. */
struct Shape
{
    int n;
    int k;
    int spares;
};

std::string
seriesLabel(const char *series, const Shape &shape)
{
    return std::string(series) + "/s" +
           std::to_string(shape.spares) + "/n" +
           std::to_string(shape.n);
}

/** draid_random + draid_derand experiments for one shape. */
void
addDraidPoints(std::vector<harness::Experiment> &experiments,
               const Shape &shape)
{
    for (bool derand : {false, true}) {
        harness::Experiment experiment;
        experiment.point = {"LayoutScale",
                            seriesLabel(derand ? "draid_derand"
                                               : "draid_random",
                                        shape),
                            shape.n, shape.spares, AccessType::Read,
                            ArrayMode::Degraded};
        experiment.run = [shape, derand](uint64_t, const obs::Probe &,
                                         harness::Extras &extras) {
            LayoutSearchOptions opt;
            opt.chains = kChains;
            opt.moves = derand ? movesFor(shape.n) : 0;
            opt.seed = shapeSeed(shape.n, shape.k, shape.spares);
            LayoutSearchResult search = searchDevelopedRows(
                shape.n, shape.k, shape.spares, shape.n, opt);
            ImbalanceEvaluator eval{search.best};
            SimResult result = score(eval, extras);
            extras.emplace_back("raw_worst1", search.best_raw_worst1);
            extras.emplace_back(
                "raw_cost",
                static_cast<double>(search.best_raw_cost));
            extras.emplace_back("chains", kChains);
            extras.emplace_back("moves",
                                static_cast<double>(opt.moves));
            extras.emplace_back(
                "accepted",
                static_cast<double>(
                    search.chains[search.best_chain].accepted));
            return result;
        };
        experiments.push_back(std::move(experiment));
    }
}

/** Whole-layout scoring experiment (pddl / tdesign curves). */
void
addLayoutPoint(std::vector<harness::Experiment> &experiments,
               const char *series, const Shape &shape,
               std::function<std::unique_ptr<Layout>()> build)
{
    harness::Experiment experiment;
    experiment.point = {"LayoutScale", seriesLabel(series, shape),
                        shape.n, shape.spares, AccessType::Read,
                        ArrayMode::Degraded};
    experiment.run = [build = std::move(build)](
                         uint64_t, const obs::Probe &,
                         harness::Extras &extras) {
        std::unique_ptr<Layout> layout = build();
        ImbalanceEvaluator eval =
            ImbalanceEvaluator::forLayout(*layout);
        return score(eval, extras);
    };
    experiments.push_back(std::move(experiment));
}

/**
 * The --check perf + exactness leg, measured outside the grid so the
 * JSON rows stay host-independent. @return failures.
 */
int
checkEvaluator(bool enforce)
{
    const int n = 258, k = 8, spares = 2;
    const uint64_t seed = shapeSeed(n, k, spares);
    ImbalanceEvaluator eval(
        randomDevelopedRows(n, k, spares, n, seed));
    int failures = 0;

    // Exactness: a mixed accept/reject random walk must keep the
    // incremental cost bit-identical to the from-scratch audit.
    Rng walk(hashMix64(seed, 0xa0d17));
    for (int step = 0; step < 4000; ++step) {
        const int row = static_cast<int>(
            walk.below(static_cast<uint64_t>(n)));
        const int a =
            static_cast<int>(walk.below(static_cast<uint64_t>(n)));
        int b = static_cast<int>(
            walk.below(static_cast<uint64_t>(n - 1)));
        if (b >= a)
            ++b;
        const int64_t before = eval.cost();
        eval.applySwap(row, a, b);
        if (walk.below(2) == 0 && eval.cost() > before)
            eval.applySwap(row, a, b);
        if (step % 1000 == 999 &&
            eval.cost() != eval.recomputeCost()) {
            std::fprintf(stderr,
                         "[check] FAIL incremental cost %" PRId64
                         " != audit %" PRId64 " after %d steps\n",
                         eval.cost(), eval.recomputeCost(), step + 1);
            ++failures;
        }
    }
    if (eval.cost() != eval.recomputeCost()) {
        std::fprintf(stderr,
                     "[check] FAIL final incremental cost diverged "
                     "from audit\n");
        ++failures;
    }

    // Perf: candidate evaluation via O(k) delta (apply, read cost,
    // revert) vs the O(rows * n * k) whole-map retally every
    // candidate used to pay.
    Rng perf(hashMix64(seed, 0x9e7f));
    int64_t sink = 0;
    const int incr_ops = 200000;
    const auto incr_start = Clock::now();
    for (int op = 0; op < incr_ops; ++op) {
        const int row = static_cast<int>(
            perf.below(static_cast<uint64_t>(n)));
        const int a =
            static_cast<int>(perf.below(static_cast<uint64_t>(n)));
        int b = static_cast<int>(
            perf.below(static_cast<uint64_t>(n - 1)));
        if (b >= a)
            ++b;
        eval.applySwap(row, a, b);
        sink += eval.cost();
        eval.applySwap(row, a, b);
    }
    const double incr_ns =
        secondsSince(incr_start) * 1e9 / incr_ops;

    const int full_ops = 200;
    const auto full_start = Clock::now();
    for (int op = 0; op < full_ops; ++op)
        sink += eval.recomputeCost();
    const double full_ns =
        secondsSince(full_start) * 1e9 / full_ops;

    const double speedup = full_ns / incr_ns;
    std::fprintf(stderr,
                 "[perf] n=%d: incremental candidate %.0f ns, full "
                 "recompute %.0f ns, speedup %.0fx (sink %d)\n",
                 n, incr_ns, full_ns, speedup,
                 static_cast<int>(sink & 0xff));
    if (enforce && speedup < 10.0) {
        std::fprintf(stderr,
                     "[check] FAIL incremental speedup %.1fx below "
                     "10x floor at n=%d\n",
                     speedup, n);
        ++failures;
    }
    return failures;
}

/** Derandomization must strictly beat its best raw seed everywhere. */
int
checkDerandImproves(const harness::RunSummary &summary)
{
    int failures = 0;
    for (const harness::PointResult &point : summary.points) {
        if (point.point.layout.rfind("draid_derand", 0) != 0)
            continue;
        const double worst1 = bench::extra(point, "worst1");
        const double raw_worst1 = bench::extra(point, "raw_worst1");
        if (!(worst1 < raw_worst1)) {
            std::fprintf(stderr,
                         "[check] FAIL %s: derandomized worst1 %.4f "
                         "does not improve on best raw seed %.4f\n",
                         point.point.layout.c_str(), worst1,
                         raw_worst1);
            ++failures;
        }
    }
    if (failures == 0)
        std::fprintf(stderr,
                     "[check] derandomization strictly improves "
                     "worst1 at every swept n\n");
    return failures;
}

} // namespace
} // namespace pddl

int
main(int argc, char **argv)
{
    using namespace pddl;

    bench::BenchCli cli(
        argv[0],
        "dRAID-scale layout quality: single/double-fault rebuild "
        "imbalance vs array size for PDDL, developed-random rows, "
        "derandomized-random and t-design layouts. Rows are exact "
        "integer tallies -- BENCH_layout_scale.json is byte-identical "
        "at every --threads value.",
        bench::kGrid);
    cli.addBool("check",
                "verify incremental deltas match the full-recompute "
                "audit bit-for-bit, enforce the 10x candidate-"
                "evaluation speedup at n >= 200, and require "
                "derandomization to strictly improve worst-case "
                "imbalance over the best raw seed at every n");
    cli.parseOrExit(argc, argv);
    // Rows carry no host timing: keep the JSON bit-stable.
    bench::options().deterministic_json = true;

    std::vector<harness::Experiment> experiments;

    // Power-of-two sizes, k = 4: the t-design baseline plus a
    // width-matched unspared draid pair.
    for (int n : {8, 16, 32}) {
        const Shape shape{n, 4, 0};
        addLayoutPoint(experiments, "tdesign", shape, [n] {
            return std::make_unique<TDesignLayout>(n);
        });
        addDraidPoints(experiments, shape);
    }

    // Bose primes (n = 8g + 1), k = 8, one distributed spare: the
    // paper's construction against draid at identical shapes.
    for (int n : {41, 89, 233}) {
        const Shape shape{n, 8, 1};
        addLayoutPoint(experiments, "pddl", shape, [n] {
            return std::make_unique<PddlLayout>(
                PddlLayout::make(n, 8));
        });
        addDraidPoints(experiments, shape);
    }

    // Multiple spares, n into the hundreds: beyond every
    // combinatorial construction in the registry.
    for (int n : {66, 130, 258})
        addDraidPoints(experiments, Shape{n, 8, 2});

    harness::RunSummary summary = bench::runGrid(
        "layout_scale",
        "Rebuild-read imbalance (worst/mean/RMS, single and double "
        "fault) vs array size: PDDL, dRAID developed-random rows, "
        "derandomized-random, t-design",
        experiments);

    std::printf("Layout quality at scale\n");
    std::printf("%-24s %6s %8s %8s %8s %8s %10s\n", "series", "n",
                "worst1", "rms1", "worst2", "rms2", "cost");
    bench::printRule(8);
    for (const harness::PointResult &point : summary.points) {
        std::printf("%-24s %6d %8.4f %8.4f %8.4f %8.4f %10.0f\n",
                    point.point.layout.c_str(), point.point.size_kb,
                    bench::extra(point, "worst1"),
                    bench::extra(point, "rms1"),
                    bench::extra(point, "worst2"),
                    bench::extra(point, "rms2"),
                    bench::extra(point, "cost"));
    }

    const bool check = cli.getBool("check");
    int failures = checkEvaluator(check);
    if (check) {
        failures += checkDerandImproves(summary);
        if (failures == 0)
            std::fprintf(stderr, "[check] all layout-scale checks "
                                 "passed\n");
        return failures == 0 ? 0 : 1;
    }
    return 0;
}
