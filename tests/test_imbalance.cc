/**
 * @file
 * Tests for the rebuild-imbalance evaluator and the derandomization
 * search: the O(k) incremental swap deltas against the from-scratch
 * audit (bit-for-bit, across shapes and random walks), the tallies
 * and metrics against naive counting, thread-count determinism of
 * the seeded search, the developed-random-rows layout contract, and
 * the boolean Steiner quadruple system's 3-design properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "core/imbalance.hh"
#include "core/layout_search.hh"
#include "harness/parallel_for.hh"
#include "layout/bibd.hh"
#include "layout/developed_random.hh"
#include "layout/tdesign.hh"
#include "util/rng.hh"

namespace pddl {
namespace {

/** Shapes swept by the cross-check tests: with and without spares,
 *  single and multiple, k = n - spares and smaller. */
const struct MapShape
{
    int n, k, spares, rows;
} kShapes[] = {
    {13, 4, 1, 13},
    {12, 4, 0, 9},
    {26, 8, 2, 11},
    {21, 5, 1, 21},
};

/** All stripe groups of a map, each a k-disk slice of a row. */
std::vector<std::vector<int>>
naiveGroups(const DevelopedRows &map)
{
    std::vector<std::vector<int>> groups;
    for (const std::vector<int> &row : map.rows) {
        for (int g = 0; g < map.groupsPerRow(); ++g) {
            groups.emplace_back(row.begin() + map.spares +
                                    g * map.k,
                                row.begin() + map.spares +
                                    (g + 1) * map.k);
        }
    }
    return groups;
}

/** Naive cost: sum of squared pair counts + squared group counts. */
int64_t
naiveCost(const DevelopedRows &map)
{
    const int n = map.n;
    std::vector<int64_t> pair(static_cast<size_t>(n) * n, 0);
    std::vector<int64_t> count(n, 0);
    for (const std::vector<int> &group : naiveGroups(map)) {
        for (int a : group) {
            ++count[a];
            for (int b : group) {
                if (a != b)
                    ++pair[static_cast<size_t>(a) * n + b];
            }
        }
    }
    int64_t cost = 0;
    for (int64_t p : pair)
        cost += p * p;
    for (int64_t c : count)
        cost += c * c;
    return cost;
}

/** Naive single-fault tally: survivors read once per shared group. */
std::vector<int64_t>
naiveSingle(const DevelopedRows &map, int failed)
{
    std::vector<int64_t> reads(map.n, 0);
    for (const std::vector<int> &group : naiveGroups(map)) {
        if (std::find(group.begin(), group.end(), failed) ==
            group.end())
            continue;
        for (int d : group) {
            if (d != failed)
                ++reads[d];
        }
    }
    return reads;
}

/** Naive double-fault tally: one joint pass per damaged group. */
std::vector<int64_t>
naiveDouble(const DevelopedRows &map, int f1, int f2)
{
    std::vector<int64_t> reads(map.n, 0);
    for (const std::vector<int> &group : naiveGroups(map)) {
        bool hit = false;
        for (int d : group)
            hit = hit || d == f1 || d == f2;
        if (!hit)
            continue;
        for (int d : group) {
            if (d != f1 && d != f2)
                ++reads[d];
        }
    }
    return reads;
}

/** The evaluator's per-case ratio fold, replicated naively. */
void
foldRatio(const std::vector<int64_t> &reads, int survivors,
          double &worst, double &sum, double &sum_sq)
{
    int64_t max = 0, total = 0;
    for (int64_t r : reads) {
        max = std::max(max, r);
        total += r;
    }
    const double ratio =
        total == 0 ? 1.0
                   : static_cast<double>(max) * survivors /
                         static_cast<double>(total);
    worst = std::max(worst, ratio);
    sum += ratio;
    sum_sq += ratio * ratio;
}

TEST(ImbalanceEvaluator, TalliesAndCostMatchNaiveCounting)
{
    for (const MapShape &s : kShapes) {
        DevelopedRows map = randomDevelopedRows(
            s.n, s.k, s.spares, s.rows, /*seed=*/99 + s.n);
        ImbalanceEvaluator eval(map);
        EXPECT_EQ(eval.cost(), naiveCost(map));
        EXPECT_EQ(eval.cost(), eval.recomputeCost());
        EXPECT_EQ(eval.groupCount(),
                  static_cast<int64_t>(s.rows) *
                      map.groupsPerRow());
        for (int f = 0; f < s.n; ++f)
            EXPECT_EQ(eval.singleFaultTally(f), naiveSingle(map, f));
        for (int f1 = 0; f1 < s.n; ++f1) {
            for (int f2 = f1 + 1; f2 < s.n; ++f2) {
                EXPECT_EQ(eval.doubleFaultTally(f1, f2),
                          naiveDouble(map, f1, f2));
            }
        }
    }
}

TEST(ImbalanceEvaluator, MetricsMatchNaiveFold)
{
    for (const MapShape &s : kShapes) {
        DevelopedRows map = randomDevelopedRows(
            s.n, s.k, s.spares, s.rows, /*seed=*/7 + s.n);
        ImbalanceEvaluator eval(map);

        double worst = 0, sum = 0, sum_sq = 0;
        for (int f = 0; f < s.n; ++f)
            foldRatio(naiveSingle(map, f), s.n - 1, worst, sum,
                      sum_sq);
        ImbalanceMetrics one = eval.metrics(1);
        EXPECT_EQ(one.cases, s.n);
        EXPECT_NEAR(one.worst, worst, 1e-12);
        EXPECT_NEAR(one.mean, sum / s.n, 1e-12);
        EXPECT_NEAR(one.rms, std::sqrt(sum_sq / s.n), 1e-12);

        worst = sum = sum_sq = 0;
        int64_t cases = 0;
        for (int f1 = 0; f1 < s.n; ++f1) {
            for (int f2 = f1 + 1; f2 < s.n; ++f2) {
                foldRatio(naiveDouble(map, f1, f2), s.n - 2, worst,
                          sum, sum_sq);
                ++cases;
            }
        }
        ImbalanceMetrics two = eval.metrics(2);
        EXPECT_EQ(two.cases, cases);
        EXPECT_NEAR(two.worst, worst, 1e-12);
        EXPECT_NEAR(two.mean, sum / cases, 1e-12);
        EXPECT_NEAR(two.rms, std::sqrt(sum_sq / cases), 1e-12);
    }
}

TEST(ImbalanceEvaluator, IncrementalSwapsMatchAuditBitForBit)
{
    // A mixed random walk of transpositions; the incremental cost
    // must equal both the recompute audit and the naive tally after
    // every single step, on every shape.
    for (const MapShape &s : kShapes) {
        ImbalanceEvaluator eval(randomDevelopedRows(
            s.n, s.k, s.spares, s.rows, /*seed=*/41 + s.n));
        Rng rng(hashMix64(s.n, 0xabcdef));
        for (int step = 0; step < 300; ++step) {
            const int row = static_cast<int>(
                rng.below(static_cast<uint64_t>(s.rows)));
            const int a = static_cast<int>(
                rng.below(static_cast<uint64_t>(s.n)));
            int b = static_cast<int>(
                rng.below(static_cast<uint64_t>(s.n - 1)));
            if (b >= a)
                ++b;
            const int64_t before = eval.cost();
            eval.applySwap(row, a, b);
            ASSERT_EQ(eval.cost(), eval.recomputeCost())
                << "shape n=" << s.n << " step " << step;
            ASSERT_EQ(eval.cost(), naiveCost(eval.map()));
            if (rng.below(2) == 0) {
                // Revert: applySwap is exactly self-inverse.
                eval.applySwap(row, a, b);
                ASSERT_EQ(eval.cost(), before);
            }
        }
        EXPECT_NO_THROW(validateDevelopedRows(eval.map()));
    }
}

TEST(ImbalanceEvaluator, ForLayoutMatchesExplicitMap)
{
    // Wrapping the same developed map in a Layout and re-deriving the
    // groups from its period must reproduce the tallies exactly.
    DevelopedRandomLayout layout(13, 4, 1, 8, /*seed=*/5);
    const DevelopedRows &map = layout.developedMap();
    EXPECT_EQ(map.rows, randomDevelopedRows(13, 4, 1, 8, 5).rows);
    ImbalanceEvaluator direct(map);
    ImbalanceEvaluator wrapped =
        ImbalanceEvaluator::forLayout(layout);
    EXPECT_EQ(wrapped.cost(), direct.cost());
    EXPECT_EQ(wrapped.groupCount(), direct.groupCount());
    for (int f = 0; f < 13; ++f) {
        EXPECT_EQ(wrapped.singleFaultTally(f),
                  direct.singleFaultTally(f));
    }
}

TEST(ImbalanceEvaluator, RejectsMalformedMaps)
{
    DevelopedRows map = randomDevelopedRows(12, 4, 0, 4, 1);
    EXPECT_NO_THROW(validateDevelopedRows(map));

    DevelopedRows bad = map;
    bad.rows[1][3] = bad.rows[1][4]; // duplicate => not a permutation
    EXPECT_THROW(validateDevelopedRows(bad), std::invalid_argument);

    bad = map;
    bad.rows[0].pop_back(); // short row
    EXPECT_THROW(validateDevelopedRows(bad), std::invalid_argument);

    bad = map;
    bad.k = 5; // 5 does not divide 12
    EXPECT_THROW(validateDevelopedRows(bad), std::invalid_argument);

    bad = map;
    bad.rows.clear();
    EXPECT_THROW(validateDevelopedRows(bad), std::invalid_argument);
}

TEST(DevelopedRandomLayout, MappingContractAndSparing)
{
    DevelopedRandomLayout layout(/*disks=*/13, /*width=*/4,
                                 /*spares=*/1, /*rows=*/8,
                                 /*seed=*/7);
    EXPECT_EQ(layout.numDisks(), 13);
    EXPECT_EQ(layout.stripesPerPeriod(), 8 * 3);
    EXPECT_EQ(layout.unitsPerDiskPerPeriod(), 8);
    EXPECT_TRUE(layout.hasSparing());

    const DevelopedRows &map = layout.developedMap();
    // The cached table must agree with the analytic mapping, and
    // every stripe group must land on its row slice of the map.
    for (int64_t stripe = 0; stripe < 3 * layout.stripesPerPeriod();
         ++stripe) {
        const int64_t in_period =
            stripe % layout.stripesPerPeriod();
        const int row = static_cast<int>(in_period / 3);
        const int group = static_cast<int>(in_period % 3);
        for (int pos = 0; pos < 4; ++pos) {
            const PhysAddr addr = layout.map({stripe, pos});
            EXPECT_EQ(addr, layout.mapUncached({stripe, pos}));
            EXPECT_EQ(addr.disk,
                      map.rows[row][1 + group * 4 + pos]);
            EXPECT_EQ(addr.unit, stripe / layout.stripesPerPeriod() *
                                         8 +
                                     row);
        }
    }

    // Relocation: a failed disk's data unit moves to the row's spare
    // slot, hosted by a different disk.
    for (int row = 0; row < 8; ++row) {
        for (int slot = 1; slot < 13; ++slot) {
            const int failed = map.rows[row][slot];
            const PhysAddr spare =
                layout.relocatedAddress(failed, row);
            EXPECT_EQ(spare.disk, map.rows[row][0]);
            EXPECT_EQ(spare.unit, row);
            EXPECT_NE(spare.disk, failed);
        }
    }
}

TEST(LayoutSearch, DeterministicAcrossThreadCounts)
{
    // Benches spread whole searches over their grid threads; each
    // search must come out the same however many run at once.
    const std::vector<uint64_t> seeds = {17, 18, 19, 20};
    auto runAll = [&](int threads) {
        std::vector<LayoutSearchResult> out(seeds.size());
        harness::parallelFor(threads, seeds.size(), [&](size_t i) {
            LayoutSearchOptions opt;
            opt.chains = 4;
            opt.moves = 3000;
            opt.seed = seeds[i];
            out[i] = searchDevelopedRows(13, 4, 1, 13, opt);
        });
        return out;
    };
    const std::vector<LayoutSearchResult> serial = runAll(1);
    const std::vector<LayoutSearchResult> parallel = runAll(4);

    for (size_t i = 0; i < seeds.size(); ++i) {
        ASSERT_EQ(serial[i].chains.size(), parallel[i].chains.size());
        for (size_t c = 0; c < serial[i].chains.size(); ++c) {
            EXPECT_EQ(serial[i].chains[c].chain_seed,
                      parallel[i].chains[c].chain_seed);
            EXPECT_EQ(serial[i].chains[c].initial_cost,
                      parallel[i].chains[c].initial_cost);
            EXPECT_EQ(serial[i].chains[c].final_cost,
                      parallel[i].chains[c].final_cost);
            EXPECT_EQ(serial[i].chains[c].accepted,
                      parallel[i].chains[c].accepted);
        }
        EXPECT_EQ(serial[i].best_chain, parallel[i].best_chain);
        EXPECT_EQ(serial[i].best.rows, parallel[i].best.rows);
        EXPECT_EQ(serial[i].best_raw_worst1,
                  parallel[i].best_raw_worst1);
    }
}

TEST(LayoutSearch, ChainsAreReproducibleFromTheirSeeds)
{
    LayoutSearchOptions opt;
    opt.chains = 3;
    opt.moves = 1500;
    opt.seed = 23;
    LayoutSearchResult result =
        searchDevelopedRows(12, 4, 0, 12, opt);

    // Each chain's starting point is the raw random map of its
    // recorded seed -- the "(seed, move count)" reproducibility
    // contract.
    for (const LayoutSearchChain &chain : result.chains) {
        ImbalanceEvaluator raw(randomDevelopedRows(
            12, 4, 0, 12, chain.chain_seed));
        EXPECT_EQ(raw.cost(), chain.initial_cost);
        EXPECT_LE(chain.final_cost, chain.initial_cost);
        EXPECT_GE(chain.accepted, 0);
    }

    // The winning map is well formed and scores its reported cost.
    EXPECT_NO_THROW(validateDevelopedRows(result.best));
    ImbalanceEvaluator best(result.best);
    EXPECT_EQ(best.cost(),
              result.chains[result.best_chain].final_cost);

    // Same options => identical result (pure function), chain by
    // chain.
    LayoutSearchResult again =
        searchDevelopedRows(12, 4, 0, 12, opt);
    ASSERT_EQ(again.chains.size(), result.chains.size());
    for (size_t c = 0; c < result.chains.size(); ++c) {
        EXPECT_EQ(again.chains[c].chain_seed, result.chains[c].chain_seed);
        EXPECT_EQ(again.chains[c].initial_cost,
                  result.chains[c].initial_cost);
        EXPECT_EQ(again.chains[c].final_cost, result.chains[c].final_cost);
        EXPECT_EQ(again.chains[c].accepted, result.chains[c].accepted);
    }
    EXPECT_EQ(again.best_chain, result.best_chain);
    EXPECT_EQ(again.best.rows, result.best.rows);
    EXPECT_EQ(again.best_raw_worst1, result.best_raw_worst1);
}

TEST(LayoutSearch, RejectsBadOptions)
{
    LayoutSearchOptions opt;
    opt.chains = 0;
    EXPECT_THROW(searchDevelopedRows(12, 4, 0, 12, opt),
                 std::invalid_argument);
    opt.chains = 2;
    opt.moves = -1;
    EXPECT_THROW(searchDevelopedRows(12, 4, 0, 12, opt),
                 std::invalid_argument);
}

TEST(TDesign, BooleanQuadrupleSystemIsA3Design)
{
    for (int v : {8, 16, 32}) {
        Bibd design = booleanQuadrupleSystem(v);
        EXPECT_EQ(design.v, v);
        EXPECT_EQ(design.k, 4);
        EXPECT_EQ(design.lambda, (v - 2) / 2);
        // b = v(v-1)(v-2) / 24 blocks for a 3-(v, 4, 1) design.
        EXPECT_EQ(static_cast<int>(design.blocks.size()),
                  v * (v - 1) * (v - 2) / 24);
        EXPECT_TRUE(verifyBibd(design));

        // Every triple is covered exactly once.
        std::set<std::vector<int>> seen;
        for (const std::vector<int> &block : design.blocks) {
            ASSERT_EQ(block.size(), 4u);
            for (int skip = 0; skip < 4; ++skip) {
                std::vector<int> triple;
                for (int i = 0; i < 4; ++i) {
                    if (i != skip)
                        triple.push_back(block[i]);
                }
                EXPECT_TRUE(seen.insert(triple).second)
                    << "triple covered twice at v=" << v;
            }
        }
        EXPECT_EQ(static_cast<int>(seen.size()),
                  v * (v - 1) * (v - 2) / 6);
    }

    EXPECT_THROW(booleanQuadrupleSystem(12), std::runtime_error);
    EXPECT_THROW(booleanQuadrupleSystem(4), std::runtime_error);
}

TEST(TDesign, PerfectDoubleFaultBalance)
{
    // The headline 3-design property: joint double-fault rebuild
    // reads are exactly flat (worst ratio 1.0), as is single-fault.
    TDesignLayout layout(16);
    ImbalanceEvaluator eval = ImbalanceEvaluator::forLayout(layout);
    ImbalanceMetrics one = eval.metrics(1);
    ImbalanceMetrics two = eval.metrics(2);
    EXPECT_DOUBLE_EQ(one.worst, 1.0);
    EXPECT_DOUBLE_EQ(two.worst, 1.0);
    EXPECT_DOUBLE_EQ(two.mean, 1.0);
}

} // namespace
} // namespace pddl
