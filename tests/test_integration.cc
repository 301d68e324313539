/**
 * @file
 * Cross-validation integration tests: independent parts of the
 * system must agree with each other, the way the paper cross-checks
 * its own measurements ("the non-local seeks counts ... and the
 * working set sizes from Figure 3 are equal; moreover, they are
 * determined independently").
 */

#include <gtest/gtest.h>

#include "array/controller.hh"
#include "array/working_set.hh"
#include "core/layout_spec.hh"
#include "core/pddl_layout.hh"
#include "core/scenario_spec.hh"
#include "layout/properties.hh"
#include "tune/scenario_runner.hh"
#include "util/rng.hh"

namespace pddl {
namespace {

/**
 * A closed loop of `clients` issuing `units`-unit accesses to a bare
 * 13-disk array (no fabric), stopped at a 5 % CI half-width.
 */
tune::ScenarioOutcome
measure(const std::string &layout, int clients, int units,
        AccessType type, int64_t warmup)
{
    ScenarioSpec spec;
    spec.shards.front().layout = layout;
    spec.shards.front().disks = 13;
    spec.dispatch_ms = 0.0;
    spec.client = "closed";
    spec.clients = clients;
    spec.mix = {{8 * units, type == AccessType::Write, 1.0}};
    spec.ci_tolerance = 0.05;
    spec.min_samples = 400;
    spec.samples = 3000;
    spec.warmup = warmup;
    std::string error;
    EXPECT_TRUE(spec.normalize(error)) << error;
    return tune::runScenario(spec, tune::RunScenarioOptions{});
}

class AnalyzerVsSimulator
    : public ::testing::TestWithParam<std::pair<int, AccessType>>
{
};

TEST_P(AnalyzerVsSimulator, NonLocalSeeksMatchWorkingSet)
{
    // The analytic working set (enumerated over layout offsets) must
    // match the simulator's measured non-local seek count per access
    // -- two entirely independent code paths.
    auto [units, type] = GetParam();
    double analytic = averageWorkingSet(
        *layouts::makeLayout("pddl:width=4", 13), units, type);

    // Writes are two-phase (pre-read then overwrite on the same
    // disks); with concurrent clients the interleaving reclassifies
    // some second-phase operations as non-local, so the exact
    // equality only holds without interleaving -- the paper likewise
    // notes the equality assumes a disk "will seldom alternate
    // between logical accesses".
    const int clients = type == AccessType::Write ? 1 : 6;
    tune::ScenarioOutcome measured =
        measure("pddl:width=4", clients, units, type, 150);

    EXPECT_NEAR(measured.non_local_seeks, analytic,
                0.05 * analytic + 0.25)
        << "units=" << units;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndTypes, AnalyzerVsSimulator,
    ::testing::Values(std::pair{1, AccessType::Read},
                      std::pair{6, AccessType::Read},
                      std::pair{12, AccessType::Read},
                      std::pair{30, AccessType::Read},
                      std::pair{3, AccessType::Write},
                      std::pair{12, AccessType::Write}));

TEST(Integration, TotalOpsMatchAnalyticExpansion)
{
    // Simulated physical op count per logical access equals the
    // analytic expansion average.
    const int units = 6;
    double analytic = averagePhysicalOps(
        *layouts::makeLayout("raid5", 13), units, AccessType::Write);

    tune::ScenarioOutcome measured =
        measure("raid5", 4, units, AccessType::Write, 150);
    double total = measured.non_local_seeks +
                   measured.cylinder_switches +
                   measured.track_switches + measured.no_switches;
    EXPECT_NEAR(total, analytic, 0.05 * analytic + 0.25);
}

TEST(Integration, ReconstructionTallyPredictsDegradedLoadSkew)
{
    // A layout with unbalanced reconstruction (DATUM is balanced;
    // use the identity-permutation PDDL) must show busier hot disks
    // in simulation than a satisfactory layout.
    PermutationGroup bose = boseConstruction(13, 4);
    PermutationGroup identity = bose;
    identity.perms = {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}};
    PddlLayout balanced(bose);
    PddlLayout skewed(identity, 1, /*require_satisfactory=*/false);

    auto busy_spread = [&](const Layout &layout) {
        EventQueue events;
        ArrayConfig config;
        config.mode = ArrayMode::Degraded;
        config.failed_disk = 0;
        ArrayController array(events, layout, device::hp2247(),
                              config);
        Rng rng(3);
        int remaining = 3000;
        std::function<void()> client = [&] {
            if (remaining-- <= 0)
                return;
            int64_t start = static_cast<int64_t>(
                rng.below(array.dataUnits() - 1));
            array.access(start, 1, AccessType::Read, client);
        };
        for (int c = 0; c < 6; ++c)
            client();
        events.runUntilEmpty();
        double lo = 1e18, hi = 0;
        for (int d = 1; d < 13; ++d) {
            lo = std::min(lo, array.disk(d).busyMs());
            hi = std::max(hi, array.disk(d).busyMs());
        }
        return hi / lo;
    };
    EXPECT_GT(busy_spread(skewed), busy_spread(balanced));
}

TEST(Integration, DatumWorkingSetDrivesItsHeavyLoadAdvantage)
{
    // Smaller working set => fewer positioning operations per access
    // => better heavy-load response (section 4.1's causal chain).
    const int units = 12;
    ASSERT_LT(averageWorkingSet(*layouts::makeLayout("datum:width=4", 13),
                                units, AccessType::Read),
              averageWorkingSet(*layouts::makeLayout("raid5", 13), units,
                                AccessType::Read));

    tune::ScenarioOutcome datum_result =
        measure("datum:width=4", 25, units, AccessType::Read, 200);
    tune::ScenarioOutcome raid5_result =
        measure("raid5", 25, units, AccessType::Read, 200);
    EXPECT_LT(datum_result.mean_ms, raid5_result.mean_ms);
}

} // namespace
} // namespace pddl
