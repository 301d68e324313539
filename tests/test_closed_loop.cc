/**
 * @file
 * End-to-end tests of the closed-loop workload: convergence,
 * determinism, and the qualitative response-time behaviours the
 * paper's evaluation rests on, each run as a no-fabric ScenarioSpec.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/scenario_spec.hh"
#include "tune/scenario_runner.hh"

namespace pddl {
namespace {

/**
 * `clients` closed-loop clients issuing `kb` KB reads to a bare
 * 13-disk array, stopped at a 5 % CI half-width.
 */
ScenarioSpec
fastSpec(const std::string &layout, int clients, int kb)
{
    ScenarioSpec spec;
    spec.shards.front().layout = layout;
    spec.shards.front().disks = 13;
    spec.dispatch_ms = 0.0;
    spec.client = "closed";
    spec.clients = clients;
    spec.mix = {{kb, false, 1.0}};
    spec.ci_tolerance = 0.05;
    spec.min_samples = 200;
    spec.samples = 4000;
    spec.warmup = 100;
    return spec;
}

tune::ScenarioOutcome
run(ScenarioSpec spec, uint64_t seed = 42)
{
    std::string error;
    EXPECT_TRUE(spec.normalize(error)) << error;
    tune::RunScenarioOptions options;
    options.seed = seed;
    return tune::runScenario(spec, options);
}

TEST(ClosedLoop, ProducesConvergedEstimate)
{
    const ScenarioSpec spec = fastSpec("raid5", 4, 8);
    tune::ScenarioOutcome result = run(spec);
    EXPECT_GE(result.samples, spec.min_samples);
    EXPECT_LE(result.ci_half_width_ms,
              spec.ci_tolerance * result.mean_ms);
    EXPECT_GT(result.mean_ms, 5.0); // at least positioning
    EXPECT_LT(result.mean_ms, 200.0);
    EXPECT_GT(result.throughput_per_s, 10.0);
}

TEST(ClosedLoop, DeterministicPerSeed)
{
    const ScenarioSpec spec = fastSpec("raid5", 2, 8);
    tune::ScenarioOutcome a = run(spec);
    tune::ScenarioOutcome b = run(spec);
    EXPECT_DOUBLE_EQ(a.mean_ms, b.mean_ms);
    EXPECT_EQ(a.samples, b.samples);
    tune::ScenarioOutcome c = run(spec, 43);
    EXPECT_NE(a.mean_ms, c.mean_ms);
}

TEST(ClosedLoop, ResponseTimeGrowsWithLoad)
{
    tune::ScenarioOutcome light = run(fastSpec("raid5", 1, 48));
    tune::ScenarioOutcome heavy = run(fastSpec("raid5", 20, 48));
    EXPECT_GT(heavy.mean_ms, light.mean_ms * 1.5);
    EXPECT_GT(heavy.throughput_per_s, light.throughput_per_s);
}

TEST(ClosedLoop, ThroughputIdentityHolds)
{
    // Closed loop: throughput ~= clients / mean response time.
    tune::ScenarioOutcome result = run(fastSpec("raid5", 8, 24));
    double predicted = 8 / (result.mean_ms / 1000.0);
    EXPECT_NEAR(result.throughput_per_s, predicted, predicted * 0.15);
}

TEST(ClosedLoop, NonLocalSeeksApproximateWorkingSet)
{
    // Section 4: "The non-local seeks counts obtained in our
    // experiments and the working set sizes from Figure 3 are equal."
    // 96 KB is one full RAID-5 stripe of data.
    tune::ScenarioOutcome result = run(fastSpec("raid5", 4, 96));
    EXPECT_NEAR(result.non_local_seeks, 12.0, 0.6);
}

TEST(ClosedLoop, DegradedRaid5SlowerThanFaultFree)
{
    // "Within RAID-5, the workload on the surviving disks doubles
    // during degraded read accesses" -> responses degrade.
    ScenarioSpec spec = fastSpec("raid5", 10, 48);
    tune::ScenarioOutcome ff = run(spec);
    spec.shards.front().failed_disk = 0;
    tune::ScenarioOutcome f1 = run(spec);
    EXPECT_GT(f1.mean_ms, ff.mean_ms * 1.15);
}

TEST(ClosedLoop, PddlPostReconstructionBeatsReconstructionForSmallReads)
{
    // Figure 18: for stripe-unit sized accesses post-reconstruction
    // response time is much better than reconstruction mode.
    ScenarioSpec spec = fastSpec("pddl:width=4", 8, 8);
    spec.shards.front().failed_disk = 0;
    tune::ScenarioOutcome reconstruction = run(spec);
    spec.shards.front().rebuilt = true;
    tune::ScenarioOutcome post = run(spec);
    EXPECT_LT(post.mean_ms, reconstruction.mean_ms);
}

} // namespace
} // namespace pddl
