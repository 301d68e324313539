/**
 * @file
 * Tests for the open-loop (Poisson, mixed-profile) workload, each run
 * as a no-fabric ScenarioSpec.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/scenario_spec.hh"
#include "tune/scenario_runner.hh"

namespace pddl {
namespace {

/** Open-loop 8 KB reads at `rate`/s against a bare 13-disk array. */
ScenarioSpec
fastSpec(const std::string &layout, double rate)
{
    ScenarioSpec spec;
    spec.shards.front().layout = layout;
    spec.shards.front().disks = 13;
    spec.dispatch_ms = 0.0;
    spec.client = "open";
    spec.arrivals_per_s = rate;
    spec.samples = 800;
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

TEST(OpenLoop, CompletesAllSamples)
{
    tune::ScenarioOutcome r = run(fastSpec("raid5", 50.0));
    EXPECT_EQ(r.samples, 800);
    EXPECT_GT(r.mean_ms, 5.0);
    EXPECT_GE(r.p95_ms, r.mean_ms);
    EXPECT_GE(r.p999_ms, r.p95_ms);
}

TEST(OpenLoop, DeterministicPerSeed)
{
    const ScenarioSpec spec = fastSpec("raid5", 100.0);
    tune::ScenarioOutcome a = run(spec);
    tune::ScenarioOutcome b = run(spec);
    EXPECT_DOUBLE_EQ(a.mean_ms, b.mean_ms);
    tune::ScenarioOutcome c = run(spec, 43);
    EXPECT_NE(a.mean_ms, c.mean_ms);
}

TEST(OpenLoop, LatencyExplodesNearSaturation)
{
    // Unlike the closed loop, offered load is independent of service
    // rate: queues (and response times) grow sharply near capacity.
    tune::ScenarioOutcome light = run(fastSpec("raid5", 50.0));
    // beyond ~13 disks' service rate
    tune::ScenarioOutcome heavy = run(fastSpec("raid5", 900.0));
    EXPECT_GT(heavy.mean_ms, 2.0 * light.mean_ms);
    EXPECT_GT(heavy.max_outstanding, light.max_outstanding);
}

TEST(OpenLoop, ThroughputTracksOfferedLoadBelowSaturation)
{
    tune::ScenarioOutcome r = run(fastSpec("raid5", 100.0));
    EXPECT_NEAR(r.throughput_per_s, 100.0, 15.0);
}

TEST(OpenLoop, MixedProfileRuns)
{
    ScenarioSpec spec = fastSpec("pddl:width=4", 60.0);
    // 70% 8 KB reads, 20% 24 KB writes, 10% 96 KB reads.
    spec.mix = {{8, false, 0.7}, {24, true, 0.2}, {96, false, 0.1}};
    tune::ScenarioOutcome r = run(spec);
    EXPECT_EQ(r.samples, spec.samples);
    EXPECT_GT(r.mean_ms, 0.0);
}

TEST(OpenLoop, DegradedModeSlower)
{
    ScenarioSpec spec = fastSpec("pddl:width=4", 150.0);
    tune::ScenarioOutcome ff = run(spec);
    spec.shards.front().failed_disk = 0;
    tune::ScenarioOutcome f1 = run(spec);
    EXPECT_GT(f1.mean_ms, ff.mean_ms);
}

} // namespace
} // namespace pddl
