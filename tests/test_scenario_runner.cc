/**
 * @file
 * runScenario's no-fabric path against its reference: a run composed
 * by hand from EventQueue + ArrayController + the closed- or
 * open-loop client must equal runScenario on the matching one-shard,
 * dispatch_ms 0 spec bit for bit -- the property that keeps the paper
 * figures' numbers when they run as specs. Plus the tail columns'
 * independence from the Probe facade (PDDL_OBS=OFF).
 */

#include <gtest/gtest.h>

#include <string>

#include "array/controller.hh"
#include "core/layout_spec.hh"
#include "core/scenario_spec.hh"
#include "disk/device_model.hh"
#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "tune/scenario_runner.hh"
#include "workload/closed_loop.hh"
#include "workload/open_loop.hh"

namespace pddl {
namespace {

/** 8 closed-loop clients, 24 KB reads, bare 13-disk PDDL array. */
ScenarioSpec
closedSpec()
{
    ScenarioSpec spec;
    spec.dispatch_ms = 0.0;
    spec.client = "closed";
    spec.clients = 8;
    spec.mix = {{24, false, 1.0}};
    spec.ci_tolerance = 0.06;
    spec.min_samples = 250;
    spec.samples = 2500;
    spec.warmup = 120;
    std::string error;
    EXPECT_TRUE(spec.normalize(error)) << error;
    return spec;
}

/** The spec's one shard, built the way the figure benches did. */
struct Array
{
    std::unique_ptr<Layout> layout;
    std::shared_ptr<const DeviceModel> device;
    EventQueue events;
    std::unique_ptr<ArrayController> array;
    obs::HistogramData latency;

    explicit Array(const ScenarioShard &shard)
        : layout(layouts::makeLayout(shard.layout, shard.disks)),
          device(device::makeDevice(shard.device)),
          latency(device::latencyBoundsForDevices({device.get()}))
    {
        ArrayConfig config;
        if (shard.failed_disk >= 0) {
            config.mode = shard.rebuilt ? ArrayMode::PostReconstruction
                                        : ArrayMode::Degraded;
            config.failed_disk = shard.failed_disk;
        }
        array = std::make_unique<ArrayController>(events, *layout,
                                                  *device, config);
    }

    /** The outcome fields that describe the array, not the client. */
    void
    fill(tune::ScenarioOutcome &outcome, int disks) const
    {
        outcome.p50_ms = latency.quantile(0.50);
        outcome.p95_ms = latency.quantile(0.95);
        outcome.p99_ms = latency.quantile(0.99);
        outcome.p999_ms = latency.quantile(0.999);
        outcome.backend_accesses =
            static_cast<int64_t>(array->accessesIssued());
        outcome.capacity_units = array->dataUnits();
        outcome.cost_units = disks * device->costUnits();
        outcome.shard_accesses = {
            static_cast<int64_t>(array->accessesIssued())};
    }
};

tune::ScenarioOutcome
handClosed(const ScenarioSpec &spec, uint64_t seed)
{
    Array run(spec.shards.front());
    ClosedLoopConfig config;
    config.clients = spec.clients;
    config.access_units = spec.mix.front().kb / 8;
    config.type = spec.mix.front().write ? AccessType::Write
                                         : AccessType::Read;
    config.relative_tolerance = spec.ci_tolerance;
    config.min_samples = spec.min_samples;
    config.max_samples = spec.samples;
    config.warmup = spec.warmup;
    config.seed = seed;
    config.latency = &run.latency;
    ClosedLoopClient client(config);
    client.start(run.events, *run.array);
    run.events.runUntilEmpty();

    const SimResult result = client.result();
    tune::ScenarioOutcome outcome;
    outcome.mean_ms = result.mean_response_ms;
    outcome.throughput_per_s = result.throughput_per_s;
    outcome.samples = result.samples;
    outcome.max_outstanding = spec.clients;
    outcome.ci_half_width_ms = result.ci_half_width_ms;
    outcome.non_local_seeks = result.non_local_seeks;
    outcome.cylinder_switches = result.cylinder_switches;
    outcome.track_switches = result.track_switches;
    outcome.no_switches = result.no_switches;
    run.fill(outcome, spec.shards.front().disks);
    return outcome;
}

tune::ScenarioOutcome
handOpen(const ScenarioSpec &spec, uint64_t seed)
{
    Array run(spec.shards.front());
    OpenLoopConfig config;
    config.arrivals_per_s = spec.arrivals_per_s;
    for (const ScenarioMix &entry : spec.mix) {
        config.mix.push_back(
            {entry.kb / 8,
             entry.write ? AccessType::Write : AccessType::Read,
             entry.weight});
    }
    config.samples = spec.samples;
    config.warmup = spec.warmup;
    config.seed = seed;
    config.latency = &run.latency;
    OpenLoopClient client(config);
    client.start(run.events, *run.array);
    run.events.runUntilEmpty();

    const OpenLoopResult result = client.result();
    tune::ScenarioOutcome outcome;
    outcome.mean_ms = result.mean_response_ms;
    outcome.throughput_per_s = result.completed_per_s;
    outcome.samples = result.samples;
    outcome.max_outstanding = result.max_outstanding;
    run.fill(outcome, spec.shards.front().disks);
    return outcome;
}

/** Every outcome field, compared exactly. */
void
expectIdentical(const tune::ScenarioOutcome &hand,
                const tune::ScenarioOutcome &spec)
{
    EXPECT_EQ(hand.mean_ms, spec.mean_ms);
    EXPECT_EQ(hand.p50_ms, spec.p50_ms);
    EXPECT_EQ(hand.p95_ms, spec.p95_ms);
    EXPECT_EQ(hand.p99_ms, spec.p99_ms);
    EXPECT_EQ(hand.p999_ms, spec.p999_ms);
    EXPECT_EQ(hand.throughput_per_s, spec.throughput_per_s);
    EXPECT_EQ(hand.samples, spec.samples);
    EXPECT_EQ(hand.max_outstanding, spec.max_outstanding);
    EXPECT_EQ(hand.backend_accesses, spec.backend_accesses);
    EXPECT_EQ(hand.ci_half_width_ms, spec.ci_half_width_ms);
    EXPECT_EQ(hand.non_local_seeks, spec.non_local_seeks);
    EXPECT_EQ(hand.cylinder_switches, spec.cylinder_switches);
    EXPECT_EQ(hand.track_switches, spec.track_switches);
    EXPECT_EQ(hand.no_switches, spec.no_switches);
    EXPECT_EQ(hand.cost_units, spec.cost_units);
    EXPECT_EQ(hand.capacity_units, spec.capacity_units);
    EXPECT_EQ(hand.shard_accesses, spec.shard_accesses);
    EXPECT_EQ(spec.hit_rate, 0.0);
    EXPECT_EQ(spec.rebuilds_completed, 0);
    EXPECT_FALSE(spec.data_loss);
}

tune::ScenarioOutcome
viaSpec(const ScenarioSpec &spec, uint64_t seed)
{
    tune::RunScenarioOptions options;
    options.seed = seed;
    return tune::runScenario(spec, options);
}

TEST(RunScenarioNoFabric, ClosedLoopFaultFreeMatchesHandComposition)
{
    const ScenarioSpec spec = closedSpec();
    const tune::ScenarioOutcome hand = handClosed(spec, 7);
    expectIdentical(hand, viaSpec(spec, 7));
    EXPECT_GE(hand.samples, spec.min_samples);
    EXPECT_GT(hand.non_local_seeks, 0.0);
}

TEST(RunScenarioNoFabric, ClosedLoopDegradedMatchesHandComposition)
{
    ScenarioSpec spec = closedSpec();
    spec.shards.front().failed_disk = 3;
    spec.mix.front().write = true;
    expectIdentical(handClosed(spec, 11), viaSpec(spec, 11));
}

TEST(RunScenarioNoFabric, PostReconstructionMatchesHandComposition)
{
    ScenarioSpec spec = closedSpec();
    spec.shards.front().failed_disk = 0;
    spec.shards.front().rebuilt = true;
    const tune::ScenarioOutcome post = viaSpec(spec, 5);
    expectIdentical(handClosed(spec, 5), post);

    // The flag really selects a different mode than degraded.
    spec.shards.front().rebuilt = false;
    EXPECT_NE(viaSpec(spec, 5).mean_ms, post.mean_ms);
}

TEST(RunScenarioNoFabric, OpenLoopMixMatchesHandComposition)
{
    ScenarioSpec spec;
    spec.shards.front().layout = "datum:width=4";
    spec.shards.front().failed_disk = 2;
    spec.dispatch_ms = 0.0;
    spec.arrivals_per_s = 150.0;
    spec.mix = {{8, false, 0.7}, {24, true, 0.2}, {96, false, 0.1}};
    spec.samples = 1500;
    spec.warmup = 150;
    std::string error;
    ASSERT_TRUE(spec.normalize(error)) << error;
    expectIdentical(handOpen(spec, 3), viaSpec(spec, 3));
}

TEST(RunScenario, TailPercentilesDoNotNeedProbes)
{
    // The clients record latencies into an always-compiled histogram,
    // so the percentiles are real with the Probe facade compiled out
    // (PDDL_OBS=OFF) -- on both backends.
    ScenarioSpec spec = closedSpec();
    const tune::ScenarioOutcome bare = viaSpec(spec, 1);
    EXPECT_GT(bare.p99_ms, 0.0);
    EXPECT_GE(bare.p99_ms, bare.p50_ms);

    spec.dispatch_ms = 2.0;
    spec.ci_tolerance = 0.0;
    spec.min_samples = 0;
    spec.samples = 600;
    const tune::ScenarioOutcome volume = viaSpec(spec, 1);
    EXPECT_GT(volume.p99_ms, 0.0);
    EXPECT_GE(volume.p99_ms, volume.p50_ms);
}

} // namespace
} // namespace pddl
