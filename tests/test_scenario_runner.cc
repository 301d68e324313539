/**
 * @file
 * runScenario against hand-built references: a run composed by hand
 * from EventQueue + ArrayController + the closed- or open-loop client
 * must equal runScenario on the matching one-shard, dispatch_ms 0
 * spec bit for bit -- the property that keeps the paper figures'
 * numbers when they run as specs. The same holds for a mission spec
 * against a verbatim copy of the Monte-Carlo reliability trial it
 * replaced, and for a sharded volume against the stack bench_scaleout
 * once built by hand. Plus the tail columns' independence from the
 * Probe facade (PDDL_OBS=OFF), an observed volume's independence
 * from its thread count, and a failed trace capture.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "array/controller.hh"
#include "core/layout_spec.hh"
#include "core/pddl_layout.hh"
#include "core/scenario_spec.hh"
#include "disk/device_model.hh"
#include "fault/fault_scheduler.hh"
#include "obs/metrics.hh"
#include "obs/probe.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "sim/parallel_engine.hh"
#include "tune/scenario_runner.hh"
#include "util/rng.hh"
#include "volume/volume_manager.hh"
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

TEST(RunScenario, UnwritableCaptureThrows)
{
    ScenarioSpec spec = closedSpec();
    spec.ci_tolerance = 0.0;
    spec.min_samples = 0;
    spec.samples = 50;
    tune::RunScenarioOptions options;
    options.capture_path =
        ::testing::TempDir() + "pddl-no-such-dir/sub/t.trace";
    EXPECT_THROW(tune::runScenario(spec, options), std::runtime_error);
}

TEST(RunScenarioObserved, FourShardsRepeatAndMatchUnobserved)
{
    // Every lane reports to one probe, and the engine runs its lanes
    // in a fixed order on one thread: an observed run repeats its
    // metrics and trace byte for byte, and the probe leaves the
    // simulated history exactly as an unobserved run has it.
    ScenarioSpec spec;
    spec.shards.assign(4, ScenarioShard{});
    spec.chunk_units = 8;
    spec.dispatch_ms = 2.0;
    spec.arrivals_per_s = 300.0;
    spec.offsets = "zipf:0.99";
    spec.mix = {{8, true, 0.5}, {32, false, 0.5}};
    spec.cache_enabled = true;
    spec.cache_kb = 4096;
    spec.samples = 1500;
    spec.warmup = 100;
    spec.faults = {{40.0, 1, 2}};
    std::string error;
    ASSERT_TRUE(spec.normalize(error)) << error;

    struct Observed
    {
        tune::ScenarioOutcome outcome;
        std::string metrics;
        std::string trace;
    };
    auto observe = [&spec](bool probed) {
        obs::MetricsRegistry registry;
        obs::Tracer tracer;
        tune::RunScenarioOptions options;
        options.seed = 9;
        if (probed)
            options.probe = obs::Probe(&registry, &tracer);
        Observed run;
        run.outcome = tune::runScenario(spec, options);
        run.metrics = registry.snapshot().toJson().dump();
        run.trace = tracer.chromeJson();
        return run;
    };
    const Observed observed = observe(true);
    const Observed repeat = observe(true);
    const Observed unobserved = observe(false);
    const tune::ScenarioOutcome &a = observed.outcome;
    const tune::ScenarioOutcome &b = unobserved.outcome;
    EXPECT_EQ(a.mean_ms, b.mean_ms);
    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.p999_ms, b.p999_ms);
    EXPECT_EQ(a.throughput_per_s, b.throughput_per_s);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.hit_rate, b.hit_rate);
    EXPECT_EQ(a.destage_units, b.destage_units);
    EXPECT_EQ(a.shard_accesses, b.shard_accesses);
    EXPECT_EQ(a.events_fired, b.events_fired);
    EXPECT_EQ(a.sim_ms, b.sim_ms);
    EXPECT_EQ(a.rebuilds_completed, 1);
    EXPECT_EQ(b.rebuilds_completed, 1);
    EXPECT_EQ(repeat.outcome.mean_ms, a.mean_ms);
    EXPECT_EQ(observed.metrics, repeat.metrics);
    EXPECT_EQ(observed.trace, repeat.trace);
    if (obs::kObsEnabled) {
        EXPECT_NE(observed.metrics.find("disk."), std::string::npos);
        EXPECT_NE(observed.trace.find("\"cat\": \"rebuild\""),
                  std::string::npos);
    }
}

// ---- Missions against the reliability trial they replaced ----

/** Parameters of one reliability trial (one mission). */
struct TrialConfig
{
    SimTime mission_ms = 30000.0;
    int clients = 4;
    int access_units = 3;
    AccessType type = AccessType::Read;
    double disk_mttf_ms = 0.0;
    double latent_mtbe_ms = 0.0;
    int rebuild_parallel = 4;
    int64_t rebuild_stripes = 0;
    SimTime scrub_interval_ms = 0.0;
    int unit_sectors = 16;
    int sstf_window = 20;
    uint64_t seed = 1;
};

/** Everything one mission produced. */
struct TrialResult
{
    bool data_loss = false;
    SimTime data_loss_ms = 0.0;
    int failures_applied = 0;
    int rebuilds_completed = 0;
    Welford rebuild_ms;
    SimTime degraded_ms = 0.0;
    Welford response_ms;
    Welford degraded_response_ms;
    int latent_injected = 0;
    int64_t latent_detected = 0;
    int64_t scrub_repairs = 0;
    int64_t scrub_units_scanned = 0;
};

/** The reliability trial as it ran before missions were specs. */
TrialResult
runReliabilityTrial(const Layout &layout, const DeviceModel &device,
                    const TrialConfig &config)
{
    EventQueue events;
    ArrayConfig array_config;
    array_config.unit_sectors = config.unit_sectors;
    array_config.sstf_window = config.sstf_window;
    ArrayController array(events, layout, device, array_config);

    int64_t rows_per_disk = array.dataUnits() /
                            layout.dataUnitsPerPeriod() *
                            layout.unitsPerDiskPerPeriod();

    FaultDrawParams draw;
    draw.horizon_ms = config.mission_ms;
    draw.disks = layout.numDisks();
    draw.disk_mttf_ms = config.disk_mttf_ms;
    draw.latent_mtbe_ms = config.latent_mtbe_ms;
    draw.units_per_disk = rows_per_disk;
    FaultSchedule schedule =
        FaultSchedule::draw(hashMix64(config.seed, 0xfa01), draw);

    bool stopped = false;
    FaultScheduler::Options options;
    options.rebuild_parallel = config.rebuild_parallel;
    options.rebuild_stripes = config.rebuild_stripes;
    options.scrub_interval_ms = config.scrub_interval_ms;
    options.on_state_change = [&stopped](FaultState state) {
        if (state == FaultState::DataLoss)
            stopped = true;
    };
    FaultScheduler scheduler(events, array, std::move(schedule),
                             std::move(options));

    TrialResult result;
    Rng rng(hashMix64(config.seed, 0xc11e));
    std::function<void()> client = [&] {
        if (stopped)
            return;
        int64_t span = array.dataUnits() - config.access_units;
        int64_t start = static_cast<int64_t>(
            rng.below(static_cast<uint64_t>(span + 1)));
        bool degraded = scheduler.state() == FaultState::Rebuilding;
        SimTime issued = events.now();
        array.access(start, config.access_units, config.type,
                     [&, degraded, issued] {
                         SimTime took = events.now() - issued;
                         result.response_ms.add(took);
                         if (degraded)
                             result.degraded_response_ms.add(took);
                         client();
                     });
    };

    scheduler.start();
    for (int c = 0; c < config.clients; ++c)
        client();
    events.runUntil(config.mission_ms);

    const FaultStats &stats = scheduler.stats();
    result.data_loss = stats.data_loss;
    result.data_loss_ms = stats.data_loss_ms;
    result.failures_applied = stats.failures_applied;
    result.rebuilds_completed = stats.rebuilds_completed;
    result.rebuild_ms = stats.rebuild_ms;
    result.degraded_ms = scheduler.degradedMs();
    result.latent_injected = stats.latent_injected;
    result.latent_detected = stats.latent_detected;
    if (const Scrubber *scrubber = scheduler.scrubber()) {
        result.scrub_repairs = scrubber->errorsRepaired();
        result.scrub_units_scanned = scrubber->unitsScanned();
    }
    return result;
}

/** The mission spec describing `config` on `layout` x `disks`. */
ScenarioSpec
missionSpec(const std::string &layout, int disks,
            const TrialConfig &config)
{
    ScenarioSpec spec;
    spec.shards.front().layout = layout;
    spec.shards.front().disks = disks;
    spec.dispatch_ms = 0.0;
    spec.unit_sectors = config.unit_sectors;
    spec.sstf_window = config.sstf_window;
    spec.client = "closed";
    spec.clients = config.clients;
    spec.mix = {{config.access_units * config.unit_sectors / 2,
                 config.type == AccessType::Write, 1.0}};
    spec.warmup = 0;
    spec.rebuild_parallel = config.rebuild_parallel;
    spec.rebuild_stripes = config.rebuild_stripes;
    spec.mission_ms = config.mission_ms;
    spec.fault_seed = hashMix64(config.seed, 0xfa01);
    spec.disk_mttf_ms = config.disk_mttf_ms;
    spec.latent_mtbe_ms = config.latent_mtbe_ms;
    spec.scrub_interval_ms = config.scrub_interval_ms;
    std::string error;
    EXPECT_TRUE(spec.normalize(error)) << error;
    return spec;
}

void
expectSameWelford(const Welford &trial, const Welford &spec,
                  const char *what)
{
    EXPECT_EQ(trial.count(), spec.count()) << what;
    EXPECT_EQ(trial.mean(), spec.mean()) << what;
    EXPECT_EQ(trial.variance(), spec.variance()) << what;
    EXPECT_EQ(trial.min(), spec.min()) << what;
    EXPECT_EQ(trial.max(), spec.max()) << what;
}

/** Run `config` both ways, expect identical results, return both. */
std::pair<TrialResult, tune::ScenarioOutcome>
compareMission(const std::string &layout_spec, int disks,
               const TrialConfig &config)
{
    const std::unique_ptr<Layout> layout =
        layouts::makeLayout(layout_spec, disks);
    const TrialResult trial =
        runReliabilityTrial(*layout, device::hp2247(), config);

    tune::RunScenarioOptions options;
    options.seed = hashMix64(config.seed, 0xc11e);
    const tune::ScenarioOutcome outcome = tune::runScenario(
        missionSpec(layout_spec, disks, config), options);

    expectSameWelford(trial.response_ms, outcome.response_ms,
                      "response");
    expectSameWelford(trial.degraded_response_ms,
                      outcome.degraded_response_ms, "degraded response");
    expectSameWelford(trial.rebuild_ms, outcome.rebuild_ms, "rebuild");
    EXPECT_EQ(trial.data_loss, outcome.data_loss);
    EXPECT_EQ(trial.data_loss_ms, outcome.data_loss_ms);
    EXPECT_EQ(trial.degraded_ms, outcome.degraded_ms);
    EXPECT_EQ(trial.failures_applied, outcome.failures_applied);
    EXPECT_EQ(trial.rebuilds_completed, outcome.rebuilds_completed);
    EXPECT_EQ(trial.latent_injected, outcome.latent_injected);
    EXPECT_EQ(trial.latent_detected, outcome.latent_detected);
    EXPECT_EQ(trial.scrub_repairs, outcome.scrub_repairs);
    EXPECT_EQ(trial.scrub_units_scanned, outcome.scrub_units_scanned);
    return {trial, outcome};
}

/** A short mission with failures, rebuilds, latents and scrubbing. */
TrialConfig
busyTrial()
{
    TrialConfig config;
    config.mission_ms = 5000.0;
    config.clients = 2;
    config.disk_mttf_ms = 20000.0;
    config.latent_mtbe_ms = 800.0;
    config.rebuild_stripes = 130;
    config.scrub_interval_ms = 10.0;
    config.seed = 99;
    return config;
}

TEST(RunScenarioMission, PddlMissionMatchesReliabilityTrial)
{
    const auto [trial, outcome] =
        compareMission("pddl:width=4", 13, busyTrial());
    EXPECT_GT(trial.response_ms.count(), 0);
    EXPECT_GT(trial.degraded_response_ms.count(), 0);
    EXPECT_GT(trial.rebuilds_completed, 0);
}

TEST(RunScenarioMission, WrappedMissionMatchesReliabilityTrial)
{
    const auto [trial, outcome] =
        compareMission("wrapped:width=4", 14, busyTrial());
    EXPECT_GT(trial.failures_applied, 0);
    EXPECT_GT(trial.degraded_response_ms.count(), 0);
}

TEST(RunScenarioMission, DataLossStopsTheClientsLikeTheTrial)
{
    TrialConfig config;
    config.mission_ms = 4000.0;
    config.clients = 4;
    config.disk_mttf_ms = 3000.0;
    config.rebuild_parallel = 1;
    config.seed = 7;
    const auto [trial, outcome] =
        compareMission("pddl:width=4", 13, config);
    ASSERT_TRUE(trial.data_loss);
    EXPECT_GT(outcome.data_loss_ms, 0.0);
    EXPECT_LT(outcome.data_loss_ms, config.mission_ms);
}

TEST(RunScenarioMission, LatentErrorsAndScrubbingMatchTheTrial)
{
    TrialConfig config;
    config.mission_ms = 3000.0;
    config.clients = 3;
    config.latent_mtbe_ms = 2.0;
    config.scrub_interval_ms = 5.0;
    config.seed = 3;
    const auto [trial, outcome] =
        compareMission("pddl:width=4", 13, config);
    EXPECT_EQ(outcome.failures_applied, 0);
    EXPECT_GT(outcome.latent_injected, 0);
    EXPECT_GT(outcome.scrub_repairs, 0);
    EXPECT_GT(outcome.scrub_units_scanned, 0);
    EXPECT_GT(outcome.latent_detected, 0);
}

TEST(RunScenarioMission, ReplayingAMissionThrowsAtTheField)
{
    const ScenarioSpec spec =
        missionSpec("pddl:width=4", 13, busyTrial());
    const std::vector<traffic::TraceRecord> records = {
        {0.0, AccessType::Read, 0, 1}};
    tune::RunScenarioOptions options;
    options.replay = &records;
    try {
        tune::runScenario(spec, options);
        FAIL() << "a mission replayed a trace";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("mission_ms"),
                  std::string::npos)
            << e.what();
    }
}

// ---- A sharded volume against bench_scaleout's old hand-built stack ----

TEST(RunScenarioVolume, ShardFailureMatchesHandBuiltScaleoutStack)
{
    const int shards = 2;
    const uint64_t seed = 17;
    ParallelEngine::Config engine_config;
    engine_config.lookahead = 2.0;
    ParallelEngine engine(shards, engine_config);
    PddlLayout layout = PddlLayout::make(13, 4);
    const DeviceModel &model = device::hp2247();
    std::vector<ShardSpec> specs(shards);
    for (ShardSpec &spec : specs) {
        spec.layout = &layout;
        spec.device = &model;
    }
    VolumeConfig vconfig;
    vconfig.chunk_units = 8;
    vconfig.dispatch_ms = 2.0;
    VolumeManager volume(engine, std::move(specs), vconfig);
    FaultSchedule schedule;
    schedule.events.push_back({40.0, FaultEvent::Kind::DiskFailure, 2, 0});
    FaultScheduler faults(engine.shardQueue(0), std::move(schedule),
                          FaultScheduler::Options{});
    faults.bindArray(volume.shard(0));
    faults.start();
    ClosedLoopConfig config;
    config.clients = 8 * shards;
    config.access_units = 3;
    config.relative_tolerance = 0.0;
    config.min_samples = 600;
    config.max_samples = 600;
    config.warmup = 200;
    config.seed = seed;
    ClosedLoopClient client(config);
    startOnHub(client, engine, volume);
    engine.run();

    ScenarioSpec spec;
    spec.shards.assign(shards, ScenarioShard{});
    spec.chunk_units = 8;
    spec.client = "closed";
    spec.clients = 8 * shards;
    spec.mix = {{24, false, 1.0}};
    spec.samples = 600;
    spec.warmup = 200;
    spec.faults = {{40.0, 0, 2}};
    std::string error;
    ASSERT_TRUE(spec.normalize(error)) << error;
    const tune::ScenarioOutcome outcome = viaSpec(spec, seed);

    EXPECT_EQ(static_cast<int64_t>(engine.eventsFired()),
              outcome.events_fired);
    EXPECT_EQ(static_cast<int64_t>(engine.windowsRun()),
              outcome.windows_run);
    EXPECT_EQ(engine.now(), outcome.sim_ms);
    EXPECT_EQ(static_cast<int64_t>(volume.subAccessesIssued()),
              outcome.sub_accesses);
    EXPECT_EQ(std::max(volume.maxInFlight(0), volume.maxInFlight(1)),
              outcome.max_in_flight);
    EXPECT_EQ(volume.degradedShards(), outcome.degraded_shards_end);
    EXPECT_EQ(faults.degradedMs(), outcome.degraded_ms);
    EXPECT_EQ(faults.stats().rebuilds_completed,
              outcome.rebuilds_completed);
    EXPECT_EQ(client.result().mean_response_ms, outcome.mean_ms);
    EXPECT_GT(outcome.degraded_ms, 0.0);
}

TEST(RunScenarioVolume, DataLossOnAShardStopsTheClosedLoop)
{
    // Two failures on shard 0 before its rebuild lands lose data; the
    // lane reaches the hub's client through the engine mailbox, so
    // the population stops long before its sample budget.
    ScenarioSpec spec;
    spec.shards.assign(2, ScenarioShard{});
    spec.client = "closed";
    spec.clients = 16;
    spec.samples = 20000;
    spec.warmup = 0;
    spec.faults = {{40.0, 0, 2}, {41.0, 0, 5}};
    std::string error;
    ASSERT_TRUE(spec.normalize(error)) << error;
    const tune::ScenarioOutcome outcome =
        tune::runScenario(spec, tune::RunScenarioOptions{});
    EXPECT_TRUE(outcome.data_loss);
    EXPECT_EQ(outcome.data_loss_ms, 41.0);
    EXPECT_GT(outcome.samples, 0);
    EXPECT_LT(outcome.samples, 200);
}

} // namespace
} // namespace pddl
