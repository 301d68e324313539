/**
 * @file
 * Tests for the fault-injection subsystem: the live failure
 * lifecycle (fault-free -> degraded -> rebuilding -> restored on one
 * controller), data-loss detection, latent-error scrubbing, and --
 * through mission specs run by tune::runScenario -- the determinism
 * and thread-count invariance of the Monte-Carlo reliability sweep.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pddl_layout.hh"
#include "core/scenario_spec.hh"
#include "fault/fault_scheduler.hh"
#include "harness/runner.hh"
#include "tune/scenario_runner.hh"
#include "util/rng.hh"

namespace pddl {
namespace {

struct FaultFixture : ::testing::Test
{
    EventQueue events;
    PddlLayout layout{boseConstruction(13, 4)};
    const DeviceModel &model = device::hp2247();

    FaultSchedule
    scripted(std::vector<FaultEvent> timeline)
    {
        FaultSchedule schedule;
        schedule.events = std::move(timeline);
        return schedule;
    }
};

TEST_F(FaultFixture, LiveLifecycleRunsToRestoredOnOneController)
{
    ArrayController array(events, layout, model, ArrayConfig{});
    EXPECT_EQ(array.mode(), ArrayMode::FaultFree);

    FaultScheduler::Options options;
    options.rebuild_stripes = 130;
    options.rebuild_parallel = 4;
    std::vector<FaultState> transitions;
    options.on_state_change = [&](FaultState state) {
        transitions.push_back(state);
    };
    FaultScheduler scheduler(
        events, array,
        scripted({{100.0, FaultEvent::Kind::DiskFailure, 3, 0}}),
        options);
    scheduler.start();
    events.runUntilEmpty();

    // One continuous run: failure applied live, rebuild swept into
    // spare space, full service restored -- no controller rebuild.
    EXPECT_EQ(scheduler.state(), FaultState::Restored);
    EXPECT_EQ(array.mode(), ArrayMode::PostReconstruction);
    EXPECT_EQ(array.failedDisk(), 3);
    EXPECT_EQ(scheduler.stats().failures_applied, 1);
    EXPECT_EQ(scheduler.stats().rebuilds_completed, 1);
    EXPECT_EQ(scheduler.stats().rebuild_ms.count(), 1);
    EXPECT_GT(scheduler.stats().rebuild_ms.mean(), 0.0);
    EXPECT_GT(scheduler.degradedMs(), 0.0);
    EXPECT_FALSE(scheduler.stats().data_loss);
    ASSERT_EQ(transitions.size(), 2u);
    EXPECT_EQ(transitions[0], FaultState::Rebuilding);
    EXPECT_EQ(transitions[1], FaultState::Restored);
    // The failed disk was never touched.
    EXPECT_EQ(array.disk(3).tally().total(), 0);

    // Restored service: reads of relocated units are single ops that
    // avoid the dead disk.
    int64_t before = array.aggregateTally().total();
    int completions = 0;
    for (int i = 0; i < 30; ++i)
        array.access(i * 7, 1, AccessType::Read, [&] { ++completions; });
    events.runUntilEmpty();
    EXPECT_EQ(completions, 30);
    EXPECT_EQ(array.aggregateTally().total() - before, 30);
    EXPECT_EQ(array.disk(3).tally().total(), 0);
}

TEST_F(FaultFixture, SecondFailureBeforeRebuildCompleteIsDataLoss)
{
    ArrayController array(events, layout, model, ArrayConfig{});
    FaultScheduler::Options options;
    options.rebuild_stripes = 390;
    FaultScheduler scheduler(
        events, array,
        scripted({{10.0, FaultEvent::Kind::DiskFailure, 0, 0},
                  {12.0, FaultEvent::Kind::DiskFailure, 5, 0}}),
        options);
    scheduler.start();
    events.runUntilEmpty();

    EXPECT_EQ(scheduler.state(), FaultState::DataLoss);
    EXPECT_TRUE(scheduler.stats().data_loss);
    EXPECT_EQ(scheduler.stats().data_loss_cause,
              "second_failure_before_rebuild_complete");
    EXPECT_DOUBLE_EQ(scheduler.stats().data_loss_ms, 12.0);
    EXPECT_EQ(scheduler.stats().rebuilds_completed, 0);
    // The cancelled rebuild never flips the array to restored.
    EXPECT_EQ(array.mode(), ArrayMode::Degraded);
    EXPECT_GT(scheduler.degradedMs(), 0.0);
}

TEST_F(FaultFixture, FailureAfterSpareConsumedIsDataLoss)
{
    ArrayController array(events, layout, model, ArrayConfig{});
    FaultScheduler::Options options;
    options.rebuild_stripes = 13;
    options.rebuild_parallel = 8;
    FaultScheduler scheduler(
        events, array,
        scripted({{10.0, FaultEvent::Kind::DiskFailure, 0, 0},
                  {20000.0, FaultEvent::Kind::DiskFailure, 7, 0}}),
        options);
    scheduler.start();
    events.runUntilEmpty();

    // The first failure rebuilt fine; the second found no spare.
    EXPECT_EQ(scheduler.stats().rebuilds_completed, 1);
    EXPECT_EQ(scheduler.state(), FaultState::DataLoss);
    EXPECT_EQ(scheduler.stats().data_loss_cause, "spare_exhausted");
    EXPECT_DOUBLE_EQ(scheduler.stats().data_loss_ms, 20000.0);
}

TEST_F(FaultFixture, RepeatFailureOfTheDownDiskIsIgnored)
{
    ArrayController array(events, layout, model, ArrayConfig{});
    FaultScheduler::Options options;
    options.rebuild_stripes = 13;
    FaultScheduler scheduler(
        events, array,
        scripted({{10.0, FaultEvent::Kind::DiskFailure, 2, 0},
                  {11.0, FaultEvent::Kind::DiskFailure, 2, 0}}),
        options);
    scheduler.start();
    events.runUntilEmpty();
    EXPECT_FALSE(scheduler.stats().data_loss);
    EXPECT_EQ(scheduler.stats().failures_applied, 1);
    EXPECT_EQ(scheduler.state(), FaultState::Restored);
}

TEST_F(FaultFixture, ScrubFindsAndRepairsInjectedLatentErrors)
{
    ArrayController array(events, layout, model, ArrayConfig{});

    // Plant latent errors on disk 2 under stripes the scrub sweep
    // reaches shortly after injection (1 stripe per ms from t=0).
    std::vector<FaultEvent> timeline;
    for (int64_t stripe = 50; stripe < 200 && timeline.size() < 3;
         ++stripe) {
        for (int pos = 0; pos < layout.stripeWidth(); ++pos) {
            PhysAddr addr = layout.map({stripe, pos});
            if (addr.disk == 2) {
                timeline.push_back({5.0 + timeline.size(),
                                    FaultEvent::Kind::LatentError, 2,
                                    addr.unit});
                break;
            }
        }
    }
    ASSERT_EQ(timeline.size(), 3u);

    FaultScheduler::Options options;
    options.scrub_interval_ms = 1.0;
    FaultScheduler scheduler(events, array, scripted(timeline),
                             options);
    scheduler.start();
    events.runUntil(2000.0);

    EXPECT_EQ(scheduler.stats().latent_injected, 3);
    EXPECT_GE(scheduler.stats().latent_detected, 3);
    ASSERT_NE(scheduler.scrubber(), nullptr);
    EXPECT_EQ(scheduler.scrubber()->errorsRepaired(), 3);
    EXPECT_GT(scheduler.scrubber()->unitsScanned(), 0);
    // The media is clean again.
    EXPECT_EQ(array.disk(2).latentErrors(), 0);
    EXPECT_EQ(array.disk(2).mediumErrorsRepaired(), 3);
}

TEST_F(FaultFixture, UnboundSchedulerBindsToAnyShard)
{
    // The sharded-volume construction order: schedulers built as
    // blueprints first, each pointed at its shard's controller later.
    ArrayController array(events, layout, model, ArrayConfig{});
    FaultScheduler::Options options;
    options.rebuild_stripes = 130;
    FaultScheduler scheduler(
        events, scripted({{100.0, FaultEvent::Kind::DiskFailure, 3, 0}}),
        options);
    EXPECT_EQ(scheduler.array(), nullptr);
    scheduler.bindArray(array);
    EXPECT_EQ(scheduler.array(), &array);
    scheduler.start();
    events.runUntilEmpty();
    EXPECT_EQ(scheduler.state(), FaultState::Restored);
    EXPECT_EQ(array.mode(), ArrayMode::PostReconstruction);
}

TEST_F(FaultFixture, RebindDetachesThePreviousArray)
{
    ArrayController first(events, layout, model, ArrayConfig{});
    ArrayController second(events, layout, model, ArrayConfig{});
    FaultScheduler::Options options;
    options.rebuild_stripes = 130;
    options.scrub_interval_ms = 1.0;
    FaultScheduler scheduler(
        events, scripted({{50.0, FaultEvent::Kind::DiskFailure, 1, 0}}),
        options);
    scheduler.bindArray(first);
    scheduler.bindArray(second);
    EXPECT_EQ(scheduler.array(), &second);
    scheduler.start();
    events.runUntil(30000.0);

    // The timeline played against the rebound shard only.
    EXPECT_EQ(scheduler.state(), FaultState::Restored);
    EXPECT_EQ(second.mode(), ArrayMode::PostReconstruction);
    EXPECT_EQ(first.mode(), ArrayMode::FaultFree);
    EXPECT_EQ(first.aggregateTally().total(), 0);
}

TEST_F(FaultFixture, IdenticalTimelinesGiveIdenticalShardVerdicts)
{
    // Two shards of one volume-style simulation, each driven by its
    // own scheduler playing the same scripted timeline: their
    // per-shard lifecycles and data-loss verdicts must match exactly.
    ArrayController shard_a(events, layout, model, ArrayConfig{});
    ArrayController shard_b(events, layout, model, ArrayConfig{});

    const std::vector<FaultEvent> timeline = {
        {10.0, FaultEvent::Kind::DiskFailure, 0, 0},
        {12.0, FaultEvent::Kind::DiskFailure, 5, 0},
    };
    FaultScheduler::Options options;
    options.rebuild_stripes = 390;

    FaultScheduler sched_a(events, scripted(timeline), options);
    FaultScheduler sched_b(events, scripted(timeline), options);
    sched_a.bindArray(shard_a);
    sched_b.bindArray(shard_b);
    sched_a.start();
    sched_b.start();
    events.runUntilEmpty();

    EXPECT_EQ(sched_a.state(), sched_b.state());
    EXPECT_EQ(sched_a.state(), FaultState::DataLoss);
    EXPECT_EQ(sched_a.stats().data_loss, sched_b.stats().data_loss);
    EXPECT_EQ(sched_a.stats().data_loss_cause,
              sched_b.stats().data_loss_cause);
    EXPECT_DOUBLE_EQ(sched_a.stats().data_loss_ms,
                     sched_b.stats().data_loss_ms);
    EXPECT_EQ(sched_a.stats().failures_applied,
              sched_b.stats().failures_applied);
    EXPECT_DOUBLE_EQ(sched_a.degradedMs(), sched_b.degradedMs());
}

TEST_F(FaultFixture, DrawnSchedulesAreDeterministicAndSorted)
{
    FaultDrawParams params;
    params.horizon_ms = 50000.0;
    params.disks = 13;
    params.disk_mttf_ms = 20000.0;
    params.latent_mtbe_ms = 5000.0;
    params.units_per_disk = 1000;

    FaultSchedule a = FaultSchedule::draw(42, params);
    FaultSchedule b = FaultSchedule::draw(42, params);
    ASSERT_EQ(a.events.size(), b.events.size());
    EXPECT_GT(a.events.size(), 0u);
    bool any_failure = false, any_latent = false;
    for (size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.events[i].when, b.events[i].when);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].disk, b.events[i].disk);
        EXPECT_EQ(a.events[i].unit, b.events[i].unit);
        EXPECT_LT(a.events[i].when, params.horizon_ms);
        EXPECT_GE(a.events[i].when, 0.0);
        if (i > 0) {
            EXPECT_GE(a.events[i].when, a.events[i - 1].when);
        }
        any_failure |= a.events[i].kind ==
                       FaultEvent::Kind::DiskFailure;
        any_latent |= a.events[i].kind ==
                      FaultEvent::Kind::LatentError;
    }
    EXPECT_TRUE(any_failure);
    EXPECT_TRUE(any_latent);
    // Another seed draws another timeline.
    FaultSchedule c = FaultSchedule::draw(43, params);
    bool differs = c.events.size() != a.events.size();
    for (size_t i = 0; !differs && i < a.events.size(); ++i)
        differs = a.events[i].when != c.events[i].when;
    EXPECT_TRUE(differs);
}

/** A short Monte-Carlo mission on the default 13-disk PDDL shard. */
ScenarioSpec
missionSpec(double disk_mttf_ms, int rebuild_parallel)
{
    ScenarioSpec spec;
    spec.dispatch_ms = 0.0;
    spec.client = "closed";
    spec.clients = 2;
    spec.mix = {{16, false, 1.0}};
    spec.warmup = 0;
    spec.rebuild_parallel = rebuild_parallel;
    spec.rebuild_stripes = 130;
    spec.mission_ms = 4000.0;
    spec.disk_mttf_ms = disk_mttf_ms;
    spec.latent_mtbe_ms = 600.0;
    spec.scrub_interval_ms = 10.0;
    spec.fault_seed = 99;
    std::string error;
    EXPECT_TRUE(spec.normalize(error)) << error;
    return spec;
}

TEST_F(FaultFixture, ReliabilityTrialIsDeterministic)
{
    const ScenarioSpec spec = missionSpec(4000.0, 4);
    tune::RunScenarioOptions options;
    options.seed = 5;
    const tune::ScenarioOutcome a = tune::runScenario(spec, options);
    const tune::ScenarioOutcome b = tune::runScenario(spec, options);
    EXPECT_EQ(a.data_loss, b.data_loss);
    EXPECT_EQ(a.data_loss_ms, b.data_loss_ms);
    EXPECT_EQ(a.failures_applied, b.failures_applied);
    EXPECT_EQ(a.response_ms.count(), b.response_ms.count());
    EXPECT_EQ(a.response_ms.mean(), b.response_ms.mean());
    EXPECT_EQ(a.degraded_ms, b.degraded_ms);
    EXPECT_EQ(a.scrub_repairs, b.scrub_repairs);
    EXPECT_GT(a.response_ms.count(), 0);
    EXPECT_GT(a.failures_applied, 0);

    // The drawn timeline replays from the spec alone: another
    // fault_seed draws another mission.
    ScenarioSpec other = spec;
    other.fault_seed = 100;
    const tune::ScenarioOutcome c = tune::runScenario(other, options);
    EXPECT_NE(a.response_ms.mean(), c.response_ms.mean());
}

TEST_F(FaultFixture, ReliabilitySweepIsThreadCountInvariant)
{
    // The bench_reliability grid in miniature: missions run on the
    // harness threads give identical results for every thread count.
    std::vector<harness::Experiment> experiments;
    for (int parallel : {1, 4}) {
        harness::Experiment experiment;
        experiment.point = {"Reliability",
                            "PDDL/par=" + std::to_string(parallel), 16,
                            2, AccessType::Read, ArrayMode::FaultFree};
        experiment.run = [spec = missionSpec(3000.0, parallel)](
                             uint64_t seed, const obs::Probe &,
                             harness::Extras &extras) mutable {
            Welford response;
            double failures = 0.0, degraded_ms = 0.0;
            for (int t = 0; t < 2; ++t) {
                spec.fault_seed = hashMix64(seed, t + 1);
                tune::RunScenarioOptions options;
                options.seed = hashMix64(seed, t + 11);
                const tune::ScenarioOutcome trial =
                    tune::runScenario(spec, options);
                response.merge(trial.response_ms);
                failures += trial.failures_applied;
                degraded_ms += trial.degraded_ms;
            }
            extras.emplace_back("failures_applied", failures);
            extras.emplace_back("degraded_ms_total", degraded_ms);
            SimResult result;
            result.mean_response_ms = response.mean();
            result.samples = response.count();
            return result;
        };
        experiments.push_back(std::move(experiment));
    }

    harness::RunSummary serial =
        harness::ExperimentRunner(1).run(experiments);
    harness::RunSummary parallel =
        harness::ExperimentRunner(3).run(experiments);

    ASSERT_EQ(serial.points.size(), experiments.size());
    ASSERT_EQ(parallel.points.size(), experiments.size());
    for (size_t i = 0; i < experiments.size(); ++i) {
        const harness::PointResult &a = serial.points[i];
        const harness::PointResult &b = parallel.points[i];
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.result.mean_response_ms, b.result.mean_response_ms);
        EXPECT_EQ(a.result.samples, b.result.samples);
        ASSERT_EQ(a.extras.size(), b.extras.size());
        for (size_t e = 0; e < a.extras.size(); ++e) {
            EXPECT_EQ(a.extras[e].first, b.extras[e].first);
            EXPECT_EQ(a.extras[e].second, b.extras[e].second)
                << "extra " << a.extras[e].first << " of row " << i;
        }
    }
    // Loss statistics are meaningful: with a 3 s per-disk MTTF and
    // 13 disks, every 4 s mission sees failures.
    EXPECT_GT(serial.points[0].extras[0].second, 0.0);
}

} // namespace
} // namespace pddl
