#include "tune/scenario_runner.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>

#include "array/controller.hh"
#include "cache/cache_tier.hh"
#include "core/volume_capacity.hh"
#include "disk/device_model.hh"
#include "fault/fault_scheduler.hh"
#include "obs/metrics.hh"
#include "sim/parallel_engine.hh"
#include "volume/placement.hh"
#include "volume/volume_manager.hh"
#include "workload/closed_loop.hh"
#include "workload/open_loop.hh"
#include "workload/trace_replay.hh"

namespace pddl {
namespace tune {

namespace {

/** The controller knobs one shard of the spec asks for. */
ArrayConfig
arrayConfig(const ScenarioSpec &spec, const ScenarioShard &shard,
            const obs::Probe &probe)
{
    ArrayConfig config;
    config.unit_sectors = spec.unit_sectors;
    config.sstf_window = spec.sstf_window;
    if (shard.failed_disk >= 0) {
        config.mode = shard.rebuilt ? ArrayMode::PostReconstruction
                                    : ArrayMode::Degraded;
        config.failed_disk = shard.failed_disk;
    }
    config.probe = probe;
    return config;
}

/**
 * Collects the response times of accesses issued while `faults` is
 * rebuilding: the degraded-window latency a mission reports. Only
 * missions install it, so other runs pay nothing per access.
 */
class DegradedResponses : public Target
{
  public:
    DegradedResponses(EventQueue &events, Target &backend,
                      const FaultScheduler &faults)
        : events_(events), backend_(backend), faults_(faults)
    {
    }

    const Welford &responses() const { return responses_; }

    int64_t dataUnits() const override { return backend_.dataUnits(); }

    void
    access(int64_t start_unit, int count, AccessType type,
           InlineCallback done) override
    {
        if (faults_.state() != FaultState::Rebuilding) {
            backend_.access(start_unit, count, type, std::move(done));
            return;
        }
        const SimTime issued = events_.now();
        backend_.access(start_unit, count, type,
                        [this, issued, done = std::move(done)]() mutable {
                            responses_.add(events_.now() - issued);
                            done();
                        });
    }

    SeekTally aggregateTally() const override
    {
        return backend_.aggregateTally();
    }

    uint64_t accessesIssued() const override
    {
        return backend_.accessesIssued();
    }

  private:
    EventQueue &events_;
    Target &backend_;
    const FaultScheduler &faults_;
    Welford responses_;
};

} // namespace

ScenarioOutcome
runScenario(const ScenarioSpec &spec, const RunScenarioOptions &options)
{
    return runScenario(compileOrThrow(spec), options);
}

ScenarioOutcome
runScenario(const CompiledScenario &compiled,
            const RunScenarioOptions &options)
{
    const ScenarioSpec &spec = compiled.spec();
    const int shard_count = static_cast<int>(spec.shards.size());
    const bool mission = spec.mission_ms > 0.0;
    const bool replaying =
        options.replay != nullptr && !options.replay->empty();
    if (mission && replaying)
        throw std::runtime_error(
            "runScenario: mission_ms: a mission drives its own closed "
            "loop and cannot replay a trace");

    // The backend the client drives. With no fabric (one shard,
    // dispatch_ms 0) it is one EventQueue and one bare
    // ArrayController, built in the order the paper figures always
    // built them; otherwise the VolumeManager over the parallel
    // engine's shard lanes. Faults, cache, capture and client only
    // see its queues and its Target.
    std::unique_ptr<EventQueue> queue;
    std::unique_ptr<ArrayController> array;
    std::unique_ptr<ParallelEngine> engine;
    // The placement object must outlive the volume.
    std::unique_ptr<PlacementPolicy> placement;
    std::unique_ptr<VolumeManager> volume;
    std::vector<const DeviceModel *> devices;
    for (int s = 0; s < shard_count; ++s)
        devices.push_back(compiled.shard(s).device.get());
    if (spec.dispatch_ms == 0.0) {
        queue = std::make_unique<EventQueue>();
        queue->setProbe(options.probe);
        array = std::make_unique<ArrayController>(
            *queue, *compiled.shard(0).layout, *devices.front(),
            arrayConfig(spec, spec.shards.front(), options.probe));
    } else {
        ParallelEngine::Config engine_config;
        engine_config.lookahead = spec.dispatch_ms;
        engine = std::make_unique<ParallelEngine>(shard_count,
                                                  engine_config);
        engine->hubQueue().setProbe(options.probe);

        std::vector<VolumeShard> shards(spec.shards.size());
        for (int s = 0; s < shard_count; ++s) {
            const ScenarioShard &shard = spec.shards[s];
            shards[s] = {compiled.shard(s).layout, compiled.shard(s).device,
                         shard.tier, arrayConfig(spec, shard, options.probe)};
            engine->shardQueue(s).setProbe(options.probe);
        }

        VolumeConfig vconfig;
        vconfig.chunk_units = spec.chunk_units;
        vconfig.dispatch_ms = spec.dispatch_ms;
        vconfig.allocation = spec.allocation == "tiered"
                                 ? VolumeAllocation::Tiered
                                 : VolumeAllocation::Striped;
        const ScenarioPlacement where = compiled.placement();
        if (where.kind == ScenarioPlacement::Rotate)
            placement = std::make_unique<RotatedPlacement>();
        else if (where.kind == ScenarioPlacement::Shuffle)
            placement = std::make_unique<ShuffledPlacement>(where.seed);
        vconfig.placement = placement.get();
        vconfig.probe = options.probe;
        volume = std::make_unique<VolumeManager>(*engine, std::move(shards),
                                                 vconfig);
    }
    EventQueue &hub = engine ? engine->hubQueue() : *queue;
    Target &backend =
        volume ? static_cast<Target &>(*volume) : *array;
    auto shard = [&](int s) -> ArrayController & {
        return volume ? volume->shard(s) : *array;
    };
    ScenarioOutcome outcome;
    auto run = [&] {
        if (engine)
            engine->run();
        else if (mission)
            queue->runUntil(spec.mission_ms);
        else
            queue->runUntilEmpty();
        outcome.sim_ms = engine ? engine->now() : queue->now();
    };

    // The closed-loop client while it runs: a shard that loses data
    // stops it from issuing (accesses in flight still complete).
    ClosedLoopClient *closed = nullptr;

    // One fault scheduler per shard that has scripted failures, and
    // on a mission's shard always (its timeline is drawn, its
    // scrubber runs even when the draw is empty); each lives on its
    // shard's queue, like the controller it drives.
    std::vector<std::unique_ptr<FaultScheduler>> fault_schedulers;
    for (int s = 0; s < shard_count; ++s) {
        FaultSchedule schedule;
        for (const ScenarioFault &fault : spec.faults) {
            if (fault.shard == s) {
                schedule.events.push_back(
                    {fault.when_ms, FaultEvent::Kind::DiskFailure,
                     fault.disk, 0});
            }
        }
        if (mission) {
            // Latent errors land on rows the client stripes cover,
            // the region the scrubber sweeps.
            const Layout &shard_layout = shard(s).layout();
            FaultDrawParams draw;
            draw.horizon_ms = spec.mission_ms;
            draw.disks = shard_layout.numDisks();
            draw.disk_mttf_ms = spec.disk_mttf_ms;
            draw.latent_mtbe_ms = spec.latent_mtbe_ms;
            draw.units_per_disk = shard(s).dataUnits() /
                                  shard_layout.dataUnitsPerPeriod() *
                                  shard_layout.unitsPerDiskPerPeriod();
            const FaultSchedule drawn =
                FaultSchedule::draw(spec.fault_seed, draw);
            schedule.events.insert(schedule.events.end(),
                                   drawn.events.begin(),
                                   drawn.events.end());
            std::sort(schedule.events.begin(), schedule.events.end());
        } else if (schedule.events.empty()) {
            continue;
        }
        EventQueue &lane = engine ? engine->shardQueue(s) : *queue;
        FaultScheduler::Options foptions;
        foptions.rebuild_parallel = spec.rebuild_parallel;
        foptions.rebuild_stripes = spec.rebuild_stripes;
        foptions.scrub_interval_ms = spec.scrub_interval_ms;
        if (spec.client == "closed" && !replaying) {
            // Data loss stops the closed loop. The client lives on the
            // hub: a lane reaches it through the engine's mailbox, at
            // the loss's simulated time.
            foptions.on_state_change = [&closed, &engine,
                                        lane = &lane](FaultState state) {
                if (state != FaultState::DataLoss)
                    return;
                if (engine)
                    engine->post(lane->now(),
                                 [&closed] { closed->stop(); });
                else
                    closed->stop();
            };
        }
        auto scheduler = std::make_unique<FaultScheduler>(
            lane, std::move(schedule), std::move(foptions));
        scheduler->bindArray(shard(s));
        scheduler->start();
        fault_schedulers.push_back(std::move(scheduler));
    }

    // Client latencies land in one always-compiled histogram; every
    // percentile read from it is integer-counted, so the numbers are
    // exact for any lane arrangement. Histogram resolution is
    // a property of the device classes present: a flash shard keeps
    // sub-ms buckets, a pure-hdd volume the default mechanical bounds.
    obs::HistogramData latency(device::latencyBoundsForDevices(devices));

    std::unique_ptr<cache::CacheTier> tier;
    if (spec.cache_enabled) {
        cache::CacheConfig cconfig;
        cconfig.capacity_units = compiled.cacheUnits();
        cconfig.ways = spec.cache_ways;
        cconfig.hit_ms = spec.cache_hit_ms;
        cconfig.high_water = spec.cache_high;
        cconfig.low_water = spec.cache_low;
        cconfig.max_run_units = spec.cache_run_units;
        cconfig.destage_width = spec.cache_width;
        cconfig.probe = options.probe;
        tier = std::make_unique<cache::CacheTier>(hub, backend,
                                                  cconfig);
    }
    Target &target = tier ? static_cast<Target &>(*tier) : backend;

    std::unique_ptr<TraceCapture> capture;
    Target *workload_target = &target;
    if (!options.capture_path.empty()) {
        capture = std::make_unique<TraceCapture>(hub, target);
        workload_target = capture.get();
    }

    if (replaying) {
        TraceReplayConfig rconfig;
        rconfig.latency = &latency;
        TraceReplayWorkload replay(*options.replay, rconfig);
        replay.start(hub, *workload_target);
        run();
        outcome.mean_ms = replay.latency().mean();
        outcome.samples = replay.latency().count();
        outcome.max_outstanding = replay.maxOutstanding();
        if (outcome.sim_ms > 0.0) {
            outcome.throughput_per_s =
                static_cast<double>(replay.completed()) /
                (outcome.sim_ms / 1000.0);
        }
    } else if (spec.client == "closed") {
        ClosedLoopConfig config;
        config.clients = spec.clients;
        // The closed loop issues one fixed access shape: the one mix
        // entry compileScenario() allows, or the spec default 8 KB read.
        const ScenarioMix entry =
            spec.mix.empty() ? ScenarioMix{} : spec.mix.front();
        config.access_units = static_cast<int>(
            unitsForKb(entry.kb, spec.unit_sectors));
        config.type =
            entry.write ? AccessType::Write : AccessType::Read;
        config.think_time_ms = spec.think_ms;
        // Without a CI tolerance the sample budget is fixed: the
        // tuner compares exact objectives, so the stopping rule is
        // pinned shut.
        if (spec.ci_tolerance > 0.0)
            config.relative_tolerance = spec.ci_tolerance;
        config.min_samples = spec.ci_tolerance > 0.0 ? spec.min_samples
                                                     : spec.samples;
        config.max_samples = spec.samples;
        if (mission) {
            // A mission runs to its length, not to a sample budget.
            config.min_samples = std::numeric_limits<int64_t>::max();
            config.max_samples = config.min_samples;
        }
        config.warmup = spec.warmup;
        config.seed = options.seed;
        config.offsets = compiled.offsets();
        config.latency = &latency;

        ClosedLoopClient client(config);
        closed = &client;
        std::unique_ptr<DegradedResponses> degraded;
        if (mission) {
            degraded = std::make_unique<DegradedResponses>(
                hub, *workload_target, *fault_schedulers.front());
        }
        client.start(hub, degraded ? *degraded : *workload_target);
        run();
        closed = nullptr;

        outcome.response_ms = client.response();
        if (degraded)
            outcome.degraded_response_ms = degraded->responses();
        SimResult result = client.result();
        outcome.mean_ms = result.mean_response_ms;
        outcome.throughput_per_s = result.throughput_per_s;
        outcome.samples = result.samples;
        outcome.max_outstanding = spec.clients;
        outcome.ci_half_width_ms = result.ci_half_width_ms;
        outcome.non_local_seeks = result.non_local_seeks;
        outcome.cylinder_switches = result.cylinder_switches;
        outcome.track_switches = result.track_switches;
        outcome.no_switches = result.no_switches;
    } else {
        OpenLoopConfig config;
        config.arrivals_per_s = spec.arrivals_per_s;
        for (const ScenarioMix &entry : spec.mix) {
            config.mix.push_back(
                {static_cast<int>(
                     unitsForKb(entry.kb, spec.unit_sectors)),
                 entry.write ? AccessType::Write : AccessType::Read,
                 entry.weight});
        }
        config.samples = spec.samples;
        config.warmup = spec.warmup;
        config.seed = options.seed;
        config.offsets = compiled.offsets();
        config.arrival = compiled.arrival();
        config.latency = &latency;

        OpenLoopClient client(config);
        client.start(hub, *workload_target);
        run();

        OpenLoopResult result = client.result();
        outcome.mean_ms = result.mean_response_ms;
        outcome.throughput_per_s = result.completed_per_s;
        outcome.samples = result.samples;
        outcome.max_outstanding = result.max_outstanding;
    }

    outcome.p50_ms = latency.quantile(0.50);
    outcome.p95_ms = latency.quantile(0.95);
    outcome.p99_ms = latency.quantile(0.99);
    outcome.p999_ms = latency.quantile(0.999);
    outcome.backend_accesses = static_cast<int64_t>(
        volume ? volume->volumeAccessesIssued()
               : array->accessesIssued());
    outcome.capacity_units = backend.dataUnits();
    for (int s = 0; s < shard_count; ++s) {
        outcome.cost_units +=
            spec.shards[s].disks * devices[s]->costUnits();
        outcome.shard_accesses.push_back(
            static_cast<int64_t>(shard(s).accessesIssued()));
    }

    if (tier) {
        const cache::CacheStats &stats = tier->stats();
        outcome.hit_rate = tier->hitRate();
        outcome.writes_absorbed = stats.writes_absorbed;
        outcome.write_stalls = stats.write_stalls;
        outcome.destage_runs = stats.destage_runs;
        outcome.destage_units = stats.destage_units;
        outcome.dirty_end = tier->dirtyUnits();
        outcome.stalled_end = tier->stalledWrites();
    }
    for (const auto &scheduler : fault_schedulers) {
        const FaultStats &stats = scheduler->stats();
        outcome.rebuilds_completed += stats.rebuilds_completed;
        outcome.failures_applied += stats.failures_applied;
        if (stats.data_loss &&
            (!outcome.data_loss ||
             stats.data_loss_ms < outcome.data_loss_ms))
            outcome.data_loss_ms = stats.data_loss_ms;
        outcome.data_loss = outcome.data_loss || stats.data_loss;
        outcome.degraded_ms += scheduler->degradedMs();
        outcome.rebuild_ms.merge(stats.rebuild_ms);
        outcome.latent_injected += stats.latent_injected;
        outcome.latent_detected += stats.latent_detected;
        if (const Scrubber *scrubber = scheduler->scrubber()) {
            outcome.scrub_repairs += scrubber->errorsRepaired();
            outcome.scrub_units_scanned += scrubber->unitsScanned();
        }
    }

    outcome.events_fired = static_cast<int64_t>(
        engine ? engine->eventsFired() : queue->fired());
    outcome.windows_run =
        engine ? static_cast<int64_t>(engine->windowsRun()) : 0;
    if (volume) {
        outcome.sub_accesses =
            static_cast<int64_t>(volume->subAccessesIssued());
        for (int s = 0; s < shard_count; ++s) {
            outcome.max_in_flight =
                std::max(outcome.max_in_flight, volume->maxInFlight(s));
        }
        outcome.degraded_shards_end = volume->degradedShards();
    }

    if (capture) {
        std::ofstream out(options.capture_path, std::ios::trunc);
        if (!out)
            throw std::runtime_error("runScenario: cannot write trace " +
                                     options.capture_path);
        traffic::writeTrace(out, capture->records());
        std::fprintf(stderr, "[Scenario] captured %zu accesses to %s\n",
                     capture->records().size(),
                     options.capture_path.c_str());
    }
    return outcome;
}

namespace {

struct ObjectiveName
{
    Objective objective;
    const char *name;
};

constexpr ObjectiveName kObjectiveNames[] = {
    {Objective::P99, "p99"},
    {Objective::P999, "p999"},
    {Objective::Mean, "mean"},
    {Objective::P95, "p95"},
};

} // namespace

const char *
objectiveName(Objective objective)
{
    for (const ObjectiveName &entry : kObjectiveNames) {
        if (entry.objective == objective)
            return entry.name;
    }
    return kObjectiveNames[0].name;
}

bool
parseObjective(const std::string &text, Objective &objective,
               std::string &error)
{
    for (const ObjectiveName &entry : kObjectiveNames) {
        if (text == entry.name) {
            objective = entry.objective;
            return true;
        }
    }
    error = "expected p99, p999, p95 or mean";
    return false;
}

double
objectiveOf(const ScenarioOutcome &outcome, Objective objective)
{
    // Correctness gates first: a config that loses data or wedges
    // its cache cannot buy its way back with a pretty tail.
    if (outcome.data_loss || outcome.stalled_end > 0 ||
        outcome.samples <= 0)
        return std::numeric_limits<double>::infinity();
    switch (objective) {
    case Objective::P99:
        return outcome.p99_ms;
    case Objective::P999:
        return outcome.p999_ms;
    case Objective::Mean:
        return outcome.mean_ms;
    case Objective::P95:
        return outcome.p95_ms;
    }
    return outcome.p99_ms;
}

} // namespace tune
} // namespace pddl
