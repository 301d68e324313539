#include "stack.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "disk/device_model.hh"
#include "traffic/arrival.hh"
#include "traffic/offset_dist.hh"

namespace pddl {
namespace perf {

namespace {

[[noreturn]] void
unsupported(const std::string &what)
{
    throw std::runtime_error("bench stack does not mirror " + what);
}

} // namespace

int64_t
unitsForKb(int64_t kb, int unit_sectors)
{
    const int64_t units = kb * 2 / unit_sectors;
    return units < 1 ? 1 : units;
}

std::unique_ptr<PlacementPolicy>
makePlacement(const ScenarioSpec &spec)
{
    if (spec.allocation != "striped")
        unsupported("allocation '" + spec.allocation + "'");
    if (spec.placement == "rotate")
        return std::make_unique<RotatedPlacement>();
    if (spec.placement != "static")
        unsupported("placement '" + spec.placement + "'");
    return nullptr;
}

std::unique_ptr<VolumeManager>
buildVolume(ParallelEngine &engine, const ScenarioSpec &spec,
            const PlacementPolicy *placement, obs::Probe probe)
{
    std::vector<ShardSpec> shard_specs(spec.shards.size());
    for (size_t s = 0; s < spec.shards.size(); ++s) {
        const ScenarioShard &shard = spec.shards[s];
        ShardSpec &out = shard_specs[s];
        out.layout_spec = shard.layout;
        out.device_spec = shard.device;
        out.disks = shard.disks;
        out.tier = shard.tier;
        out.array.unit_sectors = spec.unit_sectors;
        out.array.sstf_window = spec.sstf_window;
        out.array.probe = probe;
        if (shard.failed_disk >= 0) {
            out.array.mode = ArrayMode::Degraded;
            out.array.failed_disk = shard.failed_disk;
        }
    }
    VolumeConfig vconfig;
    vconfig.chunk_units = spec.chunk_units;
    vconfig.dispatch_ms = spec.dispatch_ms;
    vconfig.allocation = VolumeAllocation::Striped;
    vconfig.placement = placement;
    vconfig.probe = probe;
    return std::make_unique<VolumeManager>(engine, std::move(shard_specs),
                                           vconfig);
}

cache::CacheConfig
cacheConfig(const ScenarioSpec &spec, obs::Probe probe)
{
    cache::CacheConfig config;
    // Capacity is budgeted in KB; floor to whole sets.
    int64_t capacity = unitsForKb(spec.cache_kb, spec.unit_sectors);
    capacity -= capacity % spec.cache_ways;
    if (capacity < spec.cache_ways)
        capacity = spec.cache_ways;
    config.capacity_units = capacity;
    config.ways = spec.cache_ways;
    config.hit_ms = spec.cache_hit_ms;
    config.high_water = spec.cache_high;
    config.low_water = spec.cache_low;
    config.max_run_units = spec.cache_run_units;
    config.destage_width = spec.cache_width;
    config.probe = probe;
    return config;
}

ParallelEngine::Config
engineConfig(const ScenarioSpec &spec)
{
    ParallelEngine::Config config;
    config.threads = 1;
    config.lookahead = spec.dispatch_ms;
    return config;
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

int64_t
SpanRecorder::begin(const char *name, uint64_t seq)
{
    Span span;
    span.name = name;
    span.seq = seq;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - origin_)
                        .count();
    spans_.push_back(span);
    const int64_t index = static_cast<int64_t>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void
SpanRecorder::end(int64_t index)
{
    spans_[static_cast<size_t>(index)].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - origin_)
            .count();
    open_.pop_back();
}

bool
SpanRecorder::writeChromeJson(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::fprintf(out,
                     "%s\n{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"seq\":%llu,\"parent\":%lld}}",
                     i == 0 ? "" : ",", span.name, span.start_ns / 1e3,
                     (span.end_ns - span.start_ns) / 1e3, i,
                     static_cast<unsigned long long>(span.seq),
                     static_cast<long long>(span.parent));
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

void
SpanTarget::access(int64_t start_unit, int count, AccessType type,
                   InlineCallback done)
{
    const uint64_t seq = crossed_++;
    if (seq % kSampleEvery != 0) {
        inner_.access(start_unit, count, type, std::move(done));
        return;
    }
    const int64_t span = recorder_.begin(name_, seq);
    inner_.access(start_unit, count, type, std::move(done));
    recorder_.end(span);
}

Stack::Stack(const ScenarioSpec &spec, const StackOptions &options)
    : spec_(spec),
      engine_(static_cast<int>(spec.shards.size()), engineConfig(spec)),
      placement_(makePlacement(spec))
{
    const bool traced = options.spans != nullptr;
    const obs::Probe layer_probe =
        traced ? obs::Probe(&layer_registry_, nullptr) : obs::Probe();
    if (traced) {
        engine_.hubQueue().setProbe(layer_probe);
        for (int s = 0; s < engine_.shardLanes(); ++s)
            engine_.shardQueue(s).setProbe(layer_probe);
    }
    volume_ = buildVolume(engine_, spec, placement_.get(), layer_probe);

    // One fault scheduler per shard with scripted failures, on that
    // shard's lane, started before the client as runScenario does.
    for (int s = 0; s < volume_->shardCount(); ++s) {
        FaultSchedule schedule;
        for (const ScenarioFault &fault : spec.faults) {
            if (fault.shard == s) {
                schedule.events.push_back(
                    {fault.when_ms, FaultEvent::Kind::DiskFailure,
                     fault.disk, 0});
            }
        }
        if (schedule.events.empty())
            continue;
        FaultScheduler::Options foptions;
        foptions.rebuild_parallel = spec.rebuild_parallel;
        auto scheduler = std::make_unique<FaultScheduler>(
            engine_.shardQueue(s), std::move(schedule), foptions);
        scheduler->bindArray(volume_->shard(s));
        scheduler->start();
        faults_.push_back(std::move(scheduler));
    }

    std::vector<const DeviceModel *> devices;
    for (int s = 0; s < volume_->shardCount(); ++s)
        devices.push_back(&volume_->shardDevice(s));
    client_registry_.setHistogramBounds(
        device::latencyBoundsForDevices(devices));
    const obs::Probe client_probe(&client_registry_, nullptr);

    Target *backend = volume_.get();
    if (traced) {
        volume_span_ = std::make_unique<SpanTarget>(
            spec.cache_enabled ? "cache->volume" : "client->volume",
            *volume_, *options.spans);
        backend = volume_span_.get();
    }
    if (spec.cache_enabled) {
        tier_ = std::make_unique<cache::CacheTier>(
            engine_.hubQueue(), *backend,
            cacheConfig(spec, client_probe));
        top_ = tier_.get();
        if (traced) {
            top_span_ = std::make_unique<SpanTarget>(
                "client->cache", *tier_, *options.spans);
            top_ = top_span_.get();
        }
    } else {
        top_ = backend;
    }

    std::string why;
    if (spec.client == "closed") {
        ClosedLoopConfig config;
        config.clients = spec.clients;
        const ScenarioMix entry =
            spec.mix.empty() ? ScenarioMix{} : spec.mix.front();
        config.access_units =
            static_cast<int>(unitsForKb(entry.kb, spec.unit_sectors));
        config.type = entry.write ? AccessType::Write : AccessType::Read;
        config.think_time_ms = spec.think_ms;
        config.min_samples = spec.samples;
        config.max_samples = spec.samples;
        config.warmup = spec.warmup;
        config.seed = options.seed;
        if (!traffic::parseOffsetSpec(spec.offsets, config.offsets, why))
            unsupported("offsets: " + why);
        config.probe = client_probe;
        closed_ = std::make_unique<ClosedLoopClient>(config);
    } else {
        OpenLoopConfig config;
        config.arrivals_per_s = spec.arrivals_per_s;
        for (const ScenarioMix &entry : spec.mix) {
            config.mix.push_back(
                {static_cast<int>(unitsForKb(entry.kb, spec.unit_sectors)),
                 entry.write ? AccessType::Write : AccessType::Read,
                 entry.weight});
        }
        config.samples = spec.samples;
        config.warmup = spec.warmup;
        config.seed = options.seed;
        if (!traffic::parseOffsetSpec(spec.offsets, config.offsets, why))
            unsupported("offsets: " + why);
        if (!traffic::parseArrivalSpec(spec.arrival, config.arrival, why))
            unsupported("arrival: " + why);
        config.probe = client_probe;
        open_ = std::make_unique<OpenLoopClient>(config);
    }
}

Stack::~Stack() = default;

void
Stack::start()
{
    if (closed_)
        startOnHub(*closed_, engine_, *top_);
    else
        startOnHub(*open_, engine_, *top_);
}

void
Stack::run()
{
    engine_.run();
}

tune::ScenarioOutcome
Stack::outcome()
{
    tune::ScenarioOutcome outcome;
    const Clock::time_point start = Clock::now();
    if (closed_) {
        const SimResult result = closed_->result();
        result_s_ = secondsSince(start);
        outcome.mean_ms = result.mean_response_ms;
        outcome.throughput_per_s = result.throughput_per_s;
        outcome.samples = result.samples;
        outcome.max_outstanding = spec_.clients;
    } else {
        const OpenLoopResult result = open_->result();
        result_s_ = secondsSince(start);
        outcome.mean_ms = result.mean_response_ms;
        outcome.throughput_per_s = result.completed_per_s;
        outcome.samples = result.samples;
        outcome.max_outstanding = result.max_outstanding;
    }

    const obs::MetricsSnapshot snapshot = client_registry_.snapshot();
    if (const obs::HistogramData *latency =
            snapshot.histogram("client.latency_ms")) {
        outcome.p50_ms = latency->quantile(0.50);
        outcome.p95_ms = latency->quantile(0.95);
        outcome.p99_ms = latency->quantile(0.99);
        outcome.p999_ms = latency->quantile(0.999);
    }
    outcome.backend_accesses =
        static_cast<int64_t>(volume_->volumeAccessesIssued());
    outcome.capacity_units = volume_->dataUnits();
    for (int s = 0; s < volume_->shardCount(); ++s) {
        outcome.cost_units +=
            spec_.shards[static_cast<size_t>(s)].disks *
            volume_->shardDevice(s).costUnits();
        outcome.shard_accesses.push_back(
            static_cast<int64_t>(volume_->shard(s).accessesIssued()));
    }
    if (tier_) {
        const cache::CacheStats &stats = tier_->stats();
        outcome.hit_rate = tier_->hitRate();
        outcome.writes_absorbed = stats.writes_absorbed;
        outcome.write_stalls = stats.write_stalls;
        outcome.destage_runs = stats.destage_runs;
        outcome.destage_units = stats.destage_units;
        outcome.dirty_end = tier_->dirtyUnits();
        outcome.stalled_end = tier_->stalledWrites();
    }
    for (const auto &scheduler : faults_) {
        const FaultStats &stats = scheduler->stats();
        outcome.rebuilds_completed += stats.rebuilds_completed;
        outcome.data_loss = outcome.data_loss || stats.data_loss;
    }
    return outcome;
}

double
setupSeconds(const Workload &workload, uint64_t seed, int builds)
{
    std::vector<double> samples;
    StackOptions options;
    options.seed = seed;
    for (int b = 0; b < builds; ++b) {
        const double start = cpuSeconds();
        const ScenarioSpec spec = parseWorkloadSpec(workload);
        Stack stack(spec, options);
        stack.start();
        samples.push_back(cpuSeconds() - start);
        // The stack is torn down outside the timed region.
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

} // namespace perf
} // namespace pddl
