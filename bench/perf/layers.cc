#include "layers.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "alloc_counter.hh"
#include "array/controller.hh"
#include "array/reconstruction.hh"
#include "core/imbalance.hh"
#include "core/layout_spec.hh"
#include "disk/device_model.hh"
#include "disk/disk.hh"
#include "stack.hh"
#include "traffic/arrival.hh"
#include "traffic/offset_dist.hh"
#include "traffic/trace.hh"
#include "util/rng.hh"

namespace pddl {
namespace perf {

namespace {

/** Accesses in the captured prefix the microbenches replay. */
constexpr int64_t kPrefixAccesses = 100000;

/** Completion delay of the cache microbench's stub backend, ms. */
constexpr double kStubDelayMs = 5.0;

/** Defeats dead-code elimination of timed loops. */
volatile int64_t g_sink = 0;

/** Median of `passes` timings of `body`, in ns per op. */
template <typename Body>
double
nsPerOp(int passes, int64_t ops, Body &&body)
{
    std::vector<double> samples;
    for (int p = 0; p < passes; ++p) {
        const Clock::time_point start = Clock::now();
        body();
        samples.push_back(secondsSince(start) * 1e9 /
                          static_cast<double>(ops));
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/** Median of `passes` timings of `body`, in ms. */
template <typename Body>
double
msMedian(int passes, Body &&body)
{
    return nsPerOp(passes, 1, body) / 1e6;
}

/** Target that completes every access after a fixed delay. */
class StubTarget final : public Target
{
  public:
    StubTarget(EventQueue &events, int64_t units)
        : events_(events), units_(units)
    {
    }

    int64_t dataUnits() const override { return units_; }

    void
    access(int64_t, int, AccessType, InlineCallback done) override
    {
        ++issued_;
        events_.scheduleAfter(kStubDelayMs, std::move(done));
    }

    SeekTally aggregateTally() const override { return {}; }
    uint64_t accessesIssued() const override { return issued_; }

  private:
    EventQueue &events_;
    int64_t units_;
    uint64_t issued_ = 0;
};

/** One self-rescheduling timer of the event-queue mesh. */
struct Timer
{
    EventQueue *queue;
    double delta_ms;

    void
    fire()
    {
        queue->scheduleAfter(delta_ms, [this] { fire(); });
    }
};

/** Keeps `depth` requests queued on one disk until `total` finish. */
struct DiskPump
{
    Disk *disk;
    const std::vector<int64_t> *lbas;
    int sectors;
    int64_t total;
    int64_t issued = 0;

    void
    submitNext()
    {
        if (issued >= total)
            return;
        DiskRequest request;
        request.lba = (*lbas)[static_cast<size_t>(issued) % lbas->size()];
        request.sectors = sectors;
        request.write = (issued & 3) == 0;
        request.access_id = static_cast<uint64_t>(issued);
        request.done = [this] { submitNext(); };
        ++issued;
        disk->submit(std::move(request));
    }
};

/** Collects metrics in the traced-run document. */
class MetricSink
{
  public:
    void
    put(const char *name, double value, const char *unit,
        const char *layer)
    {
        Json entry = Json::object();
        entry.set("value", value).set("unit", unit).set("layer", layer);
        metrics_.set(name, std::move(entry));
    }

    Json take() { return std::move(metrics_); }

  private:
    Json metrics_ = Json::object();
};

/** Divide, reporting 0 for an empty base. */
double
ratio(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

/** The workload's offered accesses, captured from runScenario. */
std::vector<traffic::TraceRecord>
capturePrefix(const Workload &workload, uint64_t seed,
              const std::string &out_dir)
{
    ScenarioSpec spec = workload.spec;
    const int64_t prefix =
        workload.quick ? kPrefixAccesses / kQuickDivisor : kPrefixAccesses;
    if (clientAccesses(spec) > prefix) {
        spec.warmup = std::min<int64_t>(spec.warmup, prefix / 10);
        spec.samples = prefix - spec.warmup;
    }
    tune::RunScenarioOptions options;
    options.seed = seed;
    options.capture_path =
        out_dir + "/capture_" + workload.name + ".trace";
    tune::runScenario(spec, options);
    std::vector<traffic::TraceRecord> records =
        traffic::loadTrace(options.capture_path);
    std::remove(options.capture_path.c_str());
    if (records.empty())
        throw std::runtime_error("captured prefix is empty");
    return records;
}

} // namespace

Json
tracedRun(const Workload &workload, uint64_t seed,
          const std::string &out_dir)
{
    const ScenarioSpec &spec = workload.spec;
    const int64_t div = workload.quick ? kQuickDivisor : 1;
    const int passes = workload.quick ? 1 : 3;
    MetricSink sink;
    Json doc = Json::object();
    Rng rng(seed);

    // ---- (b) the instrumented run, against runScenario ----
    tune::RunScenarioOptions options;
    options.seed = seed;
    Clock::time_point start = Clock::now();
    const tune::ScenarioOutcome reference =
        tune::runScenario(spec, options);
    const double untraced_s = secondsSince(start);

    SpanRecorder spans;
    Stack stack(spec, StackOptions{seed, &spans});
    start = Clock::now();
    stack.start();
    stack.run();
    const double traced_s = secondsSince(start);
    const tune::ScenarioOutcome outcome = stack.outcome();

    const std::string scenario_digest = outcomeDigest(reference);
    const std::string stack_digest = outcomeDigest(outcome);
    doc.set("digest_scenario", scenario_digest)
        .set("digest_stack", stack_digest);
    std::string error;
    if (scenario_digest != stack_digest)
        error = "traced stack digest " + stack_digest +
                " differs from runScenario's " + scenario_digest;
    else if (std::string why = checkOutcome(spec, outcome); !why.empty())
        error = "traced stack: " + why;

    const std::string trace_path =
        out_dir + "/trace_" + workload.name + ".json";
    if (!spans.writeChromeJson(trace_path))
        error = "cannot write " + trace_path;
    doc.set("trace_path", trace_path);

    const double accesses = static_cast<double>(clientAccesses(spec));
    VolumeManager &run_volume = stack.volume();
    double busy_ms = 0.0;
    int disk_count = 0;
    for (int s = 0; s < run_volume.shardCount(); ++s) {
        const ArrayController &array = run_volume.shard(s);
        for (int d = 0; d < array.layout().numDisks(); ++d, ++disk_count)
            busy_ms += array.disk(d).busyMs();
    }
    double issue_ns = 0.0;
    int issue_spans = 0;
    for (const Span &span : spans.spans()) {
        if (std::string(span.name).find("->volume") != std::string::npos) {
            issue_ns += static_cast<double>(span.end_ns - span.start_ns);
            ++issue_spans;
        }
    }
    const obs::MetricsSnapshot layer_snapshot =
        stack.layerRegistry().snapshot();
    obs::MetricsSnapshot names = layer_snapshot;
    names.merge(stack.clientRegistry().snapshot());

    sink.put("sim.events_per_access",
             static_cast<double>(stack.engine().eventsFired()) / accesses,
             "count", "sim");
    sink.put("sim.windows_per_access",
             static_cast<double>(stack.engine().windowsRun()) / accesses,
             "count", "sim");
    sink.put("volume.subaccesses_per_access",
             ratio(static_cast<double>(run_volume.subAccessesIssued()),
                   static_cast<double>(run_volume.volumeAccessesIssued())),
             "count", "volume");
    sink.put("volume.issue_ns", ratio(issue_ns, issue_spans), "ns",
             "volume");
    sink.put("array.physops_per_access",
             layer_snapshot.counter("array.phys_ops") / accesses, "count",
             "array");
    sink.put("disk.utilization",
             ratio(busy_ms, disk_count * stack.engine().now()), "ratio",
             "disk");
    sink.put("workload.result_ms", stack.resultSeconds() * 1e3, "ms",
             "workload");
    sink.put("obs.trace_overhead_frac", 1.0 - untraced_s / traced_s,
             "ratio", "obs");

    // ---- (a) microbenches on the captured prefix ----
    const std::vector<traffic::TraceRecord> records =
        capturePrefix(workload, seed, out_dir);
    const int64_t n = static_cast<int64_t>(records.size());

    ParallelEngine engine(static_cast<int>(spec.shards.size()),
                          engineConfig(spec));
    const std::unique_ptr<PlacementPolicy> placement = makePlacement(spec);
    const std::unique_ptr<VolumeManager> volume =
        buildVolume(engine, spec, placement.get(), obs::Probe());
    const int64_t domain = volume->dataUnits();
    int max_units = 1;
    for (const ScenarioMix &entry : spec.mix)
        max_units = std::max<int>(
            max_units, static_cast<int>(
                           unitsForKb(entry.kb, spec.unit_sectors)));
    const int small = static_cast<int>(unitsForKb(8, spec.unit_sectors));
    const int large = static_cast<int>(unitsForKb(96, spec.unit_sectors));

    // traffic
    std::string why;
    traffic::OffsetSpec offset_spec;
    traffic::ArrivalSpec arrival_spec;
    if (!traffic::parseOffsetSpec(spec.offsets, offset_spec, why) ||
        !traffic::parseArrivalSpec(spec.arrival, arrival_spec, why))
        throw std::runtime_error(why);
    {
        const traffic::OffsetSampler sampler(offset_spec, domain);
        const int64_t draws = 2000000 / div;
        sink.put("traffic.offset_draw_ns",
                 nsPerOp(passes, draws,
                         [&] {
                             int64_t sum = 0;
                             for (int64_t i = 0; i < draws; ++i)
                                 sum += sampler.sample(rng,
                                                       domain - max_units);
                             g_sink = sum;
                         }),
                 "ns", "traffic");
        sink.put("traffic.arrival_draw_ns",
                 nsPerOp(passes, draws,
                         [&] {
                             traffic::ArrivalSampler arrivals(
                                 arrival_spec, spec.arrivals_per_s);
                             double now = 0.0;
                             for (int64_t i = 0; i < draws; ++i)
                                 now += arrivals.nextGapMs(rng, now);
                             g_sink = static_cast<int64_t>(now);
                         }),
                 "ns", "traffic");
        sink.put("traffic.sampler_build_ms",
                 msMedian(workload.quick ? 1 : 5,
                          [&] {
                              const traffic::OffsetSampler built(
                                  offset_spec, domain);
                              g_sink = built.sample(rng, 0);
                          }),
                 "ms", "traffic");
    }

    // cache: the prefix through a tier over a fixed-delay stub
    {
        cache::CacheStats stats;
        uint64_t allocations = 0;
        const double access_ns = nsPerOp(passes, n, [&] {
            EventQueue events;
            StubTarget stub(events, domain);
            obs::MetricsRegistry registry;
            cache::CacheTier tier(
                events, stub,
                cacheConfig(spec, obs::Probe(&registry, nullptr)));
            const uint64_t before = allocationCount();
            for (const traffic::TraceRecord &record : records) {
                events.runUntil(record.when_ms);
                tier.access(record.unit, record.units, record.type,
                            [] {});
            }
            events.runUntilEmpty();
            allocations = allocationCount() - before;
            stats = tier.stats();
        });
        sink.put("cache.access_ns", access_ns, "ns", "cache");
        sink.put("cache.allocs_per_access",
                 static_cast<double>(allocations) / static_cast<double>(n),
                 "count", "cache");
        sink.put("cache.served_frac",
                 static_cast<double>(stats.read_hits +
                                     stats.writes_absorbed) /
                     static_cast<double>(n),
                 "ratio", "cache");
        sink.put("cache.units_per_destage",
                 ratio(static_cast<double>(stats.destage_units),
                       static_cast<double>(stats.destage_runs)),
                 "count", "cache");
    }

    // volume
    std::vector<int64_t> local_starts;
    {
        const int64_t shard_units = volume->shardDataUnits();
        for (const traffic::TraceRecord &record : records) {
            const VolumeAddress home = volume->route(record.unit);
            local_starts.push_back(std::min<int64_t>(
                home.unit, shard_units - std::max(large, max_units)));
        }
        const int64_t routes = 2000000 / div;
        sink.put("volume.route_ns",
                 nsPerOp(passes, routes,
                         [&] {
                             int64_t sum = 0;
                             for (int64_t i = 0; i < routes; ++i) {
                                 const VolumeAddress home = volume->route(
                                     records[static_cast<size_t>(i % n)]
                                         .unit);
                                 sum += home.unit + home.shard;
                             }
                             g_sink = sum;
                         }),
                 "ns", "volume");
        sink.put("volume.build_ms",
                 msMedian(workload.quick ? 1 : 5,
                          [&] {
                              ParallelEngine built_engine(
                                  static_cast<int>(spec.shards.size()),
                                  engineConfig(spec));
                              const auto built = buildVolume(
                                  built_engine, spec, placement.get(),
                                  obs::Probe());
                              g_sink = built->dataUnits();
                          }),
                 "ms", "volume");
    }

    // array: request expansion per access shape and mode
    const ArrayController &shard0 = volume->shard(0);
    const Layout &layout = shard0.layout();
    {
        const RequestMapper fault_free(layout);
        const RequestMapper degraded(layout, ArrayMode::Degraded, 0);
        struct Shape
        {
            const char *name;
            const RequestMapper *mapper;
            int units;
            AccessType type;
        };
        const Shape shapes[] = {
            {"array.expand_ns.write_ff", &fault_free, small,
             AccessType::Write},
            {"array.expand_ns.read_ff", &fault_free, large,
             AccessType::Read},
            {"array.expand_ns.read_degraded", &degraded, large,
             AccessType::Read},
            {"array.expand_ns.write_degraded", &degraded, large,
             AccessType::Write},
        };
        std::vector<PhysOp> ops;
        for (const Shape &shape : shapes) {
            const int64_t expansions = 2000000 / div / shape.units;
            sink.put(shape.name,
                     nsPerOp(passes, expansions,
                             [&] {
                                 int64_t sum = 0;
                                 for (int64_t i = 0; i < expansions; ++i) {
                                     shape.mapper->expandInto(
                                         local_starts[static_cast<size_t>(
                                             i % n)],
                                         shape.units, shape.type, ops);
                                     sum += static_cast<int64_t>(
                                         ops.size());
                                 }
                                 g_sink = sum;
                             }),
                     "ns", "array");
        }

        // Rebuild of an idle shard over a bounded stripe count.
        const int64_t stripes = 100000 / div;
        EventQueue events;
        ArrayConfig config;
        config.unit_sectors = spec.unit_sectors;
        config.sstf_window = spec.sstf_window;
        ArrayController array(events, layout, volume->shardDevice(0),
                              config);
        array.transition(ArrayState::Degraded, 0);
        ReconstructionEngine rebuild(events, array, 0, stripes,
                                     spec.rebuild_parallel);
        start = Clock::now();
        rebuild.start([] {});
        events.runUntilEmpty();
        sink.put("array.rebuild_ns_per_stripe",
                 secondsSince(start) * 1e9 / static_cast<double>(stripes),
                 "ns", "array");
    }

    // layout
    {
        const int64_t maps = 2000000 / div;
        sink.put("layout.map_ns.pddl",
                 nsPerOp(passes, maps,
                         [&] {
                             int64_t sum = 0;
                             for (int64_t i = 0; i < maps; ++i) {
                                 const PhysAddr home = layout.map(
                                     layout.virtualOf(
                                         local_starts[static_cast<size_t>(
                                             i % n)]));
                                 sum += home.disk + home.unit;
                             }
                             g_sink = sum;
                         }),
                 "ns", "layout");
        const int disks = spec.shards.front().disks;
        const std::string draid =
            "draid:width=4,spares=1,rows=64,seed=" +
            std::to_string(seed % (1u << 20));
        for (const auto &[name, layout_spec] :
             {std::pair<const char *, std::string>{
                  "layout.table_build_ms.pddl", spec.shards.front().layout},
              {"layout.table_build_ms.draid", draid}}) {
            sink.put(name,
                     msMedian(workload.quick ? 1 : 5,
                              [&] {
                                  const auto built = layouts::makeLayout(
                                      layout_spec, disks);
                                  g_sink = built->map({0, 0}).unit;
                              }),
                     "ms", "layout");
        }
    }

    // disk: the prefix's physical homes through one drive
    {
        std::vector<int64_t> lbas;
        const DeviceModel &device = volume->shardDevice(0);
        for (int64_t start_unit : local_starts) {
            const PhysAddr home = layout.map(layout.virtualOf(start_unit));
            lbas.push_back(home.unit * spec.unit_sectors);
        }
        for (const auto &[name, queue_depth] :
             {std::pair<const char *, int>{"disk.op_ns.qd1", 1},
              {"disk.op_ns.qd32", 32}}) {
            const int depth = queue_depth;
            const int64_t total = 250000 / div;
            sink.put(name,
                     nsPerOp(passes, total,
                             [&] {
                                 EventQueue events;
                                 Disk disk(events, device,
                                           spec.sstf_window);
                                 DiskPump pump{&disk, &lbas,
                                               spec.unit_sectors, total};
                                 for (int d = 0; d < depth; ++d)
                                     pump.submitNext();
                                 events.runUntilEmpty();
                                 g_sink = pump.issued;
                             }),
                     "ns", "disk");
        }
        const DeviceModel &hp2247 = device::hp2247();
        const int64_t services = 1000000 / div;
        sink.put("disk.service_ns.hp2247",
                 nsPerOp(passes, services,
                         [&] {
                             MechState state;
                             double now = 0.0;
                             for (int64_t i = 0; i < services; ++i) {
                                 now += hp2247.serviceTime(
                                     now,
                                     lbas[static_cast<size_t>(i % n)],
                                     spec.unit_sectors, (i & 3) == 0,
                                     state);
                             }
                             g_sink = static_cast<int64_t>(now);
                         }),
                 "ns", "disk");
    }

    // sim: the bare event queue at two pending-set sizes
    for (const auto &[name, pending] :
         {std::pair<const char *, int>{"sim.event_ns.p64", 64},
          {"sim.event_ns.p4096", 4096}}) {
        const int timers = pending;
        const int64_t events_fired = 1000000 / div;
        sink.put(name,
                 nsPerOp(passes, events_fired,
                         [&] {
                             EventQueue events;
                             std::vector<Timer> mesh;
                             mesh.reserve(static_cast<size_t>(timers));
                             for (int t = 0; t < timers; ++t) {
                                 mesh.push_back(
                                     Timer{&events, 0.25 + 0.5 * rng.uniform()});
                                 mesh.back().fire();
                             }
                             const uint64_t until =
                                 events.fired() +
                                 static_cast<uint64_t>(events_fired);
                             while (events.fired() < until)
                                 events.runOne();
                             g_sink = static_cast<int64_t>(events.now());
                         }),
                 "ns", "sim");
    }

    // obs: the registry calls the run made, by their real names
    {
        std::vector<std::string> counters;
        std::vector<std::string> histograms;
        for (const auto &entry : names.counters)
            counters.push_back(entry.first);
        for (const auto &entry : names.histograms)
            histograms.push_back(entry.first);
        // A build with the probes compiled out records no names.
        if (counters.empty())
            counters.push_back("client.latency_ms");
        if (histograms.empty())
            histograms.push_back("client.latency_ms");
        const int64_t calls = 1000000 / div;
        uint64_t allocations = 0;
        obs::MetricsRegistry registry;
        sink.put("obs.observe_ns",
                 nsPerOp(passes, calls,
                         [&] {
                             const uint64_t before = allocationCount();
                             for (int64_t i = 0; i < calls; ++i)
                                 registry.observe(
                                     histograms[static_cast<size_t>(i) %
                                                histograms.size()]
                                         .c_str(),
                                     static_cast<double>(i & 1023) * 0.1);
                             allocations += allocationCount() - before;
                         }),
                 "ns", "obs");
        sink.put("obs.add_ns",
                 nsPerOp(passes, calls,
                         [&] {
                             const uint64_t before = allocationCount();
                             for (int64_t i = 0; i < calls; ++i)
                                 registry.add(
                                     counters[static_cast<size_t>(i) %
                                              counters.size()]
                                         .c_str());
                             allocations += allocationCount() - before;
                         }),
                 "ns", "obs");
        sink.put("obs.allocs_per_call",
                 static_cast<double>(allocations) /
                     static_cast<double>(2 * passes * calls),
                 "count", "obs");
    }

    // core
    {
        const int64_t parses = 2000 / div;
        sink.put("core.spec_parse_us",
                 nsPerOp(passes, parses,
                         [&] {
                             for (int64_t i = 0; i < parses; ++i)
                                 g_sink = ScenarioSpec::parseOrThrow(
                                              workload.text)
                                              .samples;
                         }) /
                     1e3,
                 "us", "core");
        sink.put("core.imbalance_ms",
                 msMedian(workload.quick ? 1 : 5,
                          [&] {
                              g_sink = ImbalanceEvaluator::forLayout(layout)
                                           .metrics(1)
                                           .cases;
                          }),
                 "ms", "core");
    }

    // tune: the autotune protocol from its baseline
    {
        const Workload baseline = loadWorkload("autotune", workload.quick);
        const tune::TuneOptions toptions = tuneOptions(seed, workload.quick);
        sink.put("tune.eval_ms",
                 msMedian(passes,
                          [&] {
                              tune::evaluateScenario(
                                  baseline.spec, toptions.eval_seeds,
                                  toptions.objective, 0, -1, 1);
                          }),
                 "ms", "tune");
        const tune::TuneResult result =
            tune::tune(baseline.spec, toptions);
        double memo_hits = 0.0;
        double rejects = 0.0;
        for (const tune::TuneChain &chain : result.chains) {
            memo_hits += chain.memo_hits;
            rejects += chain.surrogate_rejects;
        }
        const double moves =
            static_cast<double>(toptions.chains * toptions.moves);
        sink.put("tune.memo_hit_frac", memo_hits / moves, "ratio", "tune");
        sink.put("tune.surrogate_reject_frac", rejects / moves, "ratio",
                 "tune");
    }

    doc.set("metrics", sink.take()).set("error", error);
    return doc;
}

} // namespace perf
} // namespace pddl
