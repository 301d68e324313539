/**
 * @file
 * Observability layer: metrics registry merge semantics, tracer ring
 * behavior and Chrome export, and the Probe facade (both the sink
 * dispatch and the guarantees the no-op build relies on).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/probe.hh"
#include "obs/trace.hh"
#include "util/rng.hh"

namespace pddl {
namespace obs {
namespace {

TEST(MetricsRegistry, CountersGaugesAndHistogramsRoundTrip)
{
    MetricsRegistry registry;
    registry.add("a.count");
    registry.add("a.count", 2.0);
    registry.gaugeMax("a.gauge", 3.0);
    registry.gaugeMax("a.gauge", 1.0); // lower: ignored by max-merge
    registry.observe("a.lat_ms", 0.5);
    registry.observe("a.lat_ms", 100.0);

    MetricsSnapshot snap = registry.snapshot();
    EXPECT_DOUBLE_EQ(snap.counter("a.count"), 3.0);
    EXPECT_DOUBLE_EQ(snap.gauge("a.gauge"), 3.0);
    const HistogramData *h = snap.histogram("a.lat_ms");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 2);
    EXPECT_DOUBLE_EQ(h->sum, 100.5);
    EXPECT_DOUBLE_EQ(h->min, 0.5);
    EXPECT_DOUBLE_EQ(h->max, 100.0);
    int64_t bucket_total = 0;
    for (int64_t c : h->counts)
        bucket_total += c;
    EXPECT_EQ(bucket_total, h->count);
}

TEST(MetricsRegistry, MissingSeriesReadAsZeroOrNull)
{
    MetricsRegistry registry;
    MetricsSnapshot snap = registry.snapshot();
    EXPECT_TRUE(snap.empty());
    EXPECT_DOUBLE_EQ(snap.counter("nope"), 0.0);
    EXPECT_DOUBLE_EQ(snap.gauge("nope"), 0.0);
    EXPECT_EQ(snap.histogram("nope"), nullptr);
}

/**
 * The registry's contract, written the simplest way: one name-keyed
 * std::map per series kind, the storage the interned registry
 * replaced. A single-writer registry must snapshot exactly like it.
 */
struct ReferenceRegistry
{
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> histograms;
    std::vector<double> bounds;

    void add(const char *name, double delta) { counters[name] += delta; }

    void
    gaugeMax(const char *name, double value)
    {
        auto [it, inserted] = gauges.emplace(name, value);
        if (!inserted)
            it->second = std::max(it->second, value);
    }

    void
    observe(const char *name, double value)
    {
        HistogramData &h = histograms[name];
        if (h.bounds.empty()) {
            h.bounds = bounds.empty() ? defaultLatencyBoundsMs() : bounds;
            h.counts.assign(h.bounds.size() + 1, 0);
        }
        ++h.counts[std::upper_bound(h.bounds.begin(), h.bounds.end(),
                                    value) -
                   h.bounds.begin()];
        h.min = h.count == 0 ? value : std::min(h.min, value);
        h.max = h.count == 0 ? value : std::max(h.max, value);
        ++h.count;
        h.sum += value;
    }

    std::string
    json() const
    {
        MetricsSnapshot snap;
        snap.counters.assign(counters.begin(), counters.end());
        snap.gauges.assign(gauges.begin(), gauges.end());
        snap.histograms.assign(histograms.begin(), histograms.end());
        return snap.toJson().dump();
    }
};

TEST(MetricsRegistry, InternedIdsMatchNameKeyedReference)
{
    // Names the audit draws from: short and long (past the 15-char
    // small-string limit), the same text at two addresses (one
    // series), and one buffer rewritten with different text between
    // calls (never aliased to the series its old text named).
    static const char kShort[] = "a.n";
    static const char kLong[] = "component.a_rather_long_metric_name_ms";
    static char dup_a[] = "dup.same_text_two_addresses";
    static char dup_b[] = "dup.same_text_two_addresses";
    ASSERT_NE(static_cast<const void *>(dup_a),
              static_cast<const void *>(dup_b));
    static char reused[64];
    const char *const kReusedTexts[] = {"reused.first", "reused.second",
                                        "reused.a_third_long_text"};
    // Many live copies of a few texts: every copy is a new address,
    // which drives the address table through growth and resets.
    std::vector<std::string> copies;
    for (int i = 0; i < 400; ++i)
        copies.push_back("copy." + std::to_string(i % 5) +
                         ".padding_to_leave_sso");

    MetricsRegistry registry;
    ReferenceRegistry reference;
    Rng rng(20261017);
    const std::vector<double> fine = {0.05, 0.1, 0.2, 0.5, 1.0, 4.0};
    for (int step = 0; step < 20000; ++step) {
        if (step == 7000) {
            // Histograms created from here on take the fine bounds;
            // ones already created keep the defaults.
            registry.setHistogramBounds(fine);
            reference.bounds = fine;
        }
        if (step == 14000) {
            registry.setHistogramBounds({});
            reference.bounds.clear();
        }
        const char *const fixed[] = {kShort, kLong, dup_a, dup_b};
        const uint64_t pick = rng.below(6);
        const char *name = nullptr;
        if (pick < 4) {
            name = fixed[pick];
        } else if (pick == 4) {
            std::strcpy(reused, kReusedTexts[rng.below(3)]);
            name = reused;
        } else {
            name = copies[rng.below(copies.size())].c_str();
        }
        const double value = static_cast<double>(rng.below(5000)) * 0.003;
        const uint64_t op = rng.below(3);
        if (op == 0) {
            registry.add(name, value);
            reference.add(name, value);
        } else if (op == 1) {
            registry.gaugeMax(name, value);
            reference.gaugeMax(name, value);
        } else {
            // Now and then a per-phase suffix, so some histograms are
            // born under each bounds regime.
            std::string phased;
            if (rng.below(8) == 0) {
                phased = std::string(name) + ".p" +
                         std::to_string(step / 7000);
                name = phased.c_str();
            }
            registry.observe(name, value);
            reference.observe(name, value);
        }
    }
    const MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.toJson().dump(), reference.json());

    // Spot checks of the contract the audit covers implicitly.
    EXPECT_NE(snap.counter("dup.same_text_two_addresses"), 0.0);
    EXPECT_NE(snap.counter("reused.second"), 0.0);
    const HistogramData *before = snap.histogram("a.n.p0");
    const HistogramData *during = snap.histogram("a.n.p1");
    ASSERT_NE(before, nullptr);
    ASSERT_NE(during, nullptr);
    EXPECT_EQ(before->bounds, defaultLatencyBoundsMs());
    EXPECT_EQ(during->bounds, fine);
}

TEST(MetricsRegistry, HandoffBetweenThreadsMatchesReference)
{
    // One writer at a time, handed from thread to thread through
    // start and join, accumulates exactly like one thread doing all
    // the writes: the sums see the same values in the same order.
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 1000;
    MetricsRegistry registry;
    ReferenceRegistry reference;
    for (int t = 0; t < kWriters; ++t) {
        std::thread writer([&registry, t] {
            for (int i = 0; i < kPerWriter; ++i) {
                registry.add("w.ops", 1.0);
                registry.gaugeMax("w.peak", t * kPerWriter + i);
                registry.observe("w.lat_ms", (i % 50) * 0.3);
            }
        });
        writer.join();
        for (int i = 0; i < kPerWriter; ++i) {
            reference.add("w.ops", 1.0);
            reference.gaugeMax("w.peak", t * kPerWriter + i);
            reference.observe("w.lat_ms", (i % 50) * 0.3);
        }
    }
    EXPECT_EQ(registry.snapshot().toJson().dump(), reference.json());
}

TEST(MetricsRegistry, ReusedBufferNeverAliasesOldSeries)
{
    MetricsRegistry registry;
    char buffer[32];
    std::strcpy(buffer, "first.series");
    registry.add(buffer, 1.0);
    registry.observe(buffer, 2.0);
    std::strcpy(buffer, "second.series");
    registry.add(buffer, 10.0);
    registry.observe(buffer, 20.0);
    std::strcpy(buffer, "first.series");
    registry.add(buffer, 100.0);
    MetricsSnapshot snap = registry.snapshot();
    EXPECT_DOUBLE_EQ(snap.counter("first.series"), 101.0);
    EXPECT_DOUBLE_EQ(snap.counter("second.series"), 10.0);
    ASSERT_NE(snap.histogram("first.series"), nullptr);
    ASSERT_NE(snap.histogram("second.series"), nullptr);
    EXPECT_DOUBLE_EQ(snap.histogram("first.series")->sum, 2.0);
    EXPECT_DOUBLE_EQ(snap.histogram("second.series")->sum, 20.0);
}

TEST(MetricsSnapshot, MergeSumsCountersAndKeepsGaugeMax)
{
    MetricsRegistry r1, r2;
    r1.add("x", 2.0);
    r1.gaugeMax("g", 5.0);
    r1.observe("h", 1.0);
    r2.add("x", 3.0);
    r2.add("y", 1.0);
    r2.gaugeMax("g", 4.0);
    r2.observe("h", 10.0);

    MetricsSnapshot merged = r1.snapshot();
    merged.merge(r2.snapshot());
    EXPECT_DOUBLE_EQ(merged.counter("x"), 5.0);
    EXPECT_DOUBLE_EQ(merged.counter("y"), 1.0);
    EXPECT_DOUBLE_EQ(merged.gauge("g"), 5.0);
    const HistogramData *h = merged.histogram("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 2);
    EXPECT_DOUBLE_EQ(h->min, 1.0);
    EXPECT_DOUBLE_EQ(h->max, 10.0);
}

TEST(HistogramData, StandaloneSinkMatchesRegistryHistogram)
{
    // The clients' always-compiled latency sink and the registry's
    // histograms share one add path: the same samples over the same
    // bounds give the same buckets, sum and quantiles, bit for bit.
    for (const std::vector<double> &bounds :
         {defaultLatencyBoundsMs(),
          std::vector<double>{0.01, 0.1, 1.0, 10.0}}) {
        MetricsRegistry registry;
        registry.setHistogramBounds(bounds);
        HistogramData sink(bounds);
        Rng rng(17);
        for (int i = 0; i < 5000; ++i) {
            const double value = rng.exponential(40.0);
            registry.observe("client.latency_ms", value);
            sink.add(value);
        }
        const MetricsSnapshot snapshot = registry.snapshot();
        const HistogramData *h = snapshot.histogram("client.latency_ms");
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(sink.toJson().dump(0), h->toJson().dump(0));
        for (double q : {0.5, 0.95, 0.99, 0.999})
            EXPECT_EQ(sink.quantile(q), h->quantile(q)) << q;
    }
}

TEST(HistogramQuantile, EmptyAndSingleSample)
{
    HistogramData empty;
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

    MetricsRegistry registry;
    registry.observe("h", 7.0);
    MetricsSnapshot snapshot = registry.snapshot();
    const HistogramData *h = snapshot.histogram("h");
    ASSERT_NE(h, nullptr);
    // One sample: every quantile is that sample (min/max clamp).
    EXPECT_DOUBLE_EQ(h->quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(h->quantile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(h->quantile(1.0), 7.0);
}

TEST(HistogramQuantile, ClampsOutOfRangeQ)
{
    MetricsRegistry registry;
    registry.observe("h", 1.0);
    registry.observe("h", 100.0);
    MetricsSnapshot snapshot = registry.snapshot();
    const HistogramData *h = snapshot.histogram("h");
    ASSERT_NE(h, nullptr);
    EXPECT_DOUBLE_EQ(h->quantile(-1.0), 1.0);
    EXPECT_DOUBLE_EQ(h->quantile(2.0), 100.0);
}

TEST(HistogramQuantile, MonotoneAndBoundedByObservedRange)
{
    MetricsRegistry registry;
    for (int i = 1; i <= 100; ++i)
        registry.observe("h", static_cast<double>(i));
    MetricsSnapshot snapshot = registry.snapshot();
    const HistogramData *h = snapshot.histogram("h");
    ASSERT_NE(h, nullptr);
    double previous = h->quantile(0.0);
    EXPECT_DOUBLE_EQ(previous, 1.0);
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
        const double value = h->quantile(q);
        EXPECT_GE(value, previous) << "q=" << q;
        EXPECT_GE(value, h->min);
        EXPECT_LE(value, h->max);
        previous = value;
    }
    EXPECT_DOUBLE_EQ(h->quantile(1.0), 100.0);
}

TEST(HistogramQuantile, InterpolatesWithinTheTargetBucket)
{
    // 10 samples land in one known bucket; the quantile must move
    // through that bucket's span as q sweeps, never jumping to a
    // neighboring bucket.
    const std::vector<double> &bounds = defaultLatencyBoundsMs();
    ASSERT_GE(bounds.size(), 3u);
    const double lo = bounds[1];
    const double hi = bounds[2];
    MetricsRegistry registry;
    for (int i = 0; i < 10; ++i)
        registry.observe("h", (lo + hi) / 2.0);
    MetricsSnapshot snapshot = registry.snapshot();
    const HistogramData *h = snapshot.histogram("h");
    ASSERT_NE(h, nullptr);
    for (double q : {0.1, 0.5, 0.9}) {
        const double value = h->quantile(q);
        EXPECT_GT(value, lo) << "q=" << q;
        EXPECT_LE(value, hi) << "q=" << q;
    }
}

TEST(HistogramQuantile, OverflowBucketClampsToMax)
{
    const std::vector<double> &bounds = defaultLatencyBoundsMs();
    const double beyond = bounds.back() * 4.0;
    MetricsRegistry registry;
    registry.observe("h", 1.0);
    for (int i = 0; i < 9; ++i)
        registry.observe("h", beyond);
    MetricsSnapshot snapshot = registry.snapshot();
    const HistogramData *h = snapshot.histogram("h");
    ASSERT_NE(h, nullptr);
    // Ranks in the overflow bucket interpolate between the last
    // bound and the observed max -- never an unbounded
    // extrapolation past what was actually seen.
    EXPECT_GT(h->quantile(0.99), bounds.back());
    EXPECT_LE(h->quantile(0.99), beyond);
    EXPECT_DOUBLE_EQ(h->quantile(1.0), beyond);
}

/**
 * The Tracer tests drive record() directly: the Probe facade is a
 * no-op under PDDL_OBS=OFF, but the sink classes build and work in
 * both configurations.
 */
TraceEvent
instantAt(const char *name, int tid, double ts_ms)
{
    TraceEvent event;
    event.name = name;
    event.cat = "test";
    event.phase = TraceEvent::Phase::Instant;
    event.tid = tid;
    event.ts_ms = ts_ms;
    return event;
}

TEST(Tracer, RecordsSpansAndKeepsOrder)
{
    Tracer tracer(64);
    {
        SpanGuard span(&tracer, "outer", "test", 1, 10.0);
        span.closeAt(30.0);
        {
            SpanGuard inner(&tracer, "inner", "test", 1, 12.0);
            inner.closeAt(20.0);
        }
    }
    tracer.record(instantAt("tick", 1, 15.0));

    std::vector<TraceEvent> events = tracer.events();
    ASSERT_EQ(events.size(), 5u);
    // Recording order: outer B, inner B, inner E, outer E, instant.
    EXPECT_EQ(std::string(events[0].name), "outer");
    EXPECT_EQ(events[0].phase, TraceEvent::Phase::Begin);
    EXPECT_EQ(std::string(events[1].name), "inner");
    EXPECT_EQ(events[1].phase, TraceEvent::Phase::Begin);
    EXPECT_EQ(events[2].phase, TraceEvent::Phase::End);
    EXPECT_EQ(std::string(events[3].name), "outer");
    EXPECT_EQ(events[3].phase, TraceEvent::Phase::End);
    EXPECT_EQ(events[4].phase, TraceEvent::Phase::Instant);
}

TEST(Tracer, RingOverflowDropsOldestAndCounts)
{
    Tracer tracer(8);
    for (int i = 0; i < 20; ++i)
        tracer.record(instantAt("e", 0, static_cast<double>(i)));

    EXPECT_EQ(tracer.size(), 8u);
    EXPECT_EQ(tracer.recorded(), 20u);
    EXPECT_EQ(tracer.dropped(), 12u);

    // Flight recorder: the *newest* events survive, oldest first.
    std::vector<TraceEvent> events = tracer.events();
    ASSERT_EQ(events.size(), 8u);
    for (size_t i = 0; i < events.size(); ++i)
        EXPECT_DOUBLE_EQ(events[i].ts_ms, 12.0 + static_cast<double>(i));
}

TEST(Tracer, ChromeJsonIsMonotoneAndCarriesLanes)
{
    Tracer tracer(64);
    tracer.setLaneName(7, "disk 7");
    // Recorded out of timestamp order: export must sort.
    tracer.record(instantAt("late", 7, 50.0));
    TraceEvent span;
    span.name = "io";
    span.cat = "disk";
    span.phase = TraceEvent::Phase::Complete;
    span.tid = 7;
    span.ts_ms = 10.0;
    span.dur_ms = 5.0;
    span.args[0] = {"lba", 1234.0};
    span.args[1] = {"kind", "read"};
    span.num_args = 2;
    tracer.record(span);
    TraceEvent open = instantAt("access", 0, 20.0);
    open.cat = "array";
    open.phase = TraceEvent::Phase::AsyncBegin;
    open.id = 42;
    tracer.record(open);
    TraceEvent close = open;
    close.phase = TraceEvent::Phase::AsyncEnd;
    close.ts_ms = 30.0;
    tracer.record(close);

    std::string json = tracer.chromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("disk 7"), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"read\""), std::string::npos);
    // ts in microseconds: 10 ms -> 10000, before 20000, 30000, 50000.
    size_t p1 = json.find("\"ts\": 10000");
    size_t p2 = json.find("\"ts\": 20000");
    size_t p3 = json.find("\"ts\": 30000");
    size_t p4 = json.find("\"ts\": 50000");
    ASSERT_NE(p1, std::string::npos);
    ASSERT_NE(p2, std::string::npos);
    ASSERT_NE(p3, std::string::npos);
    ASSERT_NE(p4, std::string::npos);
    EXPECT_LT(p1, p2);
    EXPECT_LT(p2, p3);
    EXPECT_LT(p3, p4);
}

TEST(Probe, DefaultProbeIsOffAndSafe)
{
    Probe probe;
    EXPECT_FALSE(probe.on());
    EXPECT_FALSE(probe.tracing());
    // Every hook must be callable with no sinks attached.
    probe.count("x");
    probe.gaugeMax("x", 1.0);
    probe.observe("x", 1.0);
    probe.lane(0, "lane");
    probe.instant("x", "t", 0, 0.0);
    probe.complete("x", "t", 0, 0.0, 1.0);
    probe.asyncBegin("x", "t", 0, 1, 0.0);
    probe.asyncEnd("x", "t", 0, 1, 0.0);
    probe.counterSample("x", 0, 0.0, "v", 1.0);
}

TEST(Probe, DispatchesToAttachedSinks)
{
    if (!kObsEnabled)
        GTEST_SKIP() << "hooks compiled out (PDDL_OBS=OFF)";
    MetricsRegistry registry;
    Tracer tracer(16);
    Probe probe(&registry, &tracer);
    EXPECT_TRUE(probe.on());
    EXPECT_TRUE(probe.tracing());
    probe.count("p.count", 2.0);
    probe.observe("p.lat_ms", 1.5);
    probe.instant("p", "test", 0, 1.0);

    MetricsSnapshot snap = registry.snapshot();
    EXPECT_DOUBLE_EQ(snap.counter("p.count"), 2.0);
    ASSERT_NE(snap.histogram("p.lat_ms"), nullptr);
    EXPECT_EQ(tracer.size(), 1u);
}

TEST(MetricsRegistry, HistogramBoundsAreARegistryProperty)
{
    // Sub-millisecond samples (an ssd-class device) collapse into
    // bucket 0 under the default bounds but resolve under
    // registry-supplied finer ones -- the property the hybrid bench
    // relies on via device::latencyBoundsForDevices().
    MetricsRegistry coarse;
    coarse.observe("lat_ms", 0.10);
    coarse.observe("lat_ms", 0.12);
    coarse.observe("lat_ms", 0.20);
    MetricsSnapshot coarse_snap = coarse.snapshot();
    const HistogramData *h = coarse_snap.histogram("lat_ms");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->bounds, defaultLatencyBoundsMs());
    EXPECT_EQ(h->counts[0], 3); // all in bucket 0: no resolution

    MetricsRegistry fine;
    fine.setHistogramBounds({0.05, 0.1, 0.15, 0.25, 1.0});
    fine.observe("lat_ms", 0.10);
    fine.observe("lat_ms", 0.12);
    fine.observe("lat_ms", 0.20);
    MetricsSnapshot fine_snap = fine.snapshot();
    const HistogramData *f = fine_snap.histogram("lat_ms");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(f->bounds.size(), 5u);
    EXPECT_EQ(f->counts[2], 2); // 0.10, 0.12 in [0.1, 0.15)
    EXPECT_EQ(f->counts[3], 1); // 0.20 in [0.15, 0.25)
    // The quantile now distinguishes the samples.
    EXPECT_LT(f->quantile(0.10), f->quantile(0.90));

    // Empty restores the defaults for later histograms.
    fine.setHistogramBounds({});
    fine.observe("later_ms", 1.0);
    MetricsSnapshot later_snap = fine.snapshot();
    const HistogramData *d = later_snap.histogram("later_ms");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->bounds, defaultLatencyBoundsMs());
}

} // namespace
} // namespace obs
} // namespace pddl
