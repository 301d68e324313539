/**
 * @file
 * Metrics registry: named counters, gauges and fixed-bucket latency
 * histograms.
 *
 * A registry has the Tracer's contract, since both sit behind the
 * same Probe: one writer at a time, with every handoff between
 * threads ordered by the caller's own synchronization (thread start
 * and join). Every writer in the simulator keeps it: the harness
 * gives each grid point its own registry, and a scenario's engine
 * lanes all run on its one thread. Values therefore accumulate in
 * the one order the simulation fixes, which keeps the floating-point
 * sums, and with them BENCH output, bit-identical across --threads.
 *
 * Metric names follow `component.metric[_unit]` (see README
 * "Observability"). A name is any NUL-terminated string and is
 * compared by content: the registry interns it once and resolves it
 * to a dense series id through a table keyed by the name's address, so
 * after a series' first record every call is a pointer hash plus one
 * strcmp -- no allocation, no string construction. Callers normally
 * pass string literals; a buffer that is reused for different text
 * is re-resolved by content, never aliased to the old series.
 */

#ifndef PDDL_OBS_METRICS_HH
#define PDDL_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hh"

namespace pddl {
namespace obs {

/** Default latency buckets in milliseconds (log-spaced, 0.25..2s). */
const std::vector<double> &defaultLatencyBoundsMs();

/**
 * One histogram: fixed bounds + overflow bucket. It is both the
 * merged view a snapshot returns and a standalone sink that is always
 * compiled in -- the clients record their latencies straight into
 * one, so tail columns never depend on the Probe facade.
 */
struct HistogramData
{
    /** Upper bounds; counts has one extra overflow slot. */
    std::vector<double> bounds;
    std::vector<int64_t> counts;
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    HistogramData() = default;

    /** An empty histogram over `bounds` (ms, ascending). */
    explicit HistogramData(std::vector<double> bounds);

    /** Record one sample (MetricsRegistry::observe lands here). */
    void add(double value_ms);

    void merge(const HistogramData &other);

    /**
     * Interpolated quantile of the recorded samples, `q` in [0, 1]
     * (clamped). The target rank is located in the cumulative bucket
     * counts and interpolated linearly within its bucket's bounds,
     * clamped to the observed [min, max] so a sparse histogram never
     * reports a value outside what was recorded. This is the one
     * quantile estimator the bench tail-latency columns (p50/p95/
     * p99/p99.9) report through. Returns 0 when empty.
     */
    double quantile(double q) const;

    Json toJson() const;
};

/** Point-in-time merged view of a registry (or several). */
struct MetricsSnapshot
{
    /** All series name-sorted so output order never varies. */
    std::vector<std::pair<std::string, double>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramData>> histograms;

    bool
    empty() const
    {
        return counters.empty() && gauges.empty() &&
               histograms.empty();
    }

    double counter(const std::string &name) const;
    double gauge(const std::string &name) const;
    const HistogramData *histogram(const std::string &name) const;

    /** Fold another snapshot in (counters/buckets sum, gauges max). */
    void merge(const MetricsSnapshot &other);

    Json toJson() const;
};

/**
 * Registry of named metrics with a single writer (see the file
 * comment): add/gaugeMax/observe/snapshot must never overlap.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Add `delta` to counter `name` (created at zero). */
    void add(const char *name, double delta = 1.0);

    /** Raise gauge `name` to at least `value` (merge = max). */
    void gaugeMax(const char *name, double value);

    /** Record one latency sample into histogram `name`. */
    void observe(const char *name, double value_ms);

    /**
     * Bucket upper bounds (ms, ascending) assigned to histograms
     * created after this call; empty restores the default bounds.
     * The device registry supplies the appropriate resolution --
     * defaultLatencyBoundsMs() starts at 0.25 ms, which collapses
     * ssd-class microsecond latencies into bucket 0 (see
     * device::latencyBoundsForDevices). Call before the first
     * observe(); already-created histograms keep their bounds, and
     * histograms only merge when their bounds agree.
     */
    void setHistogramBounds(std::vector<double> bounds);

    /** Every series, name-sorted. */
    MetricsSnapshot snapshot() const;

  private:
    /**
     * Name -> dense series id. A pointer-keyed
     * open-addressing table fronts a content index: a hit hashes the
     * name's address and confirms the text with one strcmp against
     * the interned copy; a miss (new address, or a recycled address
     * holding different text) resolves the text through the content
     * index, so equal text at any address is one series.
     */
    class NameIndex
    {
      public:
        /** Id of `name`; `created` is set when the series is new. */
        uint32_t resolve(const char *name, bool &created);

        /** Interned names in sorted order, with their ids. */
        const std::map<std::string, uint32_t, std::less<>> &
        byName() const
        {
            return by_text_;
        }

      private:
        struct Slot
        {
            const char *key = nullptr;
            uint32_t id = 0;
        };

        uint32_t intern(const char *name, bool &created);
        void remember(const char *name, uint32_t id);

        /**
         * Power-of-two sized; empty until the first name, so a
         * registry nothing writes allocates nothing.
         */
        std::vector<Slot> slots_;
        size_t used_ = 0;
        std::map<std::string, uint32_t, std::less<>> by_text_;
        /** Interned text by id (keys of by_text_; nodes are stable). */
        std::vector<const std::string *> names_;
    };

    /** Series values stored flat by id. */
    NameIndex counter_ids_;
    NameIndex gauge_ids_;
    NameIndex histogram_ids_;
    std::vector<double> counters_;
    std::vector<double> gauges_;
    std::vector<HistogramData> histograms_;
    /** Bounds for new histograms; empty = defaultLatencyBoundsMs(). */
    std::vector<double> histogram_bounds_;
};

} // namespace obs
} // namespace pddl

#endif // PDDL_OBS_METRICS_HH
