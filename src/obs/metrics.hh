/**
 * @file
 * Metrics registry: named counters, gauges and fixed-bucket latency
 * histograms.
 *
 * Writers record through per-thread shards -- after a shard is
 * created (one mutex acquisition per thread per registry) every
 * increment touches thread-private storage only, so concurrent
 * harness workers never contend or race. A snapshot merges the
 * shards into one name-sorted view; merging is associative and
 * order-fixed (counters and histogram buckets sum, gauges keep the
 * maximum), so any shard arrangement of the same recorded values
 * yields the identical snapshot, which is what keeps BENCH output
 * bit-identical across --threads.
 *
 * Metric names follow `component.metric[_unit]` (see README
 * "Observability"). A name is any NUL-terminated string and is
 * compared by content: each shard interns it once and resolves it to
 * a dense series id through a table keyed by the name's address, so
 * after a series' first record every call is a pointer hash plus one
 * strcmp -- no allocation, no string construction. Callers normally
 * pass string literals; a buffer that is reused for different text
 * is re-resolved by content, never aliased to the old series.
 */

#ifndef PDDL_OBS_METRICS_HH
#define PDDL_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
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
 * Registry of named metrics with per-thread shards.
 *
 * add/gaugeMax/observe are safe to call from any number of threads
 * concurrently; snapshot() must only run while no writer is active
 * (the harness snapshots after its workers join; single-threaded
 * simulations trivially satisfy this).
 */
class MetricsRegistry
{
  public:
    MetricsRegistry();
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;
    ~MetricsRegistry();

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

    /** Merge every shard into one name-sorted snapshot. */
    MetricsSnapshot snapshot() const;

    /** Shards created so far (one per writer thread). */
    size_t shardCount() const;

  private:
    /**
     * Name -> dense series id within one shard. A pointer-keyed
     * open-addressing table fronts a content index: a hit hashes the
     * name's address and confirms the text with one strcmp against
     * the interned copy; a miss (new address, or a recycled address
     * holding different text) resolves the text through the content
     * index, so equal text at any address is one series.
     */
    class NameIndex
    {
      public:
        NameIndex();

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

        std::vector<Slot> slots_; ///< power-of-two sized
        size_t used_ = 0;
        std::map<std::string, uint32_t, std::less<>> by_text_;
        /** Interned text by id (keys of by_text_; nodes are stable). */
        std::vector<const std::string *> names_;
    };

    /** One writer thread's series, stored flat by id. */
    struct Shard
    {
        uint64_t writer = 0; ///< token of the thread that owns it
        NameIndex counter_ids;
        NameIndex gauge_ids;
        NameIndex histogram_ids;
        std::vector<double> counters;
        std::vector<double> gauges;
        std::vector<HistogramData> histograms;
    };

    /** This thread's shard, created on its first write. */
    Shard &localShard();

    const uint64_t id_; ///< instance identity for shard caching
    mutable std::mutex mutex_; ///< guards shards_ layout only
    std::vector<std::unique_ptr<Shard>> shards_;
    /** Bounds for new histograms; empty = defaultLatencyBoundsMs(). */
    std::vector<double> histogram_bounds_;
};

/**
 * Snapshot several registries and fold them in caller order.
 *
 * A parallel scenario keeps one single-writer registry per lane
 * (shard) instead of letting lanes share thread-local shards of one
 * registry: histogram sums are floating-point folds, so only a merge
 * order fixed by the caller -- shard 0, 1, 2, ... -- keeps the
 * grouping, and with it the merged snapshot, byte-identical across
 * worker-thread counts. Null entries are skipped.
 */
MetricsSnapshot
snapshotAll(const std::vector<const MetricsRegistry *> &registries);

} // namespace obs
} // namespace pddl

#endif // PDDL_OBS_METRICS_HH
