/**
 * @file
 * Event tracer: a per-run ring buffer of typed spans and instants
 * exportable as Chrome `trace_event` JSON.
 *
 * Components record spans (request service, stripe rebuilds), async
 * spans (logical access lifecycle), instants (faults, state
 * transitions) and counter samples (per-disk queue depth and
 * utilization timelines). Events land in a fixed-capacity ring that
 * overwrites the *oldest* entries once full -- a flight recorder:
 * the tail of a long run always survives, and `dropped()` reports
 * how much history was lost.
 *
 * The export sorts events by timestamp (stable), so the emitted
 * trace is monotone and loads in chrome://tracing and Perfetto.
 * Event/category names must be string literals (or otherwise outlive
 * the tracer); the ring stores only the pointers.
 */

#ifndef PDDL_OBS_TRACE_HH
#define PDDL_OBS_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hh"

namespace pddl {
namespace obs {

/**
 * One named span/instant argument: numeric, or a string literal
 * (the ring stores only the pointer, like event names).
 */
struct TraceArg
{
    const char *key = "";
    double value = 0.0;
    const char *text = nullptr; ///< non-null: emit as a string

    TraceArg() = default;
    TraceArg(const char *k, double v) : key(k), value(v) {}
    TraceArg(const char *k, const char *t) : key(k), text(t) {}
};

/** One recorded event (Chrome trace_event phases). */
struct TraceEvent
{
    enum class Phase : uint8_t
    {
        Complete,   ///< "X": span with explicit duration
        AsyncBegin, ///< "b": overlapping span opens (id-matched)
        AsyncEnd,   ///< "e": overlapping span closes
        Instant,    ///< "i": point event
        Counter     ///< "C": sampled value timeline
    };

    static constexpr int kMaxArgs = 4;

    const char *name = "";
    const char *cat = "";
    Phase phase = Phase::Instant;
    int tid = 0;      ///< lane (disk index or component lane)
    uint64_t id = 0;  ///< async span correlation id
    double ts_ms = 0.0;
    double dur_ms = 0.0; ///< Complete spans only
    TraceArg args[kMaxArgs];
    int num_args = 0;
};

/**
 * Fixed-capacity flight recorder with Chrome JSON export. It takes no
 * lock: one writer at a time, with every handoff between threads
 * ordered by the caller (the MetricsRegistry contract).
 */
class Tracer
{
  public:
    /** @param capacity ring size in events (newest kept). */
    explicit Tracer(size_t capacity = 1 << 16);

    void record(const TraceEvent &event);

    /** Label one lane (emitted as thread_name metadata). */
    void setLaneName(int tid, std::string name);

    /** Events currently held (<= capacity). */
    size_t size() const;
    size_t capacity() const { return capacity_; }

    /** Events recorded over the run, including overwritten ones. */
    uint64_t recorded() const { return recorded_; }

    /** Events lost to ring overwrite (recorded() - size()). */
    uint64_t dropped() const;

    /** Held events, oldest first. */
    std::vector<TraceEvent> events() const;

    /**
     * Serialize as a Chrome trace_event JSON document (stable-sorted
     * by timestamp; milliseconds scaled to trace microseconds).
     */
    std::string chromeJson() const;

    /** Write chromeJson() to `path`. @return false on I/O error. */
    bool writeChromeJson(const std::string &path) const;

  private:
    size_t capacity_;
    std::vector<TraceEvent> ring_;
    size_t next_ = 0; ///< overwrite cursor once the ring is full
    uint64_t recorded_ = 0;
    std::vector<std::pair<int, std::string>> lane_names_;
};

} // namespace obs
} // namespace pddl

#endif // PDDL_OBS_TRACE_HH
