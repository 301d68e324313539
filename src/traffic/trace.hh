/**
 * @file
 * Trace capture and replay through the Target interface.
 *
 * The paper itself remarks that "traces ... would be a better
 * predictor of the performance of the arrays in a real situation".
 * This module closes that loop with a deliberately simple text
 * format, one access per line:
 *
 *     when op offset units
 *
 * where `when` is the issue time in simulated ms (nondecreasing down
 * the file), `op` is `r` or `w`, `offset` is the starting data unit
 * and `units` the access length in stripe units. `#` starts a
 * comment; blank lines are ignored.
 *
 * TraceCapture is a pass-through Target that records everything
 * flowing into a backend, so any synthetic workload can be captured
 * to a file; TraceReplayWorkload streams a parsed trace back through
 * any Target at the recorded times. Capture -> format -> parse ->
 * replay against an identical backend reproduces the identical
 * simulation (the round-trip the traffic tests pin).
 */

#ifndef PDDL_TRAFFIC_TRACE_HH
#define PDDL_TRAFFIC_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "array/target.hh"
#include "obs/metrics.hh"
#include "stats/welford.hh"
#include "workload/workload.hh"

namespace pddl {
namespace traffic {

/** One trace line: a logical access and its issue time. */
struct TraceRecord
{
    double when_ms = 0.0;
    AccessType type = AccessType::Read;
    int64_t unit = 0;
    int units = 1;

    bool
    operator==(const TraceRecord &o) const
    {
        return when_ms == o.when_ms && type == o.type &&
               unit == o.unit && units == o.units;
    }
};

/**
 * Parse the text format. Numbers follow util/spec_text's grammar.
 * @throws std::runtime_error naming the line number on any malformed
 * line (bad field count, a time that is not a finite number, unknown
 * op, negative offset, non-positive length, decreasing time).
 */
std::vector<TraceRecord> parseTrace(std::istream &in);

/** parseTrace over a file. @throws std::runtime_error (unreadable). */
std::vector<TraceRecord> loadTrace(const std::string &path);

/** Write records in the text format (round-trips with parseTrace). */
void writeTrace(std::ostream &out,
                const std::vector<TraceRecord> &records);

/**
 * Pass-through Target recording every access (with its issue time)
 * on the way into `backend`. Wrap any Target, run any workload over
 * the wrapper, then feed records() to writeTrace.
 */
class TraceCapture : public Target
{
  public:
    TraceCapture(EventQueue &events, Target &backend)
        : events_(events), backend_(backend)
    {
    }

    const std::vector<TraceRecord> &records() const
    {
        return records_;
    }

    int64_t dataUnits() const override
    {
        return backend_.dataUnits();
    }

    void
    access(int64_t start_unit, int count, AccessType type,
           InlineCallback done) override
    {
        records_.push_back(
            {events_.now(), type, start_unit, count});
        backend_.access(start_unit, count, type, std::move(done));
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
    std::vector<TraceRecord> records_;
};

/** Replay knobs. */
struct TraceReplayConfig
{
    /** Measured latencies also land here (the tail columns); null:
     *  off. Must outlive the run. */
    obs::HistogramData *latency = nullptr;
};

/**
 * Streams a trace through a Target: each record issues at its
 * recorded time (relative to the workload's start), open-loop -- a
 * slow target makes responses pile up exactly as it would under the
 * original producer. The caller runs the event loop to completion
 * and reads the measured outcome.
 */
class TraceReplayWorkload : public Workload
{
  public:
    explicit TraceReplayWorkload(std::vector<TraceRecord> records,
                                 TraceReplayConfig config = {});

    /** @throws std::runtime_error when a record exceeds the target */
    void start(EventQueue &events, Target &target) override;

    /** Completions so far (== records once drained). */
    int64_t completed() const { return completed_; }

    /** Response-time aggregate over every completion. */
    const Welford &latency() const { return latency_; }

    /** Largest number of in-flight accesses observed. */
    int maxOutstanding() const { return max_outstanding_; }

  private:
    void issueReady();

    std::vector<TraceRecord> records_;
    TraceReplayConfig config_;
    EventQueue *events_ = nullptr;
    Target *target_ = nullptr;
    double epoch_ms_ = 0.0; ///< simulated time of start()
    size_t next_ = 0;
    int64_t completed_ = 0;
    int outstanding_ = 0;
    int max_outstanding_ = 0;
    Welford latency_;
};

} // namespace traffic
} // namespace pddl

#endif // PDDL_TRAFFIC_TRACE_HH
