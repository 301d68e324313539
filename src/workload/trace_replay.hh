/**
 * @file
 * Trace capture and replay through the Target interface. Capture,
 * traffic::writeTrace, traffic::parseTrace, then replay against an
 * identical backend reproduces the identical simulation.
 */

#ifndef PDDL_WORKLOAD_TRACE_REPLAY_HH
#define PDDL_WORKLOAD_TRACE_REPLAY_HH

#include <cstdint>
#include <vector>

#include "array/target.hh"
#include "obs/metrics.hh"
#include "stats/welford.hh"
#include "traffic/trace.hh"
#include "workload/workload.hh"

namespace pddl {

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

    const std::vector<traffic::TraceRecord> &records() const
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
    std::vector<traffic::TraceRecord> records_;
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
    explicit TraceReplayWorkload(std::vector<traffic::TraceRecord> records,
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

    std::vector<traffic::TraceRecord> records_;
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

} // namespace pddl

#endif // PDDL_WORKLOAD_TRACE_REPLAY_HH
