/**
 * @file
 * Probe: the zero-cost instrumentation facade.
 *
 * Every instrumented component (EventQueue, Disk, ArrayController,
 * RequestMapper, ReconstructionEngine, FaultScheduler, Scrubber)
 * holds a Probe by value and reports through it. Two off-switches
 * nest:
 *
 *  - compile time: building with -DPDDL_OBS=OFF (which defines
 *    PDDL_OBS_ENABLED=0) makes every hook return at an
 *    `if constexpr` before it reaches a sink, and the accessors
 *    report no sinks, so even an -O0 build emits no sink call. A
 *    probe constructed with sinks then records nothing. CI checks
 *    the OFF build's libraries for undefined sink symbols;
 *  - run time: a default-constructed Probe has no sinks, and every
 *    hook bails on one branch. Components never pay for metrics they
 *    are not asked to produce.
 *
 * Probes carry no ownership: the MetricsRegistry/Tracer sinks must
 * outlive every component holding the probe (in the harness, the
 * per-point registry outlives the simulation it observes).
 */

#ifndef PDDL_OBS_PROBE_HH
#define PDDL_OBS_PROBE_HH

#include <initializer_list>
#include <string>

#include "obs/metrics.hh"
#include "obs/trace.hh"

#ifndef PDDL_OBS_ENABLED
#define PDDL_OBS_ENABLED 1
#endif

namespace pddl {
namespace obs {

/** True when the library was compiled with observability hooks. */
constexpr bool kObsEnabled = PDDL_OBS_ENABLED != 0;

/** Well-known trace lanes (disks use kLaneDisk0 + index). */
constexpr int kLaneArray = 0;
constexpr int kLaneRebuild = 1;
constexpr int kLaneScrub = 2;
constexpr int kLaneFault = 3;
constexpr int kLaneSim = 4;
constexpr int kLaneDisk0 = 10;

class Probe
{
  public:
    Probe() = default;
    Probe(MetricsRegistry *metrics, Tracer *tracer)
        : metrics_(metrics), tracer_(tracer)
    {
    }

    bool on() const { return metrics() != nullptr || tracing(); }
    bool tracing() const { return tracer() != nullptr; }

    MetricsRegistry *
    metrics() const
    {
        return kObsEnabled ? metrics_ : nullptr;
    }

    Tracer *tracer() const { return kObsEnabled ? tracer_ : nullptr; }

    void
    count(const char *name, double delta = 1.0) const
    {
        if constexpr (!kObsEnabled)
            return;
        if (metrics_ != nullptr)
            metrics_->add(name, delta);
    }

    void
    gaugeMax(const char *name, double value) const
    {
        if constexpr (!kObsEnabled)
            return;
        if (metrics_ != nullptr)
            metrics_->gaugeMax(name, value);
    }

    void
    observe(const char *name, double value_ms) const
    {
        if constexpr (!kObsEnabled)
            return;
        if (metrics_ != nullptr)
            metrics_->observe(name, value_ms);
    }

    void
    lane(int tid, std::string name) const
    {
        if constexpr (!kObsEnabled)
            return;
        if (tracer_ != nullptr)
            tracer_->setLaneName(tid, std::move(name));
    }

    void
    instant(const char *name, const char *cat, int tid, double ts_ms,
            std::initializer_list<TraceArg> args = {}) const
    {
        if constexpr (!kObsEnabled)
            return;
        if (tracer_ == nullptr)
            return;
        TraceEvent event;
        event.name = name;
        event.cat = cat;
        event.phase = TraceEvent::Phase::Instant;
        event.tid = tid;
        event.ts_ms = ts_ms;
        fill(event, args);
        tracer_->record(event);
    }

    void
    complete(const char *name, const char *cat, int tid, double ts_ms,
             double dur_ms,
             std::initializer_list<TraceArg> args = {}) const
    {
        if constexpr (!kObsEnabled)
            return;
        if (tracer_ == nullptr)
            return;
        TraceEvent event;
        event.name = name;
        event.cat = cat;
        event.phase = TraceEvent::Phase::Complete;
        event.tid = tid;
        event.ts_ms = ts_ms;
        event.dur_ms = dur_ms;
        fill(event, args);
        tracer_->record(event);
    }

    void
    asyncBegin(const char *name, const char *cat, int tid, uint64_t id,
               double ts_ms) const
    {
        if constexpr (!kObsEnabled)
            return;
        async(TraceEvent::Phase::AsyncBegin, name, cat, tid, id, ts_ms);
    }

    void
    asyncEnd(const char *name, const char *cat, int tid, uint64_t id,
             double ts_ms) const
    {
        if constexpr (!kObsEnabled)
            return;
        async(TraceEvent::Phase::AsyncEnd, name, cat, tid, id, ts_ms);
    }

    /**
     * Sample one value of a per-lane counter timeline. The lane also
     * becomes the counter's `id`, keeping per-disk timelines separate
     * tracks in the viewer (counters group by name+id, not tid).
     */
    void
    counterSample(const char *name, int tid, double ts_ms,
                  const char *key, double value) const
    {
        if constexpr (!kObsEnabled)
            return;
        if (tracer_ == nullptr)
            return;
        TraceEvent event;
        event.name = name;
        event.cat = "timeline";
        event.phase = TraceEvent::Phase::Counter;
        event.tid = tid;
        event.id = static_cast<uint64_t>(tid);
        event.ts_ms = ts_ms;
        event.args[0] = {key, value};
        event.num_args = 1;
        tracer_->record(event);
    }

  private:
    static void
    fill(TraceEvent &event, std::initializer_list<TraceArg> args)
    {
        for (const TraceArg &arg : args) {
            if (event.num_args == TraceEvent::kMaxArgs)
                break;
            event.args[event.num_args++] = arg;
        }
    }

    void
    async(TraceEvent::Phase phase, const char *name, const char *cat,
          int tid, uint64_t id, double ts_ms) const
    {
        if (tracer_ == nullptr)
            return;
        TraceEvent event;
        event.name = name;
        event.cat = cat;
        event.phase = phase;
        event.tid = tid;
        event.id = id;
        event.ts_ms = ts_ms;
        tracer_->record(event);
    }

    MetricsRegistry *metrics_ = nullptr;
    Tracer *tracer_ = nullptr;
};


} // namespace obs
} // namespace pddl

#endif // PDDL_OBS_PROBE_HH
