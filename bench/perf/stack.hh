/**
 * @file
 * The bench-assembled scenario stack and its host spans.
 *
 * Stack builds what tune::runScenario builds -- ParallelEngine,
 * VolumeManager, FaultScheduler per faulted shard, optional CacheTier,
 * then the client via startOnHub -- from the same public constructors
 * in the same order, so the benchmark can stand between the layers:
 *
 *  - setup_s times parse-to-first-scheduled-access on it;
 *  - the traced run hangs obs::Probe registries on every engine queue,
 *    the volume and the shards, and wraps the two Target boundaries
 *    the bench can reach (client -> top tier, CacheTier -> volume) in
 *    SpanTargets that time 1 access in 64 on the host clock.
 *
 * It supports only the spec features the benchmark's workloads use
 * (striped allocation, static or rotated placement, synthetic
 * clients) and throws on anything else. Its outcome digest must equal
 * runScenario's for the same spec and seed: that is the check that
 * the mirror has not drifted and that tracing changed no history.
 */

#ifndef PDDL_BENCH_PERF_STACK_HH
#define PDDL_BENCH_PERF_STACK_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/target.hh"
#include "cache/cache_tier.hh"
#include "core/scenario_spec.hh"
#include "fault/fault_scheduler.hh"
#include "obs/metrics.hh"
#include "sim/parallel_engine.hh"
#include "tune/scenario_runner.hh"
#include "volume/placement.hh"
#include "volume/volume_manager.hh"
#include "workload.hh"
#include "workload/closed_loop.hh"
#include "workload/open_loop.hh"

namespace pddl {
namespace perf {

/** KB -> stripe units at least one unit (runScenario's conversion). */
int64_t unitsForKb(int64_t kb, int unit_sectors);

/**
 * The spec's placement policy; null means static. @throws
 * std::runtime_error on a policy the bench stack does not mirror.
 */
std::unique_ptr<PlacementPolicy> makePlacement(const ScenarioSpec &spec);

/**
 * The volume runScenario builds for `spec` on `engine`, with `probe`
 * on the volume and every shard. `placement` must outlive it.
 */
std::unique_ptr<VolumeManager>
buildVolume(ParallelEngine &engine, const ScenarioSpec &spec,
            const PlacementPolicy *placement, obs::Probe probe);

/** The write-back tier runScenario configures for `spec`. */
cache::CacheConfig cacheConfig(const ScenarioSpec &spec,
                               obs::Probe probe);

/** runScenario's engine: one lane per shard, run on one thread. */
ParallelEngine::Config engineConfig(const ScenarioSpec &spec);

/** One host-time span at a Target boundary. */
struct Span
{
    /** Boundary name, e.g. "client->cache". */
    const char *name = "";
    /** Sequence number of the access at this boundary. */
    uint64_t seq = 0;
    /** Index of the enclosing span, -1 at the top. */
    int64_t parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
};

/** In-memory span log, written out once the run is over. */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span; it nests under the innermost open one. */
    int64_t begin(const char *name, uint64_t seq);
    void end(int64_t index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace_event JSON (host microseconds). */
    bool writeChromeJson(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
};

/**
 * Pass-through Target that times one access() call into `inner` in
 * every kSampleEvery as a span. Everything else forwards unchanged,
 * so the simulated history is the one without the wrapper.
 */
class SpanTarget final : public Target
{
  public:
    static constexpr uint64_t kSampleEvery = 64;

    SpanTarget(const char *name, Target &inner, SpanRecorder &recorder)
        : name_(name), inner_(inner), recorder_(recorder)
    {
    }

    int64_t dataUnits() const override { return inner_.dataUnits(); }
    void access(int64_t start_unit, int count, AccessType type,
                InlineCallback done) override;
    SeekTally aggregateTally() const override
    {
        return inner_.aggregateTally();
    }
    uint64_t accessesIssued() const override
    {
        return inner_.accessesIssued();
    }

  private:
    const char *name_;
    Target &inner_;
    SpanRecorder &recorder_;
    uint64_t crossed_ = 0;
};

/** Knobs of one Stack. */
struct StackOptions
{
    uint64_t seed = 42;
    /**
     * Non-null turns the traced build on: probes on every queue, the
     * volume and the shards, and spans at both Target boundaries.
     */
    SpanRecorder *spans = nullptr;
};

/** runScenario's stack, assembled by the benchmark. */
class Stack
{
  public:
    /** @throws std::runtime_error on a spec feature it does not mirror */
    Stack(const ScenarioSpec &spec, const StackOptions &options);
    ~Stack();

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    /** Start the client on the hub lane (its first access is due). */
    void start();

    /** Run the engine until every lane drains. */
    void run();

    /**
     * The run's outcome, read exactly as runScenario reads it. Also
     * times the client's result() call (resultSeconds()).
     */
    tune::ScenarioOutcome outcome();

    double resultSeconds() const { return result_s_; }

    ParallelEngine &engine() { return engine_; }
    VolumeManager &volume() { return *volume_; }

    /** The registry behind the queue, volume and shard probes. */
    const obs::MetricsRegistry &layerRegistry() const
    {
        return layer_registry_;
    }

    /** The client's registry (client.latency_ms, cache.*). */
    const obs::MetricsRegistry &clientRegistry() const
    {
        return client_registry_;
    }

  private:
    ScenarioSpec spec_;
    // The probes' sinks outlive every component that reports to them.
    obs::MetricsRegistry layer_registry_;
    obs::MetricsRegistry client_registry_;
    ParallelEngine engine_;
    std::unique_ptr<PlacementPolicy> placement_;
    std::unique_ptr<VolumeManager> volume_;
    std::vector<std::unique_ptr<FaultScheduler>> faults_;
    std::unique_ptr<SpanTarget> volume_span_;
    std::unique_ptr<cache::CacheTier> tier_;
    std::unique_ptr<SpanTarget> top_span_;
    Target *top_ = nullptr;
    /** Exactly one of the two clients exists. */
    std::unique_ptr<ClosedLoopClient> closed_;
    std::unique_ptr<OpenLoopClient> open_;
    double result_s_ = 0.0;
};

/**
 * setup_s: CPU seconds (cpuSeconds) from parsing the workload's spec
 * text to the client's first scheduled access, median of `builds`
 * stacks.
 */
double setupSeconds(const Workload &workload, uint64_t seed, int builds);

} // namespace perf
} // namespace pddl

#endif // PDDL_BENCH_PERF_STACK_HH
