/**
 * @file
 * Parallel experiment runner for simulation grids.
 *
 * Every figure of the paper's evaluation is a grid of independent
 * closed-loop simulations (access size x client count x layout). The
 * runner executes grid points concurrently with parallelFor and
 * guarantees that the aggregated results are bit-identical to a
 * serial run:
 *
 *  - each point's RNG seed is derived from a stable hash of its
 *    identity {figure, layout, size, clients, access, mode}, never
 *    from execution order or wall-clock;
 *  - results are written into a pre-sized vector at the point's grid
 *    index, so output order is the submission order regardless of
 *    which worker finished first;
 *  - simulations share nothing but immutable inputs (Layout and
 *    DeviceModel are const and thread-safe).
 *
 * The thread count comes from PDDL_BENCH_THREADS (default: hardware
 * concurrency); PDDL_BENCH_THREADS=1 is the serial reference.
 */

#ifndef PDDL_HARNESS_RUNNER_HH
#define PDDL_HARNESS_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "obs/probe.hh"
#include "obs/trace.hh"
#include "stats/tally.hh"
#include "stats/welford.hh"
#include "util/json.hh"
#include "workload/closed_loop.hh"

namespace pddl {
namespace harness {

/** Identity of one grid point; the RNG seed is derived from it. */
struct GridPoint
{
    std::string figure; ///< e.g. "Figure 5"
    std::string layout; ///< layout or series label
    int size_kb = 0;
    int clients = 0;
    AccessType type = AccessType::Read;
    ArrayMode mode = ArrayMode::FaultFree;
};

/** Short lowercase name used in hashing and JSON. */
const char *accessTypeName(AccessType type);
const char *arrayModeName(ArrayMode mode);

/**
 * Deterministic per-point seed: FNV-1a over the point's canonical
 * string rendering, finished with a SplitMix64 mix. Stable across
 * platforms, runs and thread counts.
 */
uint64_t deriveSeed(const GridPoint &point);

/** Named extra metrics an experiment can report. */
using Extras = std::vector<std::pair<std::string, double>>;

/** One schedulable grid point. */
struct Experiment
{
    GridPoint point;
    /**
     * Runs the point (a scenario, a rebuild experiment, an analytic
     * sweep). Receives the derived seed and the point's probe --
     * metrics into the point's own registry when the runner collects
     * them, the tracer on point 0 only, otherwise off -- and may
     * publish additional metrics through `extras`.
     */
    std::function<SimResult(uint64_t seed, const obs::Probe &probe,
                            Extras &extras)>
        run;
};

/** Outcome of one grid point. */
struct PointResult
{
    GridPoint point;
    uint64_t seed = 0;
    SimResult result;
    Extras extras;
    double wall_ms = 0.0; ///< host time, informational only
    /** Metrics snapshot (empty unless the runner enables metrics). */
    obs::MetricsSnapshot metrics;
};

/** Outcome of one grid run. */
struct RunSummary
{
    /** One result per experiment, in submission order. */
    std::vector<PointResult> points;
    double wall_s = 0.0;
    int threads = 1;
    /** Merged counters: grid points and samples. */
    Tally totals;
    /** Distribution of per-point host wall times (informational). */
    Welford point_wall_ms;
};

/** Executes experiment batches with parallelFor. */
class ExperimentRunner
{
  public:
    /** @param threads worker count; < 1 selects defaultThreads() */
    explicit ExperimentRunner(int threads = 0);

    int threads() const { return threads_; }

    /**
     * Collect a per-point metrics snapshot from whatever each point
     * records through its probe. Each point writes its own registry
     * from the one thread that runs it, and snapshots are merged in
     * submission order, so the output stays bit-identical across
     * thread counts.
     */
    void enableMetrics(bool on) { metrics_enabled_ = on; }

    /**
     * Trace the first grid point into `tracer` (nullptr disables).
     * Only point 0 records -- a single deterministic simulation --
     * regardless of which worker executes it.
     */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    /** Run all experiments; blocks until the grid is complete. */
    RunSummary run(const std::vector<Experiment> &experiments) const;

  private:
    int threads_;
    bool metrics_enabled_ = false;
    obs::Tracer *tracer_ = nullptr;
};

/** "Figure 5" -> "fig_5" style slug for BENCH_<figure>.json names. */
std::string figureSlug(const std::string &figure);

/** Build the BENCH_<figure>.json document for one finished grid. */
Json figureJson(const std::string &figure, const std::string &caption,
                const RunSummary &summary);

/**
 * Write BENCH_<slug>.json into `dir` (created by the caller).
 * @return the path written
 */
std::string writeFigureJson(const std::string &dir,
                            const std::string &figure,
                            const std::string &caption,
                            const RunSummary &summary);

} // namespace harness
} // namespace pddl

#endif // PDDL_HARNESS_RUNNER_HH
