/**
 * @file
 * Shared helpers for the reproduction benchmarks: the paper's
 * evaluated array (Table 2), layout construction, table formatting,
 * and the parallel experiment harness plumbing.
 *
 * Each bench binary regenerates one table or figure of the paper.
 * By default the simulations use a relaxed stopping rule so the whole
 * suite finishes in minutes; set PDDL_BENCH_FULL=1 for the paper's
 * 2%-at-95%-confidence rule.
 *
 * Grid execution is parallel: every (size, layout, clients) point is
 * an independent simulation, fanned out by the experiment runner of
 * src/harness. PDDL_BENCH_THREADS (or --threads) picks the
 * worker count; results are bit-identical for every thread count
 * because each point's RNG seed is derived from its identity, never
 * from scheduling. --json <dir> additionally emits one machine-
 * readable BENCH_<figure>.json per figure.
 */

#ifndef PDDL_BENCH_BENCH_UTIL_HH
#define PDDL_BENCH_BENCH_UTIL_HH

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/layout_spec.hh"
#include "core/scenario_spec.hh"
#include "disk/device_model.hh"
#include "harness/arg_parser.hh"
#include "harness/runner.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "tune/scenario_runner.hh"
#include "workload/closed_loop.hh"

namespace pddl {
namespace bench {

/** The paper's client counts ("Concurrency" row of Table 2). */
inline const std::vector<int> kClientCounts = {1, 2, 4, 8, 10, 15, 20, 25};

/** Access sizes in KB from Table 2 (8 KB stripe units). */
inline const std::vector<int> kAccessSizesKb = {8,   24,  48,  72,  96,
                                                120, 144, 168, 192, 216,
                                                240, 288, 336};

/** Disks in the paper's evaluated array (Table 2). */
inline constexpr int kDisks = 13;

/** KB -> stripe units (8 KB units). */
inline int
unitsForKb(int kb)
{
    return kb / 8;
}

/** True when the paper-fidelity stopping rule is requested. */
inline bool
fullFidelity()
{
    const char *env = std::getenv("PDDL_BENCH_FULL");
    return env != nullptr && std::strcmp(env, "0") != 0;
}

/** The shared flags' values (see BenchCli); unregistered ones stay
 *  empty. */
struct BenchOptions
{
    /** Directory for BENCH_<figure>.json files; empty disables. */
    std::string json_dir;
    /** Worker override; 0 = PDDL_BENCH_THREADS / hardware. */
    int threads = 0;
    /** Merged metrics JSON file; empty disables metrics. */
    std::string metrics_path;
    /** Chrome trace JSON file; empty disables tracing. */
    std::string trace_path;
    /** The tracer observes only the first figure's first point. */
    bool trace_attached = false;
    /** --device spec; empty selects hp2247 (the paper's drive). */
    std::string device_spec;
    /** --layout spec; empty keeps each bench's evaluated set. */
    std::string layout_spec;
    /**
     * --scenario: a validated ScenarioSpec (path or inline JSON)
     * that bench_traffic and bench_hybrid use as the base
     * configuration in place of their built-in defaults; empty keeps
     * the defaults.
     */
    std::string scenario;
    /**
     * Zero the informational host-wall fields (wall_time_s, wall_ms,
     * threads) in BENCH_<figure>.json so the file is literally
     * bit-identical across --threads values. Benches whose rows are
     * all simulated rates (bench_scaleout) set this; CI then diffs
     * the raw files without a strip step.
     */
    bool deterministic_json = false;
};

inline BenchOptions &
options()
{
    static BenchOptions instance;
    return instance;
}

/**
 * The evaluated layout specs on the 13-disk array of Table 2: the
 * five paper layouts, or just the --layout override when one was
 * given.
 */
inline std::vector<std::string>
evaluatedLayouts()
{
    if (!options().layout_spec.empty())
        return {options().layout_spec};
    return {"datum:width=4,check=1", "parity:width=4", "raid5",
            "pddl:width=4", "prime:width=4"};
}

/** The drive spec every bench simulates: --device, or hp2247. */
inline std::string
benchDevice()
{
    return options().device_spec.empty() ? "hp2247"
                                         : options().device_spec;
}

/**
 * Validate and canonicalize a row's spec. A spec the bench cannot
 * build -- its own grid, or an edit a --scenario base cannot take --
 * exits 2 like a bad flag, naming the row.
 */
inline ScenarioSpec
normalized(ScenarioSpec spec, const std::string &row = "bench")
{
    std::string error;
    if (!spec.normalize(error)) {
        std::fprintf(stderr, "%s row: %s\n", row.c_str(), error.c_str());
        std::exit(2);
    }
    return spec;
}

/**
 * One closed-loop point on the paper's array (Table 2): `clients`
 * clients issuing `kb` KB accesses to a bare 13-disk array of
 * benchDevice() drives (no fabric), disk 0 failed outside FaultFree,
 * under the bench stopping rule -- fast but shape-preserving, or with
 * PDDL_BENCH_FULL=1 the paper's 2 % at 95 % confidence.
 */
inline ScenarioSpec
paperSpec(const std::string &layout, int kb, int clients,
          AccessType type, ArrayMode mode)
{
    ScenarioSpec spec;
    spec.shards = {{layout, benchDevice(), kDisks, "",
                    mode == ArrayMode::FaultFree ? -1 : 0,
                    mode == ArrayMode::PostReconstruction}};
    spec.dispatch_ms = 0.0;
    spec.client = "closed";
    spec.clients = clients;
    spec.mix = {{kb, type == AccessType::Write, 1.0}};
    const bool full = fullFidelity();
    spec.ci_tolerance = full ? 0.02 : 0.06;
    spec.min_samples = full ? 1000 : 250;
    spec.samples = full ? 200000 : 2500;
    spec.warmup = full ? 500 : 120;
    return spec;
}

/** A closed-loop outcome as the harness's row. */
inline SimResult
simResult(const tune::ScenarioOutcome &outcome)
{
    return {.mean_response_ms = outcome.mean_ms,
            .ci_half_width_ms = outcome.ci_half_width_ms,
            .throughput_per_s = outcome.throughput_per_s,
            .samples = outcome.samples,
            .non_local_seeks = outcome.non_local_seeks,
            .cylinder_switches = outcome.cylinder_switches,
            .track_switches = outcome.track_switches,
            .no_switches = outcome.no_switches};
}

/** The extra named `key` of a finished point (0 when absent). */
inline double
extra(const harness::PointResult &point, const char *key)
{
    for (const auto &[name, value] : point.extras) {
        if (name == key)
            return value;
    }
    return 0.0;
}

/** What a scenario row adds to its spec; every field is optional. */
struct ScenarioRow
{
    /** Appends the row's extras, in the order its BENCH JSON lists
     *  them. */
    std::function<void(const ScenarioSpec &,
                       const tune::ScenarioOutcome &, harness::Extras &)>
        extras = {};
    /** A fixed protocol seed in place of the point's derived one. */
    std::optional<uint64_t> seed = {};
    /** Record the offered accesses into this trace file. */
    std::string capture_path = {};
    /** Replay this trace instead of the spec's client; must outlive
     *  the grid. */
    const std::vector<traffic::TraceRecord> *replay = nullptr;
};

/**
 * A grid point that runs `spec` through runScenario with the point's
 * derived seed (or `row.seed`) and its probe.
 */
inline harness::Experiment
scenarioExperiment(harness::GridPoint point, const ScenarioSpec &spec,
                   ScenarioRow row = {})
{
    return {std::move(point),
            [spec = normalized(spec), row = std::move(row)](
                uint64_t seed, const obs::Probe &probe,
                harness::Extras &extras) {
                tune::RunScenarioOptions run;
                run.seed = row.seed.value_or(seed);
                run.capture_path = row.capture_path;
                run.replay = row.replay;
                run.probe = probe;
                const tune::ScenarioOutcome outcome =
                    tune::runScenario(spec, run);
                if (row.extras)
                    row.extras(spec, outcome, extras);
                return simResult(outcome);
            }};
}

/**
 * The base spec --scenario names, or nothing when the flag is
 * absent. The flag's validator already accepted it, so a failure
 * here (the file changed underneath) exits 2 like a bad flag.
 */
inline std::optional<ScenarioSpec>
scenarioFlag()
{
    if (options().scenario.empty())
        return std::nullopt;
    ScenarioSpec spec;
    std::string error;
    if (!loadScenario(options().scenario, spec, error)) {
        std::fprintf(stderr, "--scenario: %s\n", error.c_str());
        std::exit(2);
    }
    return spec;
}

/**
 * The production-traffic access mixes bench_traffic and bench_hybrid
 * share: the write-heavy SLO mix (small writes dominate, a few
 * multi-unit accesses exercise run coalescing) or a read-heavy one.
 */
inline void
applyTrafficMix(ScenarioSpec &spec, bool write_heavy)
{
    if (write_heavy) {
        spec.mix = {{8, true, 0.60},
                    {32, true, 0.10},
                    {8, false, 0.25},
                    {32, false, 0.05}};
    } else {
        spec.mix = {{8, false, 0.70},
                    {8, true, 0.20},
                    {24, false, 0.10}};
    }
}

/** The finished point whose series label is `label`, or nullptr. */
inline const harness::PointResult *
findRow(const harness::RunSummary &summary, const std::string &label)
{
    for (const harness::PointResult &point : summary.points) {
        if (point.point.layout == label)
            return &point;
    }
    return nullptr;
}

/** Print a row separator sized to `width` columns of 10 chars. */
inline void
printRule(int width)
{
    for (int i = 0; i < width; ++i)
        std::fputs("----------", stdout);
    std::fputs("\n", stdout);
}

/** The shared flight recorder behind --trace. */
inline obs::Tracer &
benchTracer()
{
    static obs::Tracer instance(1 << 16);
    return instance;
}

/** Metrics merged across every figure the binary runs. */
inline obs::MetricsSnapshot &
suiteMetrics()
{
    static obs::MetricsSnapshot instance;
    return instance;
}

/**
 * The shared bench flags. A binary registers only the ones it reads,
 * named once at its BenchCli or parseArgs call; any other shared flag
 * exits 2 as unknown instead of being accepted and ignored.
 */
enum SharedFlag : unsigned
{
    kJson = 1u << 0,
    kThreads = 1u << 1,
    /** --metrics; registered only when probes are compiled in. */
    kMetrics = 1u << 2,
    /** --trace; registered only when probes are compiled in. */
    kTrace = 1u << 3,
    kDevice = 1u << 4,
    kLayout = 1u << 5,
    kScenario = 1u << 6,
};

/** --json and --threads: every binary that runs a grid. */
inline constexpr unsigned kGrid = kJson | kThreads;
/** A grid whose rows simulate, so its probes have something to see. */
inline constexpr unsigned kObserved = kGrid | kMetrics | kTrace;
/** A paper-figure grid: observed, on any --device and --layout. */
inline constexpr unsigned kFigure = kObserved | kDevice | kLayout;

/**
 * The shared bench command line: each bench binary gets --help and
 * the shared flags it names from here, plus whatever binary-specific
 * flags it registers before parseOrExit(). This is the single
 * registration point for bench-wide flags and the single owner of the
 * exit policy: --help prints usage and exits 0, unknown flags and
 * missing values print a clear error and exit 2.
 */
class BenchCli
{
  public:
    BenchCli(const char *program, const char *description,
             unsigned flags)
        : parser_(program, description)
    {
        if (flags & kJson) {
            parser_.addString("json", "dir",
                              "also write machine-readable "
                              "BENCH_<figure>.json files into <dir>");
        }
        if (flags & kThreads) {
            parser_.addInt("threads", "n",
                           "worker threads for the experiment grid "
                           "(default: PDDL_BENCH_THREADS or hardware "
                           "concurrency; results are bit-identical "
                           "for any value)",
                           1, false, INT_MAX);
        }
        if (obs::kObsEnabled && (flags & kMetrics)) {
            parser_.addString("metrics", "file",
                              "write the merged metrics snapshot as "
                              "JSON and embed per-point metrics in "
                              "BENCH rows");
        }
        if (obs::kObsEnabled && (flags & kTrace)) {
            parser_.addString("trace", "file",
                              "record the first grid point as Chrome "
                              "trace_event JSON (load in Perfetto or "
                              "chrome://tracing)");
        }
        if (flags & kDevice) {
            parser_.addString(
                "device", "spec",
                "drive model for every simulated disk (default: "
                "hp2247, the paper's drive; see the spec grammar "
                "below)",
                false, [](const std::string &value) {
                    std::shared_ptr<const DeviceModel> model;
                    std::string error;
                    return device::parseDeviceSpec(value, model, error)
                               ? std::string()
                               : error;
                });
        }
        if (flags & kLayout) {
            parser_.addString(
                "layout", "spec",
                "replace the bench's evaluated layout set with this "
                "one layout (see the spec grammar below)",
                false, [](const std::string &value) {
                    layouts::ParsedLayoutSpec spec;
                    std::string error;
                    if (!layouts::parseLayoutSpec(value, spec, error))
                        return error;
                    // The evaluated set lives on the 13-disk Table 2
                    // array; a spec that parses but cannot build
                    // there (mirror copies not dividing 13, width >
                    // 13) must fail at the flag, not mid-bench.
                    try {
                        layouts::buildLayout(spec, 13);
                    } catch (const std::exception &e) {
                        return std::string(e.what());
                    }
                    return std::string();
                });
        }
        if (flags & kScenario) {
            parser_.addString(
                "scenario", "file|json",
                "base scenario in place of the bench's built-in one: "
                "a ScenarioSpec JSON file, or the JSON inline; "
                "validated at the flag with field-anchored "
                "diagnostics",
                false, [](const std::string &value) {
                    ScenarioSpec spec;
                    std::string error;
                    return loadScenario(value, spec, error)
                               ? std::string()
                               : error;
                });
        }
        std::string epilog =
            "environment:\n"
            "  PDDL_BENCH_FULL=1     paper-fidelity stopping rule "
            "(slower)\n";
        if (flags & kThreads)
            epilog += "  PDDL_BENCH_THREADS=n  default worker count\n";
        if (flags & kDevice) {
            epilog += "\nregistered device specs:\n";
            for (const std::string &name : device::deviceSpecNames())
                epilog += "  " + name + "\n";
        }
        if (flags & kLayout) {
            epilog += "\nregistered layout specs:\n";
            for (const std::string &name : layouts::layoutSpecNames())
                epilog += "  " + name + "\n";
        }
        parser_.setEpilog(epilog);
    }

    /** Register binary-specific flags before parseOrExit(). */
    void
    addBool(const std::string &name, const std::string &help)
    {
        parser_.addBool(name, help);
    }

    /** An int-valued flag: values above INT_MAX fail at the flag. */
    void
    addInt(const std::string &name, const std::string &value_name,
           const std::string &help, long long min_value)
    {
        parser_.addInt(name, value_name, help, min_value, false,
                       INT_MAX);
    }

    void
    addString(const std::string &name, const std::string &value_name,
              const std::string &help)
    {
        parser_.addString(name, value_name, help);
    }

    /** String flag rejected at parse time when `validator` objects. */
    void
    addString(const std::string &name, const std::string &value_name,
              const std::string &help,
              harness::ArgParser::Validator validator)
    {
        parser_.addString(name, value_name, help, false,
                          std::move(validator));
    }

    /**
     * Parse argv and fill options(). Owns the process-exit contract:
     * --help exits 0 after printing usage, any parse error exits 2.
     * A shared flag the binary did not register reads as absent.
     */
    void
    parseOrExit(int argc, char **argv)
    {
        if (!parser_.parse(argc, argv)) {
            std::fprintf(stderr, "%s\n%s", parser_.error().c_str(),
                         parser_.usage().c_str());
            std::exit(2);
        }
        if (parser_.helpRequested()) {
            std::fputs(parser_.usage().c_str(), stdout);
            std::exit(0);
        }
        options().json_dir = parser_.getString("json");
        options().threads =
            static_cast<int>(parser_.getInt("threads", 0));
        options().metrics_path = parser_.getString("metrics");
        options().trace_path = parser_.getString("trace");
        options().device_spec = parser_.getString("device");
        options().layout_spec = parser_.getString("layout");
        options().scenario = parser_.getString("scenario");
    }

    bool has(const std::string &name) const { return parser_.has(name); }

    bool
    getBool(const std::string &name) const
    {
        return parser_.getBool(name);
    }

    long long
    getInt(const std::string &name, long long fallback = 0) const
    {
        return parser_.getInt(name, fallback);
    }

    std::string
    getString(const std::string &name,
              const std::string &fallback = "") const
    {
        return parser_.getString(name, fallback);
    }

  private:
    harness::ArgParser parser_;
};

/**
 * Parse just the shared `flags` (a SharedFlag set). Call first in
 * every bench main() that needs no flags of its own; binaries with
 * their own flags construct a BenchCli instead.
 */
inline void
parseArgs(int argc, char **argv, const char *description,
          unsigned flags)
{
    BenchCli(argv[0], description, flags).parseOrExit(argc, argv);
}

/**
 * Whole-binary aggregates, merged across every figure the binary
 * runs (fig10-13 style binaries run several) and reported once at
 * exit.
 */
struct SuiteTotals
{
    Tally counts;
    Welford point_wall_ms;

    ~SuiteTotals()
    {
        if (counts.empty())
            return;
        std::fprintf(stderr,
                     "[suite] %lld grid points, %lld samples, mean "
                     "point wall %.1f ms (max %.1f)\n",
                     static_cast<long long>(counts.get("points")),
                     static_cast<long long>(counts.get("samples")),
                     point_wall_ms.mean(), point_wall_ms.max());
    }
};

inline SuiteTotals &
suiteTotals()
{
    static SuiteTotals instance;
    return instance;
}

/**
 * Run one figure's experiment grid on the parallel runner, print the
 * one-line run summary, and emit BENCH_<figure>.json when --json was
 * given.
 */
inline harness::RunSummary
runGrid(const char *figure, const char *caption,
        const std::vector<harness::Experiment> &experiments)
{
    harness::ExperimentRunner runner(options().threads);
    const bool metrics_on = !options().metrics_path.empty();
    runner.enableMetrics(metrics_on);
    if (!options().trace_path.empty() && !options().trace_attached) {
        // Trace exactly one simulation (the first figure's first
        // point): one run, one coherent timeline.
        runner.setTracer(&benchTracer());
        options().trace_attached = true;
    }
    harness::RunSummary summary = runner.run(experiments);
    suiteTotals().counts.merge(summary.totals);
    suiteTotals().point_wall_ms.merge(summary.point_wall_ms);
    if (!options().json_dir.empty()) {
        std::filesystem::create_directories(options().json_dir);
        harness::RunSummary to_write = summary;
        if (options().deterministic_json) {
            to_write.wall_s = 0.0;
            to_write.threads = 0;
            for (harness::PointResult &point : to_write.points)
                point.wall_ms = 0.0;
        }
        std::string path = harness::writeFigureJson(
            options().json_dir, figure, caption, to_write);
        std::fprintf(stderr, "[%s] wrote %s\n", figure, path.c_str());
    }
    if (metrics_on) {
        // Merge in submission order and rewrite cumulatively: the
        // file is complete whenever the binary stops, and identical
        // for every thread count.
        for (const harness::PointResult &point : summary.points)
            suiteMetrics().merge(point.metrics);
        Json doc = Json::object();
        doc.set("schema", "pddl-metrics-v1")
            .set("metrics", suiteMetrics().toJson());
        std::ofstream out(options().metrics_path, std::ios::trunc);
        if (out) {
            out << doc.dump();
            std::fprintf(stderr, "[%s] wrote %s\n", figure,
                         options().metrics_path.c_str());
        } else {
            std::fprintf(stderr, "[%s] cannot write %s\n", figure,
                         options().metrics_path.c_str());
        }
    }
    if (!options().trace_path.empty()) {
        if (benchTracer().writeChromeJson(options().trace_path)) {
            std::fprintf(stderr, "[%s] wrote %s\n", figure,
                         options().trace_path.c_str());
        } else {
            std::fprintf(stderr, "[%s] cannot write %s\n", figure,
                         options().trace_path.c_str());
        }
    }
    std::fprintf(stderr,
                 "[%s] %zu grid points on %d thread(s) in %.2f s\n",
                 figure, summary.points.size(), summary.threads,
                 summary.wall_s);
    return summary;
}

/**
 * Regenerate one response-time figure: for each access size, a panel
 * of mean response time (ms) and achieved throughput (accesses/sec)
 * per layout per client count -- the series the paper plots. All
 * grid points run concurrently before the tables print.
 */
inline void
runResponseTimeFigure(const char *figure, const char *caption,
                      const std::vector<int> &sizes_kb, AccessType type,
                      ArrayMode mode)
{
    // Post-reconstruction needs spare space to rebuild into.
    std::vector<std::pair<std::string, std::string>> series;
    for (const std::string &spec : evaluatedLayouts()) {
        auto layout = layouts::makeLayout(spec, kDisks);
        if (mode != ArrayMode::PostReconstruction || layout->hasSparing())
            series.emplace_back(spec, layout->name());
    }

    std::vector<harness::Experiment> experiments;
    for (int kb : sizes_kb) {
        for (const auto &[spec, name] : series) {
            for (int clients : kClientCounts) {
                experiments.push_back(scenarioExperiment(
                    {figure, name, kb, clients, type, mode},
                    paperSpec(spec, kb, clients, type, mode)));
            }
        }
    }
    harness::RunSummary summary = runGrid(figure, caption, experiments);

    std::printf("%s: %s\n", figure, caption);
    std::printf("(workload = achieved accesses/sec, cells = mean "
                "response ms)\n");
    size_t index = 0;
    for (int kb : sizes_kb) {
        std::printf("\n-- %d KB %s, %s --\n", kb,
                    type == AccessType::Read ? "reads" : "writes",
                    mode == ArrayMode::FaultFree ? "fault free"
                    : mode == ArrayMode::Degraded
                        ? "single failure"
                        : "post-reconstruction");
        std::printf("%-20s", "layout \\ clients");
        for (int clients : kClientCounts)
            std::printf("  %6d    ", clients);
        std::printf("\n");
        printRule(2 + static_cast<int>(kClientCounts.size()));
        for (const auto &entry : series) {
            std::printf("%-20s", entry.second.c_str());
            for (size_t c = 0; c < kClientCounts.size(); ++c) {
                const SimResult &r = summary.points[index++].result;
                std::printf("  %6.1f@%-4.0f", r.mean_response_ms,
                            r.throughput_per_s);
            }
            std::printf("\n");
        }
    }
    std::printf("\n");
}

/**
 * Regenerate one seek-count figure: per access size, the per-access
 * averages of non-local seeks, cylinder switches, track switches and
 * no-switch operations (the stacked bars of Figures 4/7/15/16).
 */
inline void
runSeekCountFigure(const char *figure, const char *caption,
                   AccessType type, ArrayMode mode)
{
    std::vector<std::string> names;
    std::vector<harness::Experiment> experiments;
    for (const std::string &spec : evaluatedLayouts()) {
        names.push_back(layouts::makeLayout(spec, kDisks)->name());
        for (int kb : kAccessSizesKb) {
            // Section 4: counts are almost workload independent; a
            // moderate concurrency keeps queues busy.
            experiments.push_back(scenarioExperiment(
                {figure, names.back(), kb, 8, type, mode},
                paperSpec(spec, kb, 8, type, mode)));
        }
    }
    harness::RunSummary summary = runGrid(figure, caption, experiments);

    std::printf("%s: %s\n", figure, caption);
    std::printf("(per logical access: non-local / cylinder switch / "
                "track switch / no-switch)\n");
    size_t index = 0;
    for (const std::string &name : names) {
        std::printf("\n-- %s --\n", name.c_str());
        std::printf("%8s  %9s  %9s  %9s  %9s  %9s\n", "size KB",
                    "non-local", "cyl-sw", "trk-sw", "no-sw", "total");
        for (int kb : kAccessSizesKb) {
            const SimResult &r = summary.points[index++].result;
            double total = r.non_local_seeks + r.cylinder_switches +
                           r.track_switches + r.no_switches;
            std::printf("%8d  %9.1f  %9.1f  %9.1f  %9.1f  %9.1f\n", kb,
                        r.non_local_seeks, r.cylinder_switches,
                        r.track_switches, r.no_switches, total);
        }
    }
    std::printf("\n");
}

} // namespace bench
} // namespace pddl

#endif // PDDL_BENCH_BENCH_UTIL_HH
