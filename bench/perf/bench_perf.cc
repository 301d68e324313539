/**
 * @file
 * bench_perf: host speed of the simulator, end to end and per layer.
 *
 * "Performance" here is the host time the simulator takes. Simulated
 * response times are the paper's output and are deliberately not
 * metrics; they only enter the outcome digest that proves a run
 * simulated what it should have.
 *
 * The driver re-executes itself as one child process per (workload,
 * repetition), one at a time, each on one thread and one engine lane.
 * Repetitions are interleaved round-robin across workloads so host
 * drift hits every workload alike. Each repetition first builds the
 * stack 21 times for setup_s, then times the run, both in CPU seconds
 * (cpuSeconds). Those are scaled to a reference host speed measured
 * around the child on the same vCPU (HostReference). The driver checks
 * that every repetition of a workload reproduces the same outcome
 * digest, prints `workload metric median unit [q1..q3] n=N` for every
 * metric, and with --json writes a pddl-perf-v1 document carrying
 * every repetition and the build environment.
 *
 * --traced replaces the end-to-end run with one traced child per
 * workload (layers.hh): per-layer metrics plus the check that the
 * bench-assembled stack reproduces runScenario's digest. --quick runs
 * both at 1/50 size with one repetition, for ctest.
 */

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/arg_parser.hh"
#include "layers.hh"
#include "obs/probe.hh"
#include "stack.hh"
#include "util/json.hh"
#include "workload.hh"

namespace pddl {
namespace perf {
namespace {

/** Stack builds behind each repetition's setup_s. */
constexpr int kSetupBuilds = 21;
/** Repetitions per workload of a run without --seconds. */
constexpr int kReps = 5;
/** Repetitions a time-budgeted (--seconds) run never goes below. */
constexpr int kMinTimedReps = 3;

/** The run as the command line asked for it. */
struct Options
{
    std::vector<std::string> workloads;
    uint64_t seed = 42;
    /** > 0: repeat until this much host time has gone by. */
    double seconds = 0.0;
    bool traced = false;
    bool quick = false;
    std::string json_path;
    std::string out_dir = ".";
};

// ---------------------------------------------------------------------
// Child side: one measurement, one JSON line on stdout.
// ---------------------------------------------------------------------

/**
 * Peak resident set of this process image, in MB. VmHWM rather than
 * getrusage's ru_maxrss: the latter also keeps the high-water mark of
 * the image exec replaced, i.e. the forked copy of the driver.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MB
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

Json
childRun(const std::string &mode, const Options &options)
{
    const Workload workload =
        loadWorkload(options.workloads.front(), options.quick);
    Json doc = Json::object();
    if (mode == "rep") {
        // Setup first, outside the run's allocation and time window.
        const double setup_s = setupSeconds(
            workload, options.seed, options.quick ? 3 : kSetupBuilds);
        const Repetition rep = runRepetition(workload, options.seed);
        doc.set("setup_s", setup_s)
            .set("host_s", rep.host_s)
            .set("accesses", rep.accesses)
            .set("allocations", rep.allocations)
            .set("digest", rep.digest)
            .set("error", rep.error);
    } else if (mode == "traced") {
        doc = tracedRun(workload, options.seed, options.out_dir);
    } else {
        throw std::runtime_error("unknown child mode '" + mode + "'");
    }
    doc.set("peak_rss_mb", peakRssMb());
    return doc;
}

// ---------------------------------------------------------------------
// Driver side.
// ---------------------------------------------------------------------

/**
 * Host-speed reference. CPU time already leaves out steal time, but a
 * shared host still runs a vCPU faster in some stretches of tens of
 * seconds than in others -- the simulations up to 1.6x, and a
 * floating-point loop more than an integer one. So the driver times a
 * fixed kernel in CPU seconds right before and after every child, on
 * the children's vCPU: a dependent integer chain and a pow() series
 * (the kind of loop the zipf sampler runs), in about equal parts. A
 * child's CPU seconds are then expressed as seconds of a reference
 * host on which the kernel takes kNominalS. The kernel touches no
 * memory to speak of: a random-access part tracked the simulations
 * worse than none. It is benchmark code, so no library change can
 * move it, and a faster simulator still reads faster.
 */
class HostReference
{
  public:
    /** Host speed relative to the reference host (> 1: faster). */
    double
    speed()
    {
        const double start = cpuSeconds();
        uint64_t x = 0x9e3779b97f4a7c15ULL;
        uint64_t acc = 0;
        for (int i = 0; i < kChainSteps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += x * 0x9e3779b97f4a7c15ULL;
            acc ^= acc >> 29;
        }
        double series = 0.0;
        for (int i = 1; i <= kPowTerms; ++i)
            series += 1.0 / std::pow(static_cast<double>(i), 0.99);
        kernelSink = acc + static_cast<uint64_t>(series);
        return kNominalS / (cpuSeconds() - start);
    }

  private:
    static constexpr double kNominalS = 0.12;
    static constexpr int kChainSteps = 20000000;
    static constexpr int kPowTerms = 2500000;

    /**
     * Keeps the kernel's results alive. Static storage: a volatile
     * member of a local object that never escapes is optimized away
     * together with the loops that feed it.
     */
    static inline volatile uint64_t kernelSink = 0;
};

/** What one child reported (error set when it failed to report). */
struct ChildResult
{
    Json doc;
    std::string error;
};

/**
 * Run this executable again with `args` and parse the last line it
 * prints. Waits for the child before returning.
 */
ChildResult
spawnChild(const std::vector<std::string> &args)
{
    ChildResult result;
    int fds[2];
    if (pipe(fds) != 0) {
        result.error = "pipe failed";
        return result;
    }
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        result.error = "fork failed";
        return result;
    }
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        std::vector<char *> argv;
        static char self[] = "/proc/self/exe";
        argv.push_back(self);
        for (const std::string &arg : args)
            argv.push_back(const_cast<char *>(arg.c_str()));
        argv.push_back(nullptr);
        execv(self, argv.data());
        _exit(127);
    }
    close(fds[1]);
    std::string output;
    char buffer[4096];
    ssize_t got;
    while ((got = read(fds[0], buffer, sizeof(buffer))) > 0)
        output.append(buffer, static_cast<size_t>(got));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);

    while (!output.empty() && output.back() == '\n')
        output.pop_back();
    const std::string last = output.substr(output.rfind('\n') + 1);
    std::string parse_error;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        result.error = "child exited abnormally (status " +
                       std::to_string(status) + ")";
    } else if (!Json::parse(last, result.doc, parse_error) ||
               !result.doc.isObject()) {
        result.error = "unreadable child report: " + parse_error;
    } else if (const Json *error = result.doc.find("error");
               error != nullptr && !error->asString().empty()) {
        result.error = error->asString();
    }
    return result;
}

/** A child's report plus the host speed measured around it. */
struct Timed
{
    ChildResult child;
    double host_speed = 1.0;
};

Timed
spawnTimed(HostReference &reference, const std::vector<std::string> &args)
{
    Timed timed;
    const double before = reference.speed();
    timed.child = spawnChild(args);
    timed.host_speed = (before + reference.speed()) / 2.0;
    return timed;
}

std::vector<std::string>
childArgs(const std::string &mode, const std::string &workload,
          const Options &options)
{
    std::vector<std::string> args = {"--child", mode, "--workload",
                                     workload, "--seed",
                                     std::to_string(options.seed),
                                     "--out-dir", options.out_dir};
    if (options.quick)
        args.push_back("--quick");
    return args;
}

/**
 * Median and quartiles as Python's statistics.median and
 * statistics.quantiles(values, n=4) (the "exclusive" method) report
 * them, so perf_diff.py and this table agree on every number.
 */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
};

Summary
summarize(std::vector<double> values)
{
    Summary summary;
    if (values.empty())
        return summary;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    summary.median = n % 2 == 1
                         ? values[n / 2]
                         : (values[n / 2 - 1] + values[n / 2]) / 2.0;
    if (n < 2) {
        summary.q1 = summary.q3 = values.front();
        return summary;
    }
    const auto quartile = [&](int i) {
        const long long m = static_cast<long long>(n) + 1;
        long long j = i * m / 4;
        j = std::clamp<long long>(j, 1, static_cast<long long>(n) - 1);
        const long long delta = i * m - j * 4;
        return (values[static_cast<size_t>(j - 1)] * (4 - delta) +
                values[static_cast<size_t>(j)] * delta) /
               4.0;
    };
    summary.q1 = quartile(1);
    summary.q3 = quartile(3);
    return summary;
}

/** Everything measured for one workload. */
struct WorkloadRun
{
    std::string name;
    Json repetitions = Json::array();
    int attempted = 0;
    int failed = 0;
    std::string digest;
    std::vector<double> accesses_per_s;
    std::vector<double> setup_s;
    std::vector<double> allocs_per_access;
    std::vector<double> peak_rss_mb;
    std::vector<double> host_speed;
    Json traced;
    std::string traced_error;
};

void
recordRepetition(WorkloadRun &run, int index, const Timed &timed)
{
    const ChildResult &child = timed.child;
    ++run.attempted;
    Json rep = child.doc.isObject() ? child.doc : Json::object();
    std::string error = child.error;
    if (error.empty()) {
        const std::string digest = child.doc.find("digest")->asString();
        if (run.digest.empty())
            run.digest = digest;
        else if (digest != run.digest)
            error = "outcome digest " + digest + " differs from " +
                    run.digest;
    }
    rep.set("rep", index)
        .set("ok", error.empty())
        .set("error", error)
        .set("host_speed", timed.host_speed);
    run.repetitions.push(rep);
    if (!error.empty()) {
        ++run.failed;
        std::fprintf(stderr, "[perf] %s rep %d FAILED: %s\n",
                     run.name.c_str(), index, error.c_str());
        return;
    }
    std::fprintf(stderr, "[perf] %s rep %d outcome_digest %s\n",
                 run.name.c_str(), index,
                 child.doc.find("digest")->asString().c_str());
    // CPU seconds in reference-host seconds (see HostReference).
    const double host_s =
        child.doc.find("host_s")->asDouble() * timed.host_speed;
    const double accesses = child.doc.find("accesses")->asDouble();
    run.host_speed.push_back(timed.host_speed);
    run.accesses_per_s.push_back(accesses / host_s);
    run.setup_s.push_back(child.doc.find("setup_s")->asDouble() *
                          timed.host_speed);
    run.allocs_per_access.push_back(
        child.doc.find("allocations")->asDouble() / accesses);
    run.peak_rss_mb.push_back(child.doc.find("peak_rss_mb")->asDouble());
}

/** Adds one metric to `metrics` and prints its table row. */
void
emitMetric(Json &metrics, const std::string &workload, const char *name,
           const char *unit, const std::vector<double> &values)
{
    if (values.empty())
        return;
    const Summary s = summarize(values);
    std::printf("%-15s %-18s %14.6g %-5s [%.6g..%.6g] n=%zu\n",
                workload.c_str(), name, s.median, unit, s.q1, s.q3,
                values.size());
    Json list = Json::array();
    for (double value : values)
        list.push(value);
    Json entry = Json::object();
    entry.set("median", s.median)
        .set("q1", s.q1)
        .set("q3", s.q3)
        .set("unit", unit)
        .set("n", static_cast<int64_t>(values.size()))
        .set("values", std::move(list));
    metrics.set(name, std::move(entry));
}

std::string
gitSha()
{
    const std::string command =
        "git -C '" + std::string(PDDL_PERF_SOURCE_DIR) +
        "' rev-parse HEAD 2>/dev/null";
    std::string sha;
    if (std::FILE *pipe = popen(command.c_str(), "r")) {
        char buffer[128];
        while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr)
            sha += buffer;
        pclose(pipe);
    }
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    return sha.empty() ? "unknown" : sha;
}

Json
envBlock()
{
    Json env = Json::object();
    env.set("git_sha", gitSha())
        .set("compiler", PDDL_PERF_COMPILER)
        .set("build_type", PDDL_PERF_BUILD_TYPE)
        .set("pddl_obs", obs::kObsEnabled)
        .set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    return env;
}

int
runDriver(const Options &options)
{
    std::error_code ignored;
    std::filesystem::create_directories(options.out_dir, ignored);
    // The reference kernel and the children share one vCPU, so both
    // see the host speed of the same core. Every run takes the same
    // one, the highest allowed: vCPU 0 tends to field the interrupts.
    cpu_set_t cpus;
    if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
        int last = -1;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &cpus))
                last = cpu;
        }
        CPU_ZERO(&cpus);
        CPU_SET(last, &cpus);
        sched_setaffinity(0, sizeof(cpus), &cpus);
    }
    HostReference reference;
    std::vector<WorkloadRun> runs;
    for (const std::string &name : options.workloads) {
        WorkloadRun run;
        run.name = name;
        runs.push_back(std::move(run));
    }

    const bool end_to_end = !options.traced || options.quick;
    if (end_to_end) {
        const Clock::time_point start = Clock::now();
        for (int round = 0;; ++round) {
            if (options.quick && round >= 1)
                break;
            if (options.seconds > 0.0) {
                if (round >= kMinTimedReps &&
                    secondsSince(start) >= options.seconds)
                    break;
            } else if (round >= kReps) {
                break;
            }
            for (WorkloadRun &run : runs) {
                recordRepetition(
                    run, round,
                    spawnTimed(reference,
                               childArgs("rep", run.name, options)));
            }
        }
    }
    if (options.traced || options.quick) {
        for (WorkloadRun &run : runs) {
            std::fprintf(stderr, "[perf] %s traced\n", run.name.c_str());
            const ChildResult child =
                spawnChild(childArgs("traced", run.name, options));
            run.traced = child.doc;
            run.traced_error = child.error;
            if (!child.error.empty())
                std::fprintf(stderr, "[perf] %s traced FAILED: %s\n",
                             run.name.c_str(), child.error.c_str());
        }
    }

    int attempted = 0;
    int failed = 0;
    Json workloads = Json::array();
    for (WorkloadRun &run : runs) {
        Json doc = Json::object();
        doc.set("name", run.name)
            .set("spec", "bench/perf/workloads/" + run.name + ".json");
        if (end_to_end) {
            Json metrics = Json::object();
            emitMetric(metrics, run.name, "accesses_per_s", "1/s",
                       run.accesses_per_s);
            emitMetric(metrics, run.name, "setup_s", "s", run.setup_s);
            emitMetric(metrics, run.name, "allocs_per_access", "count",
                       run.allocs_per_access);
            emitMetric(metrics, run.name, "peak_rss_mb", "MB",
                       run.peak_rss_mb);
            emitMetric(metrics, run.name, "host_speed", "ratio",
                       run.host_speed);
            emitMetric(
                metrics, run.name, "failed_frac", "ratio",
                {static_cast<double>(run.failed) /
                 static_cast<double>(std::max(run.attempted, 1))});
            doc.set("repetitions", run.repetitions)
                .set("digest", run.digest)
                .set("metrics", std::move(metrics));
            attempted += run.attempted;
            failed += run.failed;
        }
        if (options.traced || options.quick) {
            ++attempted;
            if (!run.traced_error.empty())
                ++failed;
            if (const Json *layers = run.traced.find("metrics")) {
                for (const auto &[name, entry] : layers->members()) {
                    std::printf("%-15s %-32s %14.6g %s\n", run.name.c_str(),
                                name.c_str(), entry.find("value")->asDouble(),
                                entry.find("unit")->asString().c_str());
                }
            }
            doc.set("traced", run.traced).set("traced_error",
                                              run.traced_error);
        }
        workloads.push(std::move(doc));
    }

    if (!options.json_path.empty()) {
        Json doc = Json::object();
        doc.set("schema", "pddl-perf-v1")
            .set("env", envBlock())
            .set("seed", options.seed)
            .set("mode", options.quick    ? "quick"
                         : options.traced ? "traced"
                                          : "e2e")
            .set("attempted", attempted)
            .set("failed", failed)
            .set("workloads", std::move(workloads));
        std::ofstream out(options.json_path, std::ios::trunc);
        out << doc.dump(2) << "\n";
        if (!out) {
            std::fprintf(stderr, "[perf] cannot write %s\n",
                         options.json_path.c_str());
            return 2;
        }
    }
    std::fprintf(stderr, "[perf] %d attempted, %d failed\n", attempted,
                 failed);
    return failed == 0 ? 0 : 1;
}

} // namespace
} // namespace perf
} // namespace pddl

int
main(int argc, char **argv)
{
    using namespace pddl;
    using namespace pddl::perf;

    harness::ArgParser cli(
        argv[0],
        "Host speed of the simulator: end-to-end accesses/s, setup "
        "time, allocations and memory on four workloads, or per-layer "
        "costs with --traced.");
    cli.addString("json", "file", "write the pddl-perf-v1 document here");
    cli.addInt("seed", "n", "workload seed (default 42)", 0);
    cli.addString("workload", "names",
                  "comma-separated subset of paper_rmw, zipf_writeback, "
                  "wide_rebuild, autotune (default: all)");
    cli.addBool("traced", "per-layer metrics instead of end-to-end ones");
    cli.addBool("quick",
                "1/50 size, one repetition, plus the traced-stack "
                "digest check");
    cli.addInt("seconds", "s",
               "repeat until this many seconds have gone by "
               "(at least 3 repetitions; default: 5 repetitions)",
               1);
    cli.addString("out-dir", "dir",
                  "directory for traces (default: next to --json)");
    cli.addString("child", "mode", "internal: run one measurement");
    if (!cli.parse(argc, argv)) {
        std::fprintf(stderr, "%s\n%s\n", cli.error().c_str(),
                     cli.usage().c_str());
        return 2;
    }
    if (cli.helpRequested()) {
        std::printf("%s\n", cli.usage().c_str());
        return 0;
    }

    Options options;
    options.seed = static_cast<uint64_t>(cli.getInt("seed", 42));
    options.seconds = static_cast<double>(cli.getInt("seconds", 0));
    options.traced = cli.getBool("traced");
    options.quick = cli.getBool("quick");
    options.json_path = cli.getString("json");
    if (cli.has("out-dir")) {
        options.out_dir = cli.getString("out-dir");
    } else if (const size_t slash = options.json_path.rfind('/');
               slash != std::string::npos) {
        options.out_dir = options.json_path.substr(0, slash);
    }
    const std::string selected = cli.getString("workload");
    for (size_t begin = 0; begin < selected.size();) {
        const size_t comma = std::min(selected.find(',', begin),
                                      selected.size());
        options.workloads.push_back(selected.substr(begin, comma - begin));
        begin = comma + 1;
    }
    if (options.workloads.empty())
        options.workloads = workloadNames();
    for (const std::string &name : options.workloads) {
        const auto &known = workloadNames();
        if (std::find(known.begin(), known.end(), name) == known.end()) {
            std::fprintf(stderr, "unknown workload '%s'\n%s\n",
                         name.c_str(), cli.usage().c_str());
            return 2;
        }
    }

    if (cli.has("child")) {
        try {
            const Json doc = childRun(cli.getString("child"), options);
            std::printf("%s\n", doc.dump(0).c_str());
        } catch (const std::exception &error) {
            Json doc = Json::object();
            doc.set("error", std::string("threw: ") + error.what());
            std::printf("%s\n", doc.dump(0).c_str());
        }
        return 0;
    }
    return runDriver(options);
}
