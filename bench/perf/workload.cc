#include "workload.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "alloc_counter.hh"

namespace pddl {
namespace perf {

namespace {

/** 64-bit FNV-1a, the digest every outcome is folded into. */
class Fnv1a
{
  public:
    void
    bytes(const std::string &text)
    {
        for (unsigned char c : text) {
            hash_ ^= c;
            hash_ *= 0x100000001b3ULL;
        }
        hash_ ^= 0xff; // field separator
        hash_ *= 0x100000001b3ULL;
    }

    void
    number(double value)
    {
        char buffer[40];
        std::snprintf(buffer, sizeof(buffer), "%.17g", value);
        bytes(buffer);
    }

    std::string
    hex() const
    {
        char buffer[20];
        std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash_);
        return buffer;
    }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    timespec now;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_rmw", "zipf_writeback", "wide_rebuild", "autotune"};
    return names;
}

ScenarioSpec
parseWorkloadSpec(const Workload &workload)
{
    ScenarioSpec spec = ScenarioSpec::parseOrThrow(workload.text);
    // The tuner's candidates keep the baseline's short budget, so
    // --quick shrinks the search instead of the spec.
    if (workload.quick && !workload.autotune) {
        spec.samples = std::max<int64_t>(1, spec.samples / kQuickDivisor);
        spec.warmup /= kQuickDivisor;
    }
    return spec;
}

Workload
loadWorkload(const std::string &name, bool quick)
{
    bool known = false;
    for (const std::string &candidate : workloadNames())
        known = known || candidate == name;
    if (!known)
        throw std::runtime_error("unknown workload '" + name + "'");

    Workload workload;
    workload.name = name;
    workload.autotune = name == "autotune";
    workload.quick = quick;
    workload.text =
        readFile(std::string(PDDL_PERF_WORKLOAD_DIR) + "/" + name +
                 ".json");
    workload.spec = parseWorkloadSpec(workload);
    return workload;
}

tune::TuneOptions
tuneOptions(uint64_t seed, bool quick)
{
    tune::TuneOptions options;
    options.chains = 32;
    options.moves = quick ? 1 : 2;
    options.seed = seed;
    options.threads = 1;
    options.sim_threads = 1;
    options.objective = tune::Objective::P99;
    options.eval_seeds = {0x7e57a1u};
    return options;
}

int64_t
measuredSamples(const ScenarioSpec &spec)
{
    return spec.samples + (spec.client == "closed" ? spec.clients - 1 : 0);
}

int64_t
clientAccesses(const ScenarioSpec &spec)
{
    return spec.warmup + measuredSamples(spec);
}

std::string
outcomeDigest(const tune::ScenarioOutcome &outcome)
{
    Fnv1a hash;
    for (double value :
         {outcome.mean_ms, outcome.p50_ms, outcome.p95_ms,
          outcome.p99_ms, outcome.p999_ms, outcome.throughput_per_s,
          static_cast<double>(outcome.samples),
          static_cast<double>(outcome.max_outstanding),
          static_cast<double>(outcome.backend_accesses),
          outcome.hit_rate,
          static_cast<double>(outcome.writes_absorbed),
          static_cast<double>(outcome.write_stalls),
          static_cast<double>(outcome.destage_runs),
          static_cast<double>(outcome.destage_units),
          static_cast<double>(outcome.dirty_end),
          static_cast<double>(outcome.stalled_end),
          static_cast<double>(outcome.rebuilds_completed),
          outcome.data_loss ? 1.0 : 0.0, outcome.cost_units,
          static_cast<double>(outcome.capacity_units)})
        hash.number(value);
    for (int64_t accesses : outcome.shard_accesses)
        hash.number(static_cast<double>(accesses));
    return hash.hex();
}

std::string
tuneDigest(const tune::TuneResult &result)
{
    Fnv1a hash;
    hash.bytes(result.best.describe());
    hash.number(result.best_objective);
    hash.number(result.baseline_objective);
    hash.number(result.evaluations);
    return hash.hex();
}

std::string
checkOutcome(const ScenarioSpec &spec,
             const tune::ScenarioOutcome &outcome)
{
    char buffer[160];
    if (outcome.samples != measuredSamples(spec)) {
        std::snprintf(buffer, sizeof(buffer),
                      "completed %" PRId64 " samples, expected %" PRId64,
                      outcome.samples, measuredSamples(spec));
        return buffer;
    }
    if (outcome.data_loss)
        return "data loss";
    if (outcome.stalled_end > 0) {
        std::snprintf(buffer, sizeof(buffer),
                      "%" PRId64 " writes stalled at drain",
                      outcome.stalled_end);
        return buffer;
    }
    if (outcome.rebuilds_completed !=
        static_cast<int>(spec.faults.size())) {
        std::snprintf(buffer, sizeof(buffer),
                      "%d rebuilds completed for %zu scripted faults",
                      outcome.rebuilds_completed, spec.faults.size());
        return buffer;
    }
    return "";
}

Repetition
runRepetition(const Workload &workload, uint64_t seed)
{
    Repetition rep;
    if (workload.autotune) {
        const tune::TuneOptions options =
            tuneOptions(seed, workload.quick);
        const uint64_t allocs_before = allocationCount();
        const double start = cpuSeconds();
        const tune::TuneResult result = tune::tune(workload.spec, options);
        rep.host_s = cpuSeconds() - start;
        rep.allocations = allocationCount() - allocs_before;
        // Every evaluation, the baseline's included, simulates the
        // spec's budget once per training seed.
        rep.accesses = static_cast<double>(
            (result.evaluations + 1) * clientAccesses(workload.spec) *
            static_cast<int64_t>(options.eval_seeds.size()));
        rep.digest = tuneDigest(result);
        if (!(result.best_objective <= result.baseline_objective)) {
            char buffer[120];
            std::snprintf(buffer, sizeof(buffer),
                          "best objective %.17g above baseline %.17g",
                          result.best_objective,
                          result.baseline_objective);
            rep.error = buffer;
        }
        return rep;
    }

    tune::RunScenarioOptions options;
    options.seed = seed;
    options.sim_threads = 1;
    const uint64_t allocs_before = allocationCount();
    const double start = cpuSeconds();
    const tune::ScenarioOutcome outcome =
        tune::runScenario(workload.spec, options);
    rep.host_s = cpuSeconds() - start;
    rep.allocations = allocationCount() - allocs_before;
    rep.accesses = static_cast<double>(clientAccesses(workload.spec));
    rep.digest = outcomeDigest(outcome);
    rep.error = checkOutcome(workload.spec, outcome);
    return rep;
}

} // namespace perf
} // namespace pddl
