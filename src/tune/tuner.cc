#include "tune/tuner.hh"

#include <cmath>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/imbalance.hh"
#include "harness/parallel_for.hh"
#include "util/rng.hh"

namespace pddl {
namespace tune {

namespace {

/** Reject a layout whose surrogate worst ratio exceeds the
 *  incumbent's times this slack. */
constexpr double kSurrogateSlack = 1.10;
/** Initial annealing temperature (relative objective units). */
constexpr double kInitialTemperature = 0.25;
/** Geometric cooling factor per move. */
constexpr double kCooling = 0.85;

/** Pick one element of a small candidate list. */
template <typename T>
T
pick(Rng &rng, std::initializer_list<T> candidates)
{
    const size_t index = static_cast<size_t>(
        rng.below(static_cast<uint64_t>(candidates.size())));
    return *(candidates.begin() + index);
}

/** Single-fault rebuild-imbalance worst ratio of a layout. */
double
surrogateWorst(const Layout &layout)
{
    return ImbalanceEvaluator::forLayout(layout).metrics(1).worst;
}

/** The mean objective of `compiled` over `seeds` (infinite when any
 *  run is infeasible). */
double
score(const CompiledScenario &compiled, const std::vector<uint64_t> &seeds,
      Objective objective)
{
    double total = 0.0;
    for (uint64_t seed : seeds) {
        RunScenarioOptions options;
        options.seed = seed;
        const double one =
            objectiveOf(runScenario(compiled, options), objective);
        if (!std::isfinite(one))
            return std::numeric_limits<double>::infinity();
        total += one;
    }
    return seeds.empty() ? std::numeric_limits<double>::infinity()
                         : total / static_cast<double>(seeds.size());
}

/**
 * The objectives of one tune() call, keyed by canonical describe()
 * text and shared by all its chains. Each distinct key is simulated
 * once: the first caller scores it outside the lock, and a chain that
 * asks for a key still being scored waits on that score's future
 * (which carries a throwing score's exception to every waiter).
 */
class ScoreTable
{
  public:
    explicit ScoreTable(const TuneOptions &options) : options_(options)
    {
    }

    /** The objective of `candidate`, whose describe() is `key`. */
    double
    get(const std::string &key, const CompiledScenario &candidate)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (auto hit = scores_.find(key); hit != scores_.end()) {
            const std::shared_future<double> future = hit->second;
            lock.unlock();
            return future.get();
        }
        std::promise<double> promise;
        scores_.emplace(key, promise.get_future().share());
        lock.unlock();
        try {
            const double objective = score(
                candidate, options_.eval_seeds, options_.objective);
            promise.set_value(objective);
            return objective;
        } catch (...) {
            promise.set_exception(std::current_exception());
            throw;
        }
    }

    /** Distinct keys scored so far. */
    int
    simulations() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return static_cast<int>(scores_.size());
    }

  private:
    const TuneOptions &options_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_future<double>> scores_;
};

/** The knob families one move can touch. */
enum class Move
{
    Layout,
    UnitSectors,
    ChunkUnits,
    Placement,
    SstfWindow,
    CacheWater,
    CacheGeometry,
    CacheSize,
    RebuildParallel,
};

/**
 * Mutate one knob family of `spec` in place (not yet normalized).
 * Returns the family touched. `baseline` caps budgeted resources:
 * the cache-size move may shrink the tier but never grow it past
 * the hand-picked budget -- a bigger cache is not a tuning insight.
 */
Move
mutateOnce(ScenarioSpec &spec, const ScenarioSpec &baseline, Rng &rng)
{
    std::vector<Move> applicable = {
        Move::Layout, Move::UnitSectors, Move::ChunkUnits,
        Move::Placement, Move::SstfWindow};
    if (spec.cache_enabled) {
        applicable.push_back(Move::CacheWater);
        applicable.push_back(Move::CacheGeometry);
        applicable.push_back(Move::CacheSize);
    }
    if (!spec.faults.empty())
        applicable.push_back(Move::RebuildParallel);
    const Move move = applicable[static_cast<size_t>(
        rng.below(applicable.size()))];

    switch (move) {
    case Move::Layout: {
        ScenarioShard &shard = spec.shards[static_cast<size_t>(
            rng.below(spec.shards.size()))];
        switch (rng.below(6)) {
        case 0:
            shard.layout = "pddl:width=" +
                           std::to_string(pick(rng, {2, 3, 4, 6}));
            break;
        case 1:
            shard.layout = "raid5";
            break;
        case 2:
            shard.layout = "parity:width=" +
                           std::to_string(pick(rng, {2, 4}));
            break;
        case 3:
            shard.layout = "prime:width=" +
                           std::to_string(pick(rng, {2, 4}));
            break;
        case 4:
            shard.layout = "mirror:copies=2";
            break;
        default:
            // The seeded family: the layout seed is itself a knob.
            shard.layout =
                "draid:width=" + std::to_string(pick(rng, {2, 4})) +
                ",spares=" + std::to_string(pick(rng, {0, 1})) +
                ",rows=" + std::to_string(pick(rng, {16, 32, 64})) +
                ",seed=" + std::to_string(rng.below(1u << 20));
            break;
        }
        break;
    }
    case Move::UnitSectors:
        spec.unit_sectors = pick(rng, {8, 16, 32});
        break;
    case Move::ChunkUnits:
        spec.chunk_units = pick(rng, {4, 8, 16, 32, 64});
        break;
    case Move::Placement:
        switch (rng.below(3)) {
        case 0:
            spec.placement = "static";
            break;
        case 1:
            spec.placement = "rotate";
            break;
        default:
            spec.placement =
                "shuffle:" + std::to_string(rng.below(1u << 30));
            break;
        }
        break;
    case Move::SstfWindow:
        spec.sstf_window = pick(rng, {8, 20, 64});
        break;
    case Move::CacheWater: {
        spec.cache_high =
            pick(rng, {0.05, 0.10, 0.20, 0.35, 0.50, 0.70});
        spec.cache_low =
            spec.cache_high * pick(rng, {0.25, 0.50, 0.75});
        break;
    }
    case Move::CacheGeometry:
        switch (rng.below(3)) {
        case 0:
            spec.cache_ways = pick(rng, {4, 8, 16});
            break;
        case 1:
            spec.cache_run_units = pick(rng, {16, 32, 64, 128});
            break;
        default:
            spec.cache_width = pick(rng, {2, 4, 8});
            break;
        }
        break;
    case Move::CacheSize:
        // Budget-fair: at most the baseline's capacity.
        spec.cache_kb =
            baseline.cache_kb /
            static_cast<int64_t>(pick(rng, {1, 2, 4}));
        break;
    case Move::RebuildParallel:
        spec.rebuild_parallel = pick(rng, {1, 2, 4, 8, 16});
        break;
    }
    return move;
}

struct ChainContext
{
    const CompiledScenario *baseline;
    const TuneOptions *options;
    double baseline_objective;
    ScoreTable *scores;
};

TuneChain
runChain(int chain, const ChainContext &context)
{
    const TuneOptions &options = *context.options;
    const ScenarioSpec &baseline = context.baseline->spec();

    TuneChain result;
    result.chain = chain;

    Rng rng(hashMix64(static_cast<uint64_t>(chain), options.seed));
    // The keys this chain has asked for: its evaluated / memo_hits
    // split, independent of what other chains have scored.
    std::unordered_set<std::string> seen = {baseline.describe()};

    CompiledScenario current = *context.baseline;
    double current_objective = context.baseline_objective;
    result.best = baseline;
    result.best_objective = context.baseline_objective;

    double temperature = kInitialTemperature;
    for (int move = 0; move < options.moves;
         ++move, temperature *= kCooling) {
        ScenarioSpec mutated = current.spec();
        const Move kind = mutateOnce(mutated, baseline, rng);
        std::string error;
        std::optional<CompiledScenario> candidate =
            compileScenario(mutated, error);
        if (!candidate) {
            // The mutation proposed an unbuildable combination
            // (mirror over 13 disks, width > disks, ...): skip, the
            // spec's own validator is the constraint oracle.
            ++result.invalid_moves;
            continue;
        }
        if (candidate->spec() == current.spec())
            continue;

        if (kind == Move::Layout) {
            // Cheap pre-screen: a layout that rebuilds clearly less
            // evenly than the incumbent is not worth a simulation.
            bool rejected = false;
            for (int s = 0; s < static_cast<int>(mutated.shards.size());
                 ++s) {
                if (candidate->spec().shards[s].layout ==
                    current.spec().shards[s].layout)
                    continue;
                if (surrogateWorst(*candidate->shard(s).layout) >
                    surrogateWorst(*current.shard(s).layout) *
                        kSurrogateSlack) {
                    rejected = true;
                    break;
                }
            }
            if (rejected) {
                ++result.surrogate_rejects;
                continue;
            }
        }

        std::string key = candidate->spec().describe();
        const double objective = context.scores->get(key, *candidate);
        if (seen.insert(std::move(key)).second)
            ++result.evaluated;
        else
            ++result.memo_hits;

        const double delta = objective - current_objective;
        bool accept = delta <= 0.0;
        if (!accept && std::isfinite(delta) &&
            current_objective > 0.0 && temperature > 0.0) {
            const double relative = delta / current_objective;
            accept = rng.uniform() <
                     std::exp(-relative / temperature);
        }
        if (accept) {
            current = std::move(*candidate);
            current_objective = objective;
            ++result.accepted;
            if (current_objective < result.best_objective) {
                result.best = current.spec();
                result.best_objective = current_objective;
            }
        }
    }
    return result;
}

} // namespace

double
evaluateScenario(const ScenarioSpec &spec,
                 const std::vector<uint64_t> &seeds,
                 Objective objective, int64_t eval_samples,
                 int64_t eval_warmup, int /*sim_threads*/)
{
    ScenarioSpec trimmed = spec;
    if (eval_samples > 0)
        trimmed.samples = eval_samples;
    if (eval_warmup >= 0)
        trimmed.warmup = eval_warmup;
    return score(compileOrThrow(trimmed), seeds, objective);
}

TuneResult
tune(const ScenarioSpec &baseline, const TuneOptions &options)
{
    TuneResult result;

    // The hand-picked starting point is scored with the exact same
    // protocol as every candidate: the accept rule and the final
    // "did tuning help" comparison both read this number.
    const CompiledScenario compiled = compileOrThrow(baseline);
    ScoreTable scores(options);
    result.baseline_objective =
        scores.get(compiled.spec().describe(), compiled);

    ChainContext context{&compiled, &options, result.baseline_objective,
                         &scores};
    result.chains.resize(static_cast<size_t>(options.chains));

    // A chain's path depends only on its seed and the scores it reads,
    // and a score is a pure function of its key, so sharing the table
    // changes which chain pays for a simulation, never what any chain
    // sees; the thread count only changes wall time. Merging below
    // walks chain index order, so the outcome is byte-identical for
    // every thread count.
    harness::parallelFor(
        options.threads, static_cast<size_t>(options.chains),
        [&](size_t chain) {
            result.chains[chain] =
                runChain(static_cast<int>(chain), context);
        });

    result.best = compiled.spec();
    result.best_objective = result.baseline_objective;
    for (const TuneChain &chain : result.chains) {
        result.evaluations += chain.evaluated;
        if (chain.best_objective < result.best_objective) {
            result.best = chain.best;
            result.best_objective = chain.best_objective;
        }
    }
    result.simulations = scores.simulations();
    return result;
}

} // namespace tune
} // namespace pddl
