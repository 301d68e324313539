#include "tune/tuner.hh"

#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>

#include "core/imbalance.hh"
#include "core/layout_spec.hh"
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

/** Single-fault rebuild-imbalance worst ratio of a layout spec. */
double
surrogateWorst(const std::string &layout_spec, int disks)
{
    auto layout = layouts::makeLayout(layout_spec, disks);
    return ImbalanceEvaluator::forLayout(*layout).metrics(1).worst;
}

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
    const ScenarioSpec *baseline;
    const TuneOptions *options;
    double baseline_objective;
};

TuneChain
runChain(int chain, const ChainContext &context)
{
    const TuneOptions &options = *context.options;
    const ScenarioSpec &baseline = *context.baseline;

    TuneChain result;
    result.chain = chain;

    Rng rng(hashMix64(static_cast<uint64_t>(chain), options.seed));
    std::unordered_map<std::string, double> memo;
    memo.emplace(baseline.describe(), context.baseline_objective);

    ScenarioSpec current = baseline;
    double current_objective = context.baseline_objective;
    result.best = baseline;
    result.best_objective = context.baseline_objective;

    double temperature = kInitialTemperature;
    for (int move = 0; move < options.moves;
         ++move, temperature *= kCooling) {
        ScenarioSpec candidate = current;
        const Move kind = mutateOnce(candidate, baseline, rng);
        std::string error;
        if (!candidate.normalize(error)) {
            // The mutation proposed an unbuildable combination
            // (mirror over 13 disks, width > disks, ...): skip, the
            // spec's own validator is the constraint oracle.
            ++result.invalid_moves;
            continue;
        }
        if (candidate == current)
            continue;

        if (kind == Move::Layout) {
            // Cheap pre-screen: a layout that rebuilds clearly less
            // evenly than the incumbent is not worth a simulation.
            bool rejected = false;
            for (size_t s = 0; s < candidate.shards.size(); ++s) {
                if (candidate.shards[s].layout ==
                    current.shards[s].layout)
                    continue;
                const double cand = surrogateWorst(
                    candidate.shards[s].layout,
                    candidate.shards[s].disks);
                const double cur = surrogateWorst(
                    current.shards[s].layout,
                    current.shards[s].disks);
                if (cand > cur * kSurrogateSlack) {
                    rejected = true;
                    break;
                }
            }
            if (rejected) {
                ++result.surrogate_rejects;
                continue;
            }
        }

        const std::string key = candidate.describe();
        double objective;
        auto hit = memo.find(key);
        if (hit != memo.end()) {
            objective = hit->second;
            ++result.memo_hits;
        } else {
            objective = evaluateScenario(
                candidate, options.eval_seeds, options.objective, 0, -1);
            memo.emplace(key, objective);
            ++result.evaluated;
        }

        const double delta = objective - current_objective;
        bool accept = delta <= 0.0;
        if (!accept && std::isfinite(delta) &&
            current_objective > 0.0 && temperature > 0.0) {
            const double relative = delta / current_objective;
            accept = rng.uniform() <
                     std::exp(-relative / temperature);
        }
        if (accept) {
            current = std::move(candidate);
            current_objective = objective;
            ++result.accepted;
            if (current_objective < result.best_objective) {
                result.best = current;
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

    double total = 0.0;
    for (uint64_t seed : seeds) {
        RunScenarioOptions options;
        options.seed = seed;
        const double score =
            objectiveOf(runScenario(trimmed, options), objective);
        if (!std::isfinite(score))
            return std::numeric_limits<double>::infinity();
        total += score;
    }
    return seeds.empty() ? std::numeric_limits<double>::infinity()
                         : total / static_cast<double>(seeds.size());
}

TuneResult
tune(const ScenarioSpec &baseline, const TuneOptions &options)
{
    TuneResult result;

    // The hand-picked starting point is scored with the exact same
    // protocol as every candidate: the accept rule and the final
    // "did tuning help" comparison both read this number.
    result.baseline_objective =
        evaluateScenario(baseline, options.eval_seeds,
                         options.objective, 0, -1);

    ChainContext context{&baseline, &options,
                         result.baseline_objective};
    result.chains.resize(static_cast<size_t>(options.chains));

    // Chains are fully independent; the thread count only changes
    // wall time. Merging below walks chain index order, so the
    // outcome is byte-identical for every thread count.
    harness::parallelFor(
        options.threads, static_cast<size_t>(options.chains),
        [&](size_t chain) {
            result.chains[chain] =
                runChain(static_cast<int>(chain), context);
        });

    result.best = baseline;
    result.best_objective = result.baseline_objective;
    for (const TuneChain &chain : result.chains) {
        result.evaluations += chain.evaluated;
        if (chain.best_objective < result.best_objective) {
            result.best = chain.best;
            result.best_objective = chain.best_objective;
        }
    }
    return result;
}

} // namespace tune
} // namespace pddl
