/**
 * @file
 * Parallel seeded derandomization of developed-random-rows maps.
 *
 * dRAID picks the best of many random maps; derandomization goes one
 * step further and *improves* a random map by greedy transpositions.
 * The search runs C independent chains: chain c starts from the raw
 * random map of its own deterministic seed (hashMix64(c, seed)) and
 * performs `moves` candidate transpositions of one row each, scored
 * by the ImbalanceEvaluator's O(k) incremental delta -- apply, keep
 * when the cost does not rise, revert otherwise. The evaluator's
 * exact integral cost makes accept/reject decisions bit-stable, so a
 * chain's final map is a pure function of (chain seed, move count),
 * and the whole result is a pure function of the options.
 *
 * Chains are fanned out with harness::parallelFor (one item per
 * chain); since chains never communicate, the result is
 * byte-identical at every thread count. The best chain is chosen by
 * (worst-case single-fault imbalance, cost, chain index), and the
 * best *initial* map across chains doubles as the "best raw random
 * seed" baseline the derandomized result is judged against.
 */

#ifndef PDDL_CORE_LAYOUT_SEARCH_HH
#define PDDL_CORE_LAYOUT_SEARCH_HH

#include <cstdint>
#include <vector>

#include "core/imbalance.hh"
#include "layout/developed_random.hh"

namespace pddl {

/** Knobs of one derandomization run. */
struct LayoutSearchOptions
{
    int chains = 4;        ///< independent seeded chains
    int64_t moves = 20000; ///< candidate transpositions per chain
    uint64_t seed = 1;     ///< master seed (chain c uses mix(c, seed))
    int threads = 0;       ///< chain threads; < 1 = defaultThreads()
};

/** Outcome of one chain (its map lives in LayoutSearchResult). */
struct LayoutSearchChain
{
    uint64_t chain_seed = 0;    ///< seed of the chain's raw map
    int64_t initial_cost = 0;   ///< evaluator cost of the raw map
    int64_t final_cost = 0;     ///< cost after `moves` candidates
    int64_t accepted = 0;       ///< candidates kept
    double initial_worst1 = 0;  ///< raw map single-fault worst ratio
    double final_worst1 = 0;    ///< final map single-fault worst ratio
};

/** Result of a derandomization run. */
struct LayoutSearchResult
{
    std::vector<LayoutSearchChain> chains;
    int best_chain = 0;        ///< by (final_worst1, cost, index)
    DevelopedRows best;        ///< that chain's final map
    double best_raw_worst1 = 0;   ///< best initial_worst1 (baseline)
    int64_t best_raw_cost = 0;    ///< cost of that baseline map
};

/**
 * Derandomize a (n, k, spares, rows) developed-random map. Output
 * depends only on the map shape and `opt` (never on opt.threads).
 */
LayoutSearchResult searchDevelopedRows(int n, int k, int spares,
                                       int rows,
                                       const LayoutSearchOptions &opt);

} // namespace pddl

#endif // PDDL_CORE_LAYOUT_SEARCH_HH
