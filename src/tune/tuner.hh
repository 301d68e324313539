/**
 * @file
 * Self-tuning scenario search: seeded simulated annealing over a
 * ScenarioSpec's knob space.
 *
 * The genome is the spec itself (core/scenario_spec.hh); one move
 * mutates one knob family -- layout family + seed, stripe-unit size,
 * chunk size, shard placement policy, SSTF window, cache watermarks
 * and destage geometry, rebuild aggressiveness -- re-normalizes, and
 * evaluates the candidate with a short deterministic simulation
 * (scenario_runner.hh) averaged over a few training seeds. Accepts
 * follow the classic annealing rule on the exact objective: always
 * downhill, uphill with probability exp(-relative_delta / T) on a
 * geometric temperature schedule.
 *
 * Search structure follows the PR-9 derandomization pattern: chains
 * are fully independent -- chain c's Rng is seeded
 * hashMix64(options.seed, c), its evaluations memoized per chain --
 * and fanned out with harness::parallelFor, then merged in chain
 * index order. The result is therefore byte-identical at every
 * --threads value.
 *
 * Layout moves are pre-screened with the PR-9 ImbalanceEvaluator as
 * a cheap surrogate: a candidate layout whose single-fault rebuild
 * imbalance is clearly worse than the incumbent's is rejected
 * without paying for a simulation. The budget the spec fixes in
 * bytes (mix KB, cache KB) keeps every candidate comparable; the
 * only knob the tuner may not touch is the scenario's offered
 * workload and hardware, which is the question, not the answer.
 */

#ifndef PDDL_TUNE_TUNER_HH
#define PDDL_TUNE_TUNER_HH

#include <cstdint>
#include <vector>

#include "core/scenario_spec.hh"
#include "tune/scenario_runner.hh"

namespace pddl {
namespace tune {

/** Search-protocol knobs (named-parameter style). */
struct TuneOptions
{
    /** Independent annealing chains (merged in index order). */
    int chains = 4;
    /** Mutation attempts per chain. */
    int moves = 16;
    /** Master seed; chain c draws from hashMix64(seed, c). */
    uint64_t seed = 0x7de5u;
    /** Threads running the chains; < 1 = harness::defaultThreads(). */
    int threads = 0;
    /** Ignored: kept only for callers that still set it. */
    int sim_threads = 1;

    Objective objective = Objective::P99;
    /**
     * Training seeds: each candidate is simulated once per seed and
     * scored by the mean objective (any infinity stays infinite).
     */
    std::vector<uint64_t> eval_seeds = {0x5eed1u};
};

/** What one chain found (all fields deterministic per options). */
struct TuneChain
{
    int chain = 0;
    double best_objective = 0.0;
    ScenarioSpec best;
    int evaluated = 0;        ///< full simulations paid for
    int memo_hits = 0;        ///< candidates scored from the memo
    int accepted = 0;         ///< moves the annealer took
    int surrogate_rejects = 0; ///< layout moves killed pre-sim
    int invalid_moves = 0;    ///< mutations normalize() refused
};

/** The merged search outcome. */
struct TuneResult
{
    /** Best spec found (the baseline when nothing beat it). */
    ScenarioSpec best;
    double best_objective = 0.0;
    double baseline_objective = 0.0;
    std::vector<TuneChain> chains;
    int evaluations = 0; ///< full simulations across all chains
};

/**
 * Anneal from `baseline`. The baseline must be normalized; it is
 * always a member of the candidate set, so the result can never be
 * worse than the hand-picked starting point on the training
 * protocol. Byte-identical for every `threads` value.
 */
TuneResult tune(const ScenarioSpec &baseline,
                const TuneOptions &options);

/**
 * The tuner's evaluation protocol as a reusable scoring call: apply
 * the eval_samples/eval_warmup override (eval_samples <= 0 and
 * eval_warmup < 0 keep the spec's own budget, which is what the tuner
 * itself passes), simulate once per seed, return the mean objective.
 * This is also what bench_autotune's held-out scoring and the replay
 * check call, so "the recorded objective" always means the same
 * procedure. `sim_threads` is ignored, kept only for callers that
 * still pass it.
 */
double evaluateScenario(const ScenarioSpec &spec,
                        const std::vector<uint64_t> &seeds,
                        Objective objective, int64_t eval_samples,
                        int64_t eval_warmup, int sim_threads = 1);

} // namespace tune
} // namespace pddl

#endif // PDDL_TUNE_TUNER_HH
