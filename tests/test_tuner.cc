/**
 * @file
 * Tests for the self-tuning scenario search: byte-identical results
 * across chain thread counts, reproducibility per seed, the
 * never-worse-than-baseline guarantee, chain accounting, and the
 * determinism of the shared evaluation protocol across engine lanes.
 */

#include <gtest/gtest.h>

#include <string>

#include "tune/scenario_runner.hh"
#include "tune/tuner.hh"

namespace pddl {
namespace {

/** A small, knob-rich baseline the chains can explore quickly. */
ScenarioSpec
baseline()
{
    ScenarioSpec spec;
    spec.shards[0].disks = 13;
    spec.offsets = "zipf:0.99";
    spec.mix = {{8, true, 0.6}, {8, false, 0.4}};
    spec.cache_enabled = true;
    spec.cache_kb = 4096;
    spec.samples = 400;
    spec.warmup = 100;
    std::string error;
    EXPECT_TRUE(spec.normalize(error)) << error;
    return spec;
}

tune::TuneOptions
smallSearch()
{
    tune::TuneOptions options;
    options.chains = 3;
    options.moves = 5;
    options.seed = 0xbeef;
    return options;
}

/** Everything a TuneResult asserts equality on, flattened. */
std::string
fingerprint(const tune::TuneResult &result)
{
    std::string text = result.best.describe() + "|" +
                       std::to_string(result.best_objective) + "|" +
                       std::to_string(result.baseline_objective) +
                       "|" + std::to_string(result.evaluations);
    for (const tune::TuneChain &chain : result.chains) {
        text += "|" + std::to_string(chain.chain) + ":" +
                std::to_string(chain.best_objective) + ":" +
                chain.best.describe() + ":" +
                std::to_string(chain.evaluated) + ":" +
                std::to_string(chain.memo_hits) + ":" +
                std::to_string(chain.accepted) + ":" +
                std::to_string(chain.surrogate_rejects) + ":" +
                std::to_string(chain.invalid_moves);
    }
    return text;
}

TEST(Tuner, ByteIdenticalAcrossThreadCounts)
{
    const ScenarioSpec base = baseline();
    tune::TuneOptions serial = smallSearch();
    serial.threads = 1;
    tune::TuneOptions pooled = smallSearch();
    pooled.threads = 4;

    const tune::TuneResult a = tune::tune(base, serial);
    const tune::TuneResult b = tune::tune(base, pooled);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Tuner, ReproduciblePerSeed)
{
    const ScenarioSpec base = baseline();
    const tune::TuneOptions options = smallSearch();
    const tune::TuneResult a = tune::tune(base, options);
    const tune::TuneResult b = tune::tune(base, options);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Tuner, NeverWorseThanBaseline)
{
    const ScenarioSpec base = baseline();
    const tune::TuneResult result = tune::tune(base, smallSearch());
    EXPECT_LE(result.best_objective, result.baseline_objective);

    // The winner is itself a valid, canonical spec.
    ScenarioSpec winner = result.best;
    std::string error;
    EXPECT_TRUE(winner.normalize(error)) << error;
    EXPECT_EQ(winner.describe(), result.best.describe());
}

TEST(Tuner, ChainAccountingIsConsistent)
{
    const ScenarioSpec base = baseline();
    const tune::TuneOptions options = smallSearch();
    const tune::TuneResult result = tune::tune(base, options);

    ASSERT_EQ(result.chains.size(),
              static_cast<size_t>(options.chains));
    int evaluations = 0;
    for (int c = 0; c < options.chains; ++c) {
        const tune::TuneChain &chain = result.chains[c];
        EXPECT_EQ(chain.chain, c);
        // Every move resolves to exactly one of these outcomes.
        EXPECT_LE(chain.memo_hits + chain.surrogate_rejects +
                      chain.invalid_moves,
                  options.moves);
        EXPECT_LE(chain.accepted, options.moves);
        EXPECT_GE(chain.evaluated, 0);
        EXPECT_GE(chain.best_objective, result.best_objective);
        evaluations += chain.evaluated;
    }
    // The merged count is the sum over chains (plus the baseline
    // scoring, which tune() accounts once outside the chains).
    EXPECT_GE(result.evaluations, evaluations);
}

TEST(Tuner, EvaluateScenarioIsRepeatable)
{
    const ScenarioSpec base = baseline();
    const std::vector<uint64_t> seeds = {0x5eed1u, 0x5eed2u};
    const double first = tune::evaluateScenario(
        base, seeds, tune::Objective::P99, 300, 50);
    EXPECT_EQ(first, tune::evaluateScenario(base, seeds,
                                            tune::Objective::P99, 300,
                                            50));
    EXPECT_GT(first, 0.0);
}

} // namespace
} // namespace pddl
