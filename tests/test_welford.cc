/**
 * @file
 * Tests for streaming statistics and the 2%/95% stopping rule.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/welford.hh"
#include "util/rng.hh"

namespace pddl {
namespace {

TEST(Welford, MeanAndVarianceMatchClosedForm)
{
    Welford w;
    const double values[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    for (double v : values)
        w.add(v);
    EXPECT_EQ(w.count(), 8);
    EXPECT_DOUBLE_EQ(w.mean(), 5.0);
    // Population variance of this classic set is 4; sample variance
    // is 32/7.
    EXPECT_NEAR(w.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_EQ(w.min(), 2.0);
    EXPECT_EQ(w.max(), 9.0);
}

TEST(Welford, SingleSample)
{
    Welford w;
    w.add(3.5);
    EXPECT_DOUBLE_EQ(w.mean(), 3.5);
    EXPECT_DOUBLE_EQ(w.variance(), 0.0);
    EXPECT_DOUBLE_EQ(w.confidenceHalfWidth(), 0.0);
}

TEST(Welford, MergeMatchesSequentialAccumulation)
{
    // Splitting a stream across accumulators and merging must agree
    // with a single accumulator over the whole stream -- this is what
    // the parallel harness relies on.
    Rng rng(7);
    Welford whole, left, right;
    for (int i = 0; i < 1000; ++i) {
        double x = rng.uniform() * 100.0 - 25.0;
        whole.add(x);
        (i % 3 == 0 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Welford, MergeWithEmptySides)
{
    Welford filled;
    filled.add(1.0);
    filled.add(3.0);

    Welford empty;
    Welford target = filled;
    target.merge(empty); // no-op
    EXPECT_EQ(target.count(), 2);
    EXPECT_DOUBLE_EQ(target.mean(), 2.0);

    Welford fresh;
    fresh.merge(filled); // adopt
    EXPECT_EQ(fresh.count(), 2);
    EXPECT_DOUBLE_EQ(fresh.mean(), 2.0);
    EXPECT_DOUBLE_EQ(fresh.min(), 1.0);
    EXPECT_DOUBLE_EQ(fresh.max(), 3.0);
}

TEST(Welford, NumericallyStableForLargeOffsets)
{
    Welford w;
    for (int i = 0; i < 1000; ++i)
        w.add(1e9 + (i % 2)); // variance ~0.25
    EXPECT_NEAR(w.variance(), 0.2502, 0.001);
}

TEST(Welford, ConvergenceRequiresMinSamples)
{
    Welford w;
    for (int i = 0; i < 50; ++i)
        w.add(10.0);
    EXPECT_FALSE(w.converged(0.02, 1.96, 200));
    for (int i = 0; i < 200; ++i)
        w.add(10.0);
    EXPECT_TRUE(w.converged(0.02, 1.96, 200));
}

TEST(Welford, StoppingRuleTracksHalfWidth)
{
    // Gaussian-ish samples: half-width shrinks as 1/sqrt(count).
    Rng rng(1);
    Welford w;
    int64_t needed = 0;
    while (!w.converged(0.02, 1.96, 200) && needed < 2000000) {
        // Sum of uniforms approximates a normal with mean 6, sd 1.
        double x = 0.0;
        for (int i = 0; i < 12; ++i)
            x += rng.uniform();
        w.add(x);
        ++needed;
    }
    EXPECT_LT(needed, 2000000);
    EXPECT_LE(w.confidenceHalfWidth(), 0.02 * w.mean() + 1e-12);
    EXPECT_NEAR(w.mean(), 6.0, 0.1);
}

} // namespace
} // namespace pddl
