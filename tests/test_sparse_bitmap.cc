/**
 * @file
 * Tests for SparseBitmap, the cache tier's ordered dirty set: seeded
 * sequences of inserts, erases and lower-bound queries agree with a
 * std::set at every step, on domains around the 512-unit span size and
 * on one about the size of the 2-shard zipf volume (2.27M units),
 * with pools small enough that emptied leaves must be handed out
 * again.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>

#include "cache/sparse_bitmap.hh"
#include "util/rng.hh"

namespace pddl {
namespace {

using cache::SparseBitmap;

/** The member std::set's lower_bound finds, in SparseBitmap's terms. */
int64_t
referenceBound(const std::set<int64_t> &ref, int64_t from)
{
    auto it = ref.lower_bound(from);
    return it == ref.end() ? SparseBitmap::kNone : *it;
}

struct Workload
{
    int64_t units;
    /** Bound on the members held at once (the pool's sizing input). */
    int64_t max_members;
    /**
     * Draws fall within this many units of a drifting centre, or
     * anywhere when it covers the domain.
     */
    int64_t spread;
};

/**
 * 100k seeded operations: inserts and erases of drawn units, erases
 * of existing members, and queries at drawn points, 0, units - 1,
 * units, and just past the last member.
 */
void
expectMatchesStdSet(const Workload &w, uint64_t seed)
{
    SparseBitmap bitmap(w.units, w.max_members);
    std::set<int64_t> ref;
    Rng rng(seed);
    int64_t centre = 0;
    auto draw = [&] {
        if (w.spread >= w.units)
            return static_cast<int64_t>(
                rng.below(static_cast<uint64_t>(w.units)));
        if (rng.below(64) == 0)
            centre = static_cast<int64_t>(
                rng.below(static_cast<uint64_t>(w.units)));
        const int64_t unit =
            centre - w.spread +
            static_cast<int64_t>(
                rng.below(static_cast<uint64_t>(2 * w.spread + 1)));
        return std::clamp<int64_t>(unit, 0, w.units - 1);
    };
    for (int op = 0; op < 100000; ++op) {
        const uint64_t kind = rng.below(10);
        if (kind < 5) {
            const int64_t unit = draw();
            ASSERT_EQ(bitmap.contains(unit), ref.count(unit) == 1);
            if (ref.count(unit) == 0 &&
                static_cast<int64_t>(ref.size()) < w.max_members) {
                bitmap.insert(unit);
                ref.insert(unit);
            }
        } else if (kind < 8) {
            if (ref.empty())
                continue;
            // The member at or after a drawn point, else the first.
            auto it = ref.lower_bound(draw());
            if (it == ref.end())
                it = ref.begin();
            const int64_t unit = *it;
            ASSERT_TRUE(bitmap.contains(unit));
            bitmap.erase(unit);
            ref.erase(it);
            ASSERT_FALSE(bitmap.contains(unit));
        } else {
            int64_t from = draw();
            switch (rng.below(5)) {
              case 0: from = 0; break;
              case 1: from = w.units - 1; break;
              case 2: from = w.units; break;
              case 3:
                from = ref.empty() ? 0 : *std::prev(ref.end()) + 1;
                break;
              default: break;
            }
            ASSERT_EQ(bitmap.lowerBound(from), referenceBound(ref, from))
                << "units " << w.units << " op " << op << " from "
                << from;
        }
    }
    // Drain through the bitmap's own order.
    for (int64_t unit = bitmap.lowerBound(0); unit != SparseBitmap::kNone;
         unit = bitmap.lowerBound(unit + 1)) {
        ASSERT_FALSE(ref.empty());
        ASSERT_EQ(unit, *ref.begin());
        bitmap.erase(unit);
        ref.erase(ref.begin());
    }
    EXPECT_TRUE(ref.empty());
}

TEST(SparseBitmap, MatchesStdSetAroundTheSpanSize)
{
    for (int64_t units : {1, 511, 512, 513}) {
        expectMatchesStdSet({units, units, units}, 0x5eed + units);
        // Half the domain at most, and draws that cluster.
        expectMatchesStdSet({units, (units + 1) / 2, 24}, 0xc1u + units);
    }
}

TEST(SparseBitmap, MatchesStdSetOnAZipfVolumeSizedDomain)
{
    const int64_t units = 2270000;
    // A pool of 64 leaves for members scattered one per span: nearly
    // every insert opens a span, and only emptied leaves can serve it.
    expectMatchesStdSet({units, 64, units}, 42);
    // Clustered members, as a skewed write stream leaves them.
    expectMatchesStdSet({units, 4096, 3000}, 977);
}

TEST(SparseBitmap, EmptiedLeafIsHandedOutAgain)
{
    // A pool of one leaf over eight spans: every span after the first
    // reuses the leaf the previous one gave back.
    SparseBitmap bitmap(4096, 1);
    for (int64_t unit : {5, 4095, 600, 0, 1023, 1024}) {
        bitmap.insert(unit);
        EXPECT_EQ(bitmap.lowerBound(0), unit);
        EXPECT_EQ(bitmap.lowerBound(unit), unit);
        EXPECT_EQ(bitmap.lowerBound(unit + 1), SparseBitmap::kNone);
        bitmap.erase(unit);
        EXPECT_EQ(bitmap.lowerBound(0), SparseBitmap::kNone);
    }
}

TEST(SparseBitmap, QueriesAtTheDomainEdges)
{
    SparseBitmap one(1, 1);
    EXPECT_EQ(one.lowerBound(0), SparseBitmap::kNone);
    one.insert(0);
    EXPECT_EQ(one.lowerBound(0), 0);
    EXPECT_EQ(one.lowerBound(1), SparseBitmap::kNone);

    // 513 units: the last unit is alone in the second span.
    SparseBitmap bitmap(513, 513);
    bitmap.insert(512);
    EXPECT_EQ(bitmap.lowerBound(0), 512);
    EXPECT_EQ(bitmap.lowerBound(512), 512);
    EXPECT_EQ(bitmap.lowerBound(513), SparseBitmap::kNone);
    bitmap.insert(0);
    bitmap.insert(511);
    EXPECT_EQ(bitmap.lowerBound(0), 0);
    EXPECT_EQ(bitmap.lowerBound(1), 511);
    EXPECT_EQ(bitmap.lowerBound(512), 512);
    bitmap.erase(512);
    EXPECT_EQ(bitmap.lowerBound(512), SparseBitmap::kNone);
    EXPECT_EQ(bitmap.lowerBound(1), 511);
}

} // namespace
} // namespace pddl
