/**
 * @file
 * SparseBitmap: an ordered set of units over a fixed domain, kept as
 * a two-level bitmap -- the cache tier's dirty set.
 *
 * The domain [0, units) is cut into 512-unit spans. A span with at
 * least one member owns a leaf (8 words of member bits) and has its
 * presence bit set; an empty span owns nothing. So insert and erase
 * touch one word (plus the leaf index when a span fills or empties),
 * and lowerBound scans at most one leaf and then the presence bits,
 * never single units.
 *
 * Leaves come from a pool sized at construction for `max_members`
 * members (each live leaf holds at least one), so the set allocates
 * only when it is built. A leaf goes back to the pool when its last
 * member leaves; free leaves chain through their first word. A leaf
 * is first written when it is first handed out, so a large pool
 * costs resident memory only for the leaves a run actually uses.
 */

#ifndef PDDL_CACHE_SPARSE_BITMAP_HH
#define PDDL_CACHE_SPARSE_BITMAP_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace pddl {
namespace cache {

class SparseBitmap
{
  public:
    /** What lowerBound returns when no member qualifies. */
    static constexpr int64_t kNone = -1;

    /**
     * An empty set over [0, units) that never holds more than
     * `max_members` members at once.
     */
    SparseBitmap(int64_t units, int64_t max_members);

    bool contains(int64_t unit) const;

    /** Adds `unit`, which must not be a member. */
    void insert(int64_t unit);

    /** Removes `unit`, which must be a member. */
    void erase(int64_t unit);

    /** The least member >= `from`, or kNone. */
    int64_t lowerBound(int64_t from) const;

  private:
    static constexpr int kSpanShift = 9; ///< 512 units per span
    static constexpr int kLeafWords = 8;
    static constexpr uint32_t kNoLeaf = ~uint32_t{0};

    uint64_t *leaf(uint32_t index) const
    {
        return &leaves_[static_cast<size_t>(index) * kLeafWords];
    }

    /** The least member of the non-empty span `span`. */
    int64_t firstIn(int64_t span) const;

    int64_t units_;
    /** Each span's leaf, or kNoLeaf. */
    std::vector<uint32_t> leaf_of_;
    /**
     * One allocation: the presence bits (one per span), then the leaf
     * pool. Pool leaves stay unwritten until first handed out.
     */
    std::unique_ptr<uint64_t[]> words_;
    uint64_t *present_;
    uint64_t *leaves_;
    int64_t present_words_;
    uint32_t pool_leaves_;
    /** Leaves handed out at least once (the pool's written prefix). */
    uint32_t fresh_ = 0;
    /** Head of the chain of returned leaves. */
    uint32_t free_ = kNoLeaf;
};

} // namespace cache
} // namespace pddl

#endif // PDDL_CACHE_SPARSE_BITMAP_HH
