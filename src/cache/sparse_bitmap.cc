#include "cache/sparse_bitmap.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace pddl {
namespace cache {

SparseBitmap::SparseBitmap(int64_t units, int64_t max_members)
    : units_(units)
{
    assert(units >= 1 && max_members >= 1);
    const int64_t spans = ((units - 1) >> kSpanShift) + 1;
    pool_leaves_ = static_cast<uint32_t>(std::min(spans, max_members));
    present_words_ = (spans + 63) / 64;
    leaf_of_.assign(static_cast<size_t>(spans), kNoLeaf);
    words_.reset(new uint64_t[static_cast<size_t>(
        present_words_ + int64_t{pool_leaves_} * kLeafWords)]);
    present_ = words_.get();
    leaves_ = present_ + present_words_;
    std::fill(present_, present_ + present_words_, uint64_t{0});
}

bool
SparseBitmap::contains(int64_t unit) const
{
    assert(unit >= 0 && unit < units_);
    const uint32_t index = leaf_of_[static_cast<size_t>(unit >> kSpanShift)];
    if (index == kNoLeaf)
        return false;
    return (leaf(index)[(unit >> 6) & (kLeafWords - 1)] >> (unit & 63)) & 1;
}

void
SparseBitmap::insert(int64_t unit)
{
    assert(unit >= 0 && unit < units_ && !contains(unit));
    const int64_t span = unit >> kSpanShift;
    uint32_t &index = leaf_of_[static_cast<size_t>(span)];
    if (index == kNoLeaf) {
        if (free_ != kNoLeaf) {
            index = free_;
            free_ = static_cast<uint32_t>(leaf(index)[0]);
        } else {
            assert(fresh_ < pool_leaves_);
            index = fresh_++;
        }
        std::fill(leaf(index), leaf(index) + kLeafWords, uint64_t{0});
        present_[span >> 6] |= uint64_t{1} << (span & 63);
    }
    leaf(index)[(unit >> 6) & (kLeafWords - 1)] |= uint64_t{1}
                                                   << (unit & 63);
}

void
SparseBitmap::erase(int64_t unit)
{
    assert(contains(unit));
    const int64_t span = unit >> kSpanShift;
    uint32_t &index = leaf_of_[static_cast<size_t>(span)];
    uint64_t *words = leaf(index);
    words[(unit >> 6) & (kLeafWords - 1)] &= ~(uint64_t{1} << (unit & 63));
    for (int w = 0; w < kLeafWords; ++w) {
        if (words[w] != 0)
            return;
    }
    // The span emptied: its leaf rejoins the free chain.
    words[0] = free_;
    free_ = index;
    index = kNoLeaf;
    present_[span >> 6] &= ~(uint64_t{1} << (span & 63));
}

int64_t
SparseBitmap::firstIn(int64_t span) const
{
    const uint64_t *words = leaf(leaf_of_[static_cast<size_t>(span)]);
    for (int w = 0;; ++w) {
        assert(w < kLeafWords);
        if (words[w] != 0)
            return (span << kSpanShift) + w * 64 +
                   std::countr_zero(words[w]);
    }
}

int64_t
SparseBitmap::lowerBound(int64_t from) const
{
    assert(from >= 0);
    if (from >= units_)
        return kNone;
    const int64_t span = from >> kSpanShift;
    const uint32_t index = leaf_of_[static_cast<size_t>(span)];
    if (index != kNoLeaf) {
        const uint64_t *words = leaf(index);
        int w = static_cast<int>((from >> 6) & (kLeafWords - 1));
        uint64_t bits = words[w] & (~uint64_t{0} << (from & 63));
        while (bits == 0 && ++w < kLeafWords)
            bits = words[w];
        if (bits != 0)
            return (span << kSpanShift) + w * 64 + std::countr_zero(bits);
    }
    // The next present span after this one.
    const int64_t next = span + 1;
    int64_t word = next >> 6;
    if (word >= present_words_)
        return kNone;
    uint64_t bits = present_[word] & (~uint64_t{0} << (next & 63));
    while (bits == 0) {
        if (++word == present_words_)
            return kNone;
        bits = present_[word];
    }
    return firstIn(word * 64 + std::countr_zero(bits));
}

} // namespace cache
} // namespace pddl
