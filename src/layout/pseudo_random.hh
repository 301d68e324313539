/**
 * @file
 * Pseudo-Random declustering (after Merchant & Yu, IEEE ToC 1996).
 *
 * Merchant and Yu replace layout tables with on-demand pseudo-random
 * permutations: stripe placement is computed by hashing the stripe
 * index. We realize the idea with balanced pseudo-random rounds: each
 * round of n stripes is built from k seeded pseudo-random
 * permutations of the disks (column c of the round is permutation c),
 * with intra-stripe collisions repaired deterministically. Every disk
 * receives exactly k units per round, so offsets stay perfectly
 * balanced while successive rounds are independently scrambled --
 * parity and reconstruction load are balanced in expectation only,
 * matching the published scheme's behaviour.
 */

#ifndef PDDL_LAYOUT_PSEUDO_RANDOM_HH
#define PDDL_LAYOUT_PSEUDO_RANDOM_HH

#include <cstdint>
#include <mutex>
#include <vector>

#include "layout/layout.hh"

namespace pddl {

/** Pseudo-random balanced declustering. */
class PseudoRandomLayout : public Layout
{
  public:
    /**
     * @param disks number of disks n
     * @param width stripe width k
     * @param seed scrambling seed (results are deterministic per seed)
     */
    PseudoRandomLayout(int disks, int width, uint64_t seed = 1);

    /**
     * The declared period is one round (n stripes); rounds repeat in
     * structure but not content (each is freshly scrambled), so
     * balance properties hold per round.
     */
    int64_t stripesPerPeriod() const override { return numDisks(); }

    int64_t unitsPerDiskPerPeriod() const override
    {
        return stripeWidth();
    }

    /** Rounds repeat in structure, never in content: no table. */
    bool mapIsPeriodic() const override { return false; }

    PhysAddr mapUnit(int64_t stripe, int pos) const override;

  private:
    struct Round
    {
        int64_t index = -1;
        /** placement[j][i]: disk of slot i of stripe j. */
        std::vector<std::vector<int>> placement;
        /** offset[j][i]: row within the round for that unit. */
        std::vector<std::vector<int>> offset;
    };

    /**
     * Build (or fetch the cached) round r. Callers must hold
     * `mutex_` for the whole use of the returned reference: the
     * harness shares one layout across worker threads, and a cache
     * refill would otherwise race with a concurrent reader.
     */
    const Round &round(int64_t r) const;

    uint64_t seed_;
    mutable std::mutex mutex_;
    mutable Round cached_;
};

} // namespace pddl

#endif // PDDL_LAYOUT_PSEUDO_RANDOM_HH
