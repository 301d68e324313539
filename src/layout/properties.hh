/**
 * @file
 * Programmatic checkers for the paper's layout goals #1-#8.
 *
 * Every checker works against the abstract Layout interface by
 * enumerating one layout pattern, so the same code validates PDDL and
 * all comparison layouts (and is exercised heavily by the test
 * suite's parameterized property tests).
 */

#ifndef PDDL_LAYOUT_PROPERTIES_HH
#define PDDL_LAYOUT_PROPERTIES_HH

#include <cstdint>
#include <vector>

#include "layout/layout.hh"

namespace pddl {

/**
 * Goal #1 (single failure correcting): no stripe maps two units to
 * the same disk. Checks every stripe of one pattern.
 */
bool checkSingleFailureCorrecting(const Layout &layout);

/**
 * Structural soundness: within one pattern no two stripe units share
 * a (disk, row) position and all rows fall inside the pattern.
 */
bool checkAddressCollisionFree(const Layout &layout);

/** Check (parity) units mapped to each disk over one pattern. */
std::vector<int64_t> checkUnitsPerDisk(const Layout &layout);

/** Data + check units mapped to each disk over one pattern. */
std::vector<int64_t> occupiedUnitsPerDisk(const Layout &layout);

/**
 * Goal #7 helper: spare units per disk over one pattern (pattern rows
 * not occupied by data or check units).
 */
std::vector<int64_t> spareUnitsPerDisk(const Layout &layout);

/** True iff all entries of a tally are equal. */
bool isBalanced(const std::vector<int64_t> &tally);

/** Reconstruction workload induced by one failed disk (goal #3). */
struct ReconstructionTally
{
    /** Stripe-unit reads each surviving disk performs per pattern. */
    std::vector<int64_t> reads;
    /** Spare-space writes per disk (sparing layouts only). */
    std::vector<int64_t> writes;

    int64_t minReads() const;
    int64_t maxReads() const;

    /**
     * Goal #3 holds when every surviving disk reads the same amount.
     * @param failed_disk excluded from the min/max comparison
     */
    bool balancedReads(int failed_disk) const;
};

/**
 * Count the reconstruction of every unit of `failed_disk` over one
 * pattern: reads of the surviving stripe units, and, for sparing
 * layouts, the write of each reconstructed unit to its spare home.
 */
ReconstructionTally reconstructionWorkload(const Layout &layout,
                                           int failed_disk);

/**
 * Goal #5 measurement: number of distinct disks a fault-free read of
 * `count` contiguous data units touches, averaged over every aligned
 * offset of one pattern.
 */
double averageReadParallelism(const Layout &layout, int count);

/** Minimum over all offsets of the same measurement. */
int minReadParallelism(const Layout &layout, int count);

} // namespace pddl

#endif // PDDL_LAYOUT_PROPERTIES_HH
