/**
 * @file
 * Developed-random-rows layout (ZFS dRAID style).
 *
 * At hundreds of disks the combinatorial constructions (Bose base
 * permutations, BIBDs) run out of parameter combinations; dRAID's
 * production answer is to give every row of the development its own
 * random permutation of the disks and *score* the result instead of
 * constructing balance. Each row holds `spares` distributed spare
 * slots followed by g = (n - spares) / k stripe groups of width k;
 * the row permutations are drawn deterministically from a seed
 * (randomDevelopedRows), so a layout is reproducible from
 * (disks, width, spares, rows, seed) alone. The derandomization
 * search (core/layout_search) scores such maps directly.
 */

#ifndef PDDL_LAYOUT_DEVELOPED_RANDOM_HH
#define PDDL_LAYOUT_DEVELOPED_RANDOM_HH

#include <cstdint>
#include <vector>

#include "layout/layout.hh"

namespace pddl {

/** A developed-rows map: each row is a permutation of the n disks;
 *  columns 0..spares-1 are spare slots, then g groups of width k. */
struct DevelopedRows
{
    int n = 0;      ///< disks
    int k = 0;      ///< stripe group width (data + check)
    int spares = 0; ///< leading spare slots per row
    /** rows[r][c]: disk in slot c of row r (a permutation of n). */
    std::vector<std::vector<int>> rows;

    int groupsPerRow() const { return (n - spares) / k; }
};

/**
 * Throw std::invalid_argument unless the map is well formed: sane
 * shape, k dividing n - spares, and every row a permutation of n.
 */
void validateDevelopedRows(const DevelopedRows &map);

/**
 * Deterministic seeded developed-random-rows map, dRAID style: row r
 * is an independent Fisher-Yates permutation drawn from
 * hashMix64(seed, r), so a map is reproducible from (n, k, spares,
 * rows, seed) alone.
 */
DevelopedRows randomDevelopedRows(int n, int k, int spares, int rows,
                                  uint64_t seed);

/** Seeded developed-random-rows layout with distributed sparing. */
class DevelopedRandomLayout : public Layout
{
  public:
    /**
     * Seeded construction: `rows` independent random permutations
     * drawn from `seed`.
     *
     * @param disks array size n
     * @param width stripe group width k; k must divide disks - spares
     * @param spares distributed spare slots per row (>= 0)
     * @param rows permutation rows per period (>= 1)
     * @param seed deterministic permutation seed
     */
    DevelopedRandomLayout(int disks, int width, int spares, int rows,
                          uint64_t seed);

    int64_t
    stripesPerPeriod() const override
    {
        return static_cast<int64_t>(rowCount()) *
               map_.groupsPerRow();
    }

    /** Every disk appears once per row: one unit (data, check or
     *  spare) per row per disk. */
    int64_t
    unitsPerDiskPerPeriod() const override
    {
        return rowCount();
    }

    bool hasSparing() const override { return map_.spares > 0; }

    /**
     * A failed disk's row-r unit relocates to a spare slot of the
     * same row: slot failed_disk % spares, spreading consecutive
     * failures across the spare columns. The failed disk held a
     * group slot in that row (spare units hold nothing to relocate),
     * so the hosting disk always differs from the failed one.
     */
    PhysAddr relocatedAddress(int failed_disk,
                              int64_t unit) const override;

    const DevelopedRows &developedMap() const { return map_; }

    int spares() const { return map_.spares; }

    int rowCount() const { return static_cast<int>(map_.rows.size()); }

  protected:
    PhysAddr mapUnit(int64_t stripe, int pos) const override;

  private:
    DevelopedRows map_;
};

} // namespace pddl

#endif // PDDL_LAYOUT_DEVELOPED_RANDOM_HH
