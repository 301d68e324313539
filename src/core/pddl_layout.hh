/**
 * @file
 * The PDDL data layout: permutation development with distributed
 * sparing.
 *
 * One virtual-RAID-4 row holds g stripes of width k plus a spare
 * column; the base permutation group is developed row by row
 * (permutation q covers rows q*n .. q*n + n - 1 of the pattern,
 * developed by the row offset). Row r of the virtual array maps to
 * row r of the physical array with the columns permuted, so every
 * disk holds exactly one unit per row and the pattern is p*n rows.
 *
 * Sparing: the unit a failed disk held in row r is reconstructed into
 * the spare unit of the same row, which development places on a
 * different surviving disk for every row -- spare writes are always
 * evenly distributed.
 *
 * Multi-failure tolerance: with c check units per stripe the last c
 * columns of every stripe group are check columns; development keeps
 * them perfectly balanced, so PDDL accommodates "arbitrary fixed
 * combinations of check and data blocks" (paper section 1).
 */

#ifndef PDDL_CORE_PDDL_LAYOUT_HH
#define PDDL_CORE_PDDL_LAYOUT_HH

#include "core/base_permutation.hh"
#include "layout/layout.hh"

namespace pddl {

/** Virtual RAID-4 coordinates used by the appendix's linear API. */
struct Raid4Address
{
    int disk;       ///< virtual column (data columns only)
    int64_t offset; ///< virtual row
};

/**
 * Linear stripe-unit address -> virtual RAID-4 (disk, offset), the
 * appendix's virtualDisk() front end. Data columns skip the spare
 * (column 0) and each stripe's check column.
 */
Raid4Address virtualDiskAddress(int64_t stripe_unit, int g, int k);

/** PDDL: permutation-developed declustering with a distributed spare. */
class PddlLayout : public Layout
{
  public:
    /**
     * @param group satisfactory base permutation group (asserted
     *        unless require_satisfactory is false)
     * @param check_units check units per stripe (last columns of each
     *        stripe group); 1 reproduces the paper's configuration
     * @param require_satisfactory pass false to deliberately build a
     *        layout with unbalanced reconstruction (section 2's
     *        identity-permutation example, ablation studies)
     */
    explicit PddlLayout(PermutationGroup group, int check_units = 1,
                        bool require_satisfactory = true);

    /**
     * Build a layout for `disks` = g*width + 1 disks: Bose when the
     * disk count is prime, GF(2^m)/XOR when it is a power of two and
     * width divides disks-1, hill-climbing search otherwise.
     *
     * @throws std::runtime_error when no satisfactory group is found.
     */
    static PddlLayout make(int disks, int width);

    /** Stripes per pattern: g per row, p*n rows. */
    int64_t
    stripesPerPeriod() const override
    {
        return static_cast<int64_t>(group_.size()) * numDisks() *
               group_.g;
    }

    /** Rows per pattern: one unit per disk per row. */
    int64_t
    unitsPerDiskPerPeriod() const override
    {
        return static_cast<int64_t>(group_.size()) * numDisks();
    }

    PhysAddr mapUnit(int64_t stripe, int pos) const override;

    bool hasSparing() const override { return true; }

    PhysAddr relocatedAddress(int failed_disk, int64_t unit)
        const override;

    /** Stripes per virtual row (g). */
    int stripesPerRow() const { return group_.g; }

    /** Distributed spare columns (1 in the paper's configuration). */
    int spareColumns() const { return group_.spares; }

    /**
     * Address of one spare unit: where row `unit`'s spare_index-th
     * spare lives. Spare 0 hosts the first failure's relocations;
     * with the multi-spare variant further failures take the next
     * columns.
     */
    PhysAddr spareAddress(int spare_index, int64_t unit) const;

    const PermutationGroup &group() const { return group_; }

    /**
     * The paper's virtual2physical mapping: physical disk of virtual
     * column `disk` at stripe-unit row `offset`.
     */
    int
    virtual2physical(int disk, int64_t offset) const
    {
        const int rows = group_.size() * numDisks();
        int r = static_cast<int>(offset % rows);
        return group_.develop(group_.perms[r / numDisks()][disk],
                              r % numDisks());
    }

  private:
    PermutationGroup group_;
};

} // namespace pddl

#endif // PDDL_CORE_PDDL_LAYOUT_HH
