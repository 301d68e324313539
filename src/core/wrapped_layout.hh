/**
 * @file
 * Wrapping: the PDDL + DATUM combination of paper section 5.
 *
 * "To create a data layout for 30 disks with stripe width seven, we
 * first create a DATUM layout with stripe width 29. Then for each of
 * the 30 rows of the DATUM layout, we use the PDDL data layout with
 * four stripes each of width seven plus a spare."
 *
 * The outer DATUM layout with width n-1 is the complete leave-one-out
 * design: its colex enumeration excludes disk n-1, then n-2, ... so
 * super-block b of the pattern runs an inner PDDL pattern over every
 * disk except n-1-b. Each disk sits out exactly one super-block per
 * pattern, so the inner layout's balance properties (parity, spare,
 * reconstruction) survive wrapping, extending PDDL to disk counts
 * with no satisfactory base permutation of their own.
 */

#ifndef PDDL_CORE_WRAPPED_LAYOUT_HH
#define PDDL_CORE_WRAPPED_LAYOUT_HH

#include "core/pddl_layout.hh"
#include "layout/layout.hh"

namespace pddl {

/** DATUM-wrapped PDDL: inner PDDL over n-1 of n disks per block. */
class WrappedLayout : public Layout
{
  public:
    /**
     * @param outer_disks total disks n; the inner layout must cover
     *        exactly n - 1 disks
     * @param inner the PDDL layout run inside every super-block
     */
    WrappedLayout(int outer_disks, PddlLayout inner);

    /** Build for n disks, width k: inner PDDL over n-1 disks. */
    static WrappedLayout make(int outer_disks, int width);

    int64_t
    stripesPerPeriod() const override
    {
        return static_cast<int64_t>(numDisks()) *
               inner_.stripesPerPeriod();
    }

    int64_t
    unitsPerDiskPerPeriod() const override
    {
        // Each disk participates in n-1 of the n super-blocks.
        return static_cast<int64_t>(numDisks() - 1) *
               inner_.unitsPerDiskPerPeriod();
    }

    PhysAddr mapUnit(int64_t stripe, int pos) const override;

    bool hasSparing() const override { return true; }

    PhysAddr relocatedAddress(int failed_disk, int64_t unit)
        const override;

    const PddlLayout &inner() const { return inner_; }

  private:
    /** Disk sitting out super-block `block` (leave-one-out colex). */
    int
    excludedDisk(int64_t block) const
    {
        return numDisks() - 1 -
               static_cast<int>(block % numDisks());
    }

    /** Inner disk index -> physical disk for a super-block. */
    int
    toPhysical(int inner_disk, int excluded) const
    {
        return inner_disk < excluded ? inner_disk : inner_disk + 1;
    }

    /** Physical disk -> inner disk index (disk != excluded). */
    int
    toInner(int physical_disk, int excluded) const
    {
        assert(physical_disk != excluded);
        return physical_disk < excluded ? physical_disk
                                        : physical_disk - 1;
    }

    /**
     * Row of `disk` for super-block `block`: blocks are compacted
     * per disk (the block a disk sits out is skipped), keeping media
     * use dense.
     */
    int64_t
    rowBase(int disk, int64_t block) const
    {
        int64_t period = block / numDisks();
        int64_t in_period = block % numDisks();
        int sits_out = numDisks() - 1 - disk;
        int64_t compact =
            in_period < sits_out ? in_period : in_period - 1;
        return (period * (numDisks() - 1) + compact) *
               inner_.unitsPerDiskPerPeriod();
    }

    PddlLayout inner_;
};

} // namespace pddl

#endif // PDDL_CORE_WRAPPED_LAYOUT_HH
