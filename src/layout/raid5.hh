/**
 * @file
 * Left-symmetric RAID level 5.
 *
 * The non-declustered baseline of the paper: stripe width equals the
 * number of disks, parity rotates left by one disk per stripe, and
 * data units start on the disk after the parity unit. Left-symmetric
 * placement makes any n consecutive data units land on n distinct
 * disks, so RAID-5 satisfies the maximal-parallelism goal #5 exactly.
 */

#ifndef PDDL_LAYOUT_RAID5_HH
#define PDDL_LAYOUT_RAID5_HH

#include "layout/layout.hh"

namespace pddl {

/** Left-symmetric RAID-5: k = n, one parity unit per stripe. */
class Raid5Layout : public Layout
{
  public:
    /** @param disks number of disks; stripe width equals disks. */
    explicit Raid5Layout(int disks);

    int64_t stripesPerPeriod() const override { return numDisks(); }

    int64_t unitsPerDiskPerPeriod() const override { return numDisks(); }

    PhysAddr mapUnit(int64_t stripe, int pos) const override;
};

} // namespace pddl

#endif // PDDL_LAYOUT_RAID5_HH
