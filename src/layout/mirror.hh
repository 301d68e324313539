/**
 * @file
 * RAID-1/0 mirrored layout: striping over mirror pairs (or wider
 * replica groups).
 *
 * The n disks are partitioned into n/c groups of c copies each.
 * Stripe s lives on group s mod (n/c); every position of the stripe
 * is a full replica of its single data unit (width = c, one data
 * unit, c-1 "check" units that are literal copies). Reads are served
 * from one surviving replica chosen by a pluggable scheduler
 * (RequestMapper honors replicaSched()); writes update every
 * surviving copy. With one failed disk the group still holds c-1
 * intact copies, so reads proceed degraded-free -- no reconstruction
 * fan-out, the property the mirrored/hybrid-array literature trades
 * capacity for.
 */

#ifndef PDDL_LAYOUT_MIRROR_HH
#define PDDL_LAYOUT_MIRROR_HH

#include "layout/layout.hh"

namespace pddl {

/** RAID-1/0: c-way mirroring striped across n/c replica groups. */
class MirrorLayout : public Layout
{
  public:
    /**
     * @param disks number of disks n (divisible by `copies`)
     * @param copies replicas of every data unit (>= 2)
     * @param sched read replica-selection policy
     */
    explicit MirrorLayout(int disks, int copies = 2,
                          ReplicaSched sched = ReplicaSched::RoundRobin);

    int64_t stripesPerPeriod() const override { return groups_; }

    int64_t unitsPerDiskPerPeriod() const override { return 1; }

    int mirrorCopies() const override { return stripeWidth(); }

    ReplicaSched replicaSched() const override { return sched_; }

  protected:
    PhysAddr mapUnit(int64_t stripe, int pos) const override;

  private:
    int64_t groups_; ///< n / c replica groups
    ReplicaSched sched_;
};

} // namespace pddl

#endif // PDDL_LAYOUT_MIRROR_HH
