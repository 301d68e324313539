/**
 * @file
 * PRIME declustered layout (Alvarez, Burkhard, Stockmeyer, Cristian,
 * ISCA 1998), reconstructed.
 *
 * For a prime number of disks n, the layout pattern consists of n-1
 * sections, one per nonzero multiplier c of Z_n. Within section c,
 * client data units are enumerated linearly -- stripe j owns data
 * slots x = j(k-1) .. j(k-1)+k-2 -- and slot v lands on disk
 * (c*v) mod n. Multiplication by c permutes Z_n, so any n consecutive
 * data units touch all n disks within a section (the paper's
 * "deviation of one from optimal" applies only across section
 * boundaries). The parity of stripe j is stored in the section's last
 * row at slot n(k-1) + sigma(j) with sigma(j) = (j(k-1) - 1) mod n:
 * sigma is a bijection, so parity is perfectly distributed, and
 * sigma(j) is never congruent to a data slot of stripe j, so stripes
 * stay single-failure correcting. Varying c across sections makes the
 * reconstruction workload exactly even (verified in the test suite).
 *
 * The companion paper's full text is not available offline; this
 * construction is rebuilt from its published description and the
 * properties the PDDL paper relies on.
 */

#ifndef PDDL_LAYOUT_PRIME_HH
#define PDDL_LAYOUT_PRIME_HH

#include "layout/layout.hh"

namespace pddl {

/** PRIME: multiplier-developed declustering for prime n. */
class PrimeLayout : public Layout
{
  public:
    /**
     * @param disks prime number of disks
     * @param width stripe width k < disks
     */
    PrimeLayout(int disks, int width);

    int64_t
    stripesPerPeriod() const override
    {
        return static_cast<int64_t>(numDisks()) * (numDisks() - 1);
    }

    int64_t
    unitsPerDiskPerPeriod() const override
    {
        return static_cast<int64_t>(stripeWidth()) * (numDisks() - 1);
    }

    PhysAddr mapUnit(int64_t stripe, int pos) const override;
};

} // namespace pddl

#endif // PDDL_LAYOUT_PRIME_HH
