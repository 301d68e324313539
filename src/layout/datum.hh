/**
 * @file
 * DATUM declustered layout (Alvarez, Burkhard, Cristian, ISCA 1997),
 * reconstructed.
 *
 * DATUM lays stripes over the *complete* block design: every one of
 * the C(n, k) k-subsets of disks hosts exactly one stripe per layout
 * pattern, enumerated in colexicographic order, and all addresses are
 * computed on demand with the binomial number system -- no tables
 * (paper Table 3). Complete-design balance gives optimal parity and
 * reconstruction distribution; the colex enumeration makes
 * consecutive stripes share most of their disks, which is exactly the
 * small disk-working-set behaviour the PDDL paper measures for DATUM
 * (poor at light load, best at heavy load).
 *
 * Check units rotate through the subset positions with the stripe
 * index; with q check units the layout tolerates q failures, which is
 * the multiple-failure capability DATUM is known for.
 */

#ifndef PDDL_LAYOUT_DATUM_HH
#define PDDL_LAYOUT_DATUM_HH

#include "layout/layout.hh"

namespace pddl {

/** DATUM: complete block design addressed in the binomial system. */
class DatumLayout : public Layout
{
  public:
    /**
     * @param disks number of disks n
     * @param width stripe width k
     * @param check_units check units per stripe (failures tolerated)
     */
    DatumLayout(int disks, int width, int check_units = 1);

    int64_t stripesPerPeriod() const override { return stripes_; }

    int64_t
    unitsPerDiskPerPeriod() const override
    {
        return rows_;
    }

    PhysAddr mapUnit(int64_t stripe, int pos) const override;

  private:
    int64_t stripes_; ///< C(n, k)
    int64_t rows_;    ///< C(n-1, k-1)
};

} // namespace pddl

#endif // PDDL_LAYOUT_DATUM_HH
