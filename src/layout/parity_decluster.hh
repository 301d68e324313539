/**
 * @file
 * Parity Declustering (Holland & Gibson, ASPLOS 1992).
 *
 * The representative BIBD-based declustered layout of the paper's
 * evaluation. One layout pattern stacks k tiles of the block design;
 * tile t assigns the parity unit of every stripe to the t-th element
 * of its block, so over a full pattern every block position carries
 * parity exactly once and parity is perfectly distributed. The whole
 * mapping is table-driven (the paper's Table 3 charges it
 * n(n-1)/(k-1) table entries), which we mirror by precomputing the
 * per-tile offset table at construction.
 */

#ifndef PDDL_LAYOUT_PARITY_DECLUSTER_HH
#define PDDL_LAYOUT_PARITY_DECLUSTER_HH

#include "layout/bibd.hh"
#include "layout/layout.hh"

namespace pddl {

/** Holland-Gibson Parity Declustering over an explicit BIBD. */
class ParityDeclusterLayout : public Layout
{
  public:
    /**
     * @param design BIBD whose points are the disks and whose blocks
     *        are the stripe placements; must verify as a BIBD.
     */
    explicit ParityDeclusterLayout(Bibd design);

    /** Construct by searching for a cyclic BIBD(disks, width, *). */
    static ParityDeclusterLayout make(int disks, int width);

    int64_t
    stripesPerPeriod() const override
    {
        return static_cast<int64_t>(design_.blocks.size()) *
               stripeWidth();
    }

    int64_t
    unitsPerDiskPerPeriod() const override
    {
        return static_cast<int64_t>(design_.replication()) *
               stripeWidth();
    }

    PhysAddr mapUnit(int64_t stripe, int pos) const override;

    const Bibd &design() const { return design_; }

  protected:
    /** Subclass hook (TDesignLayout): same machinery, own name. */
    ParityDeclusterLayout(std::string name, Bibd design);

  private:
    Bibd design_;
    /**
     * offsets_[j][i]: number of blocks before block j (within one
     * tile) that contain design_.blocks[j][i]. The offset of that
     * unit inside a tile is this count; tiles stack r units deep.
     */
    std::vector<std::vector<int>> offsets_;
};

} // namespace pddl

#endif // PDDL_LAYOUT_PARITY_DECLUSTER_HH
