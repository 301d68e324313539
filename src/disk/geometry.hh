/**
 * @file
 * Zoned disk geometry and LBA/CHS address translation.
 *
 * Models a multi-zone (zone-bit-recorded) drive: cylinders are grouped
 * into zones with a fixed sectors-per-track within each zone. The
 * reference instance reproduces the HP 2247 parameters from the
 * paper's Table 2 (1.03 GB, 1981 cylinders, 13 heads, 8 zones); the
 * per-zone sector counts are synthesized to match total capacity
 * because the paper does not publish them.
 */

#ifndef PDDL_DISK_GEOMETRY_HH
#define PDDL_DISK_GEOMETRY_HH

#include <cstdint>
#include <vector>

namespace pddl {

/** Cylinder/head/sector coordinates. */
struct Chs
{
    int cylinder;
    int head;
    int sector;

    bool
    operator==(const Chs &o) const
    {
        return cylinder == o.cylinder && head == o.head &&
               sector == o.sector;
    }
};

/** Zoned disk geometry with LBA <-> CHS translation. */
class DiskGeometry
{
  public:
    /** One recording zone: contiguous cylinders, constant density. */
    struct Zone
    {
        int first_cylinder;     ///< first cylinder of the zone
        int cylinders;          ///< number of cylinders in the zone
        int sectors_per_track;  ///< sectors on each track of the zone
    };

    /**
     * @param heads tracks per cylinder
     * @param zones contiguous, ascending, covering all cylinders
     * @param sector_bytes bytes per sector (512 for the HP 2247)
     */
    DiskGeometry(int heads, std::vector<Zone> zones, int sector_bytes);

    int heads() const { return heads_; }
    int cylinders() const { return cylinders_; }
    int sectorBytes() const { return sector_bytes_; }
    const std::vector<Zone> &zones() const { return zones_; }

    /** Total addressable sectors. */
    int64_t totalSectors() const { return total_sectors_; }

    /** Total capacity in bytes. */
    int64_t
    capacityBytes() const
    {
        return total_sectors_ * sector_bytes_;
    }

    /** Zone index containing a cylinder. */
    int zoneOf(int cylinder) const;

    /** Sectors per track at a cylinder. */
    int
    sectorsPerTrack(int cylinder) const
    {
        return zones_[zoneOf(cylinder)].sectors_per_track;
    }

    /**
     * CHS coordinates of a logical block address. LBAs increase along
     * a track, then across heads of a cylinder, then across cylinders
     * (the conventional serpentine-free ordering).
     */
    Chs
    lbaToChs(int64_t lba) const
    {
        int sectors_per_track;
        return lbaToChs(lba, sectors_per_track);
    }

    /**
     * lbaToChs() that also reports the sectors per track of the zone
     * the address falls in, so a caller needs no second zoneOf() scan.
     */
    Chs lbaToChs(int64_t lba, int &sectors_per_track) const;

    /** Logical block address of CHS coordinates. */
    int64_t chsToLba(const Chs &chs) const;

  private:
    int heads_;
    std::vector<Zone> zones_;
    int sector_bytes_;
    int cylinders_;
    int64_t total_sectors_;
    /** First LBA of each zone, plus a final total-sectors sentinel. */
    std::vector<int64_t> zone_first_lba_;
};

} // namespace pddl

#endif // PDDL_DISK_GEOMETRY_HH
