#include "disk/geometry.hh"

#include <cassert>
#include <cstddef>

namespace pddl {

DiskGeometry::DiskGeometry(int heads, std::vector<Zone> zones,
                           int sector_bytes)
    : heads_(heads), zones_(std::move(zones)), sector_bytes_(sector_bytes)
{
    assert(heads_ >= 1 && sector_bytes_ >= 1 && !zones_.empty());
    cylinders_ = 0;
    total_sectors_ = 0;
    zone_first_lba_.reserve(zones_.size() + 1);
    for (const Zone &z : zones_) {
        assert(z.first_cylinder == cylinders_ &&
               "zones must be contiguous and ascending");
        assert(z.cylinders >= 1 && z.sectors_per_track >= 1);
        zone_first_lba_.push_back(total_sectors_);
        cylinders_ += z.cylinders;
        total_sectors_ += static_cast<int64_t>(z.cylinders) * heads_ *
                          z.sectors_per_track;
    }
    zone_first_lba_.push_back(total_sectors_);
}

int
DiskGeometry::zoneOf(int cylinder) const
{
    assert(cylinder >= 0 && cylinder < cylinders_);
    // Few zones (8 for the HP 2247): linear scan beats binary search.
    for (size_t i = 0; i < zones_.size(); ++i) {
        if (cylinder < zones_[i].first_cylinder + zones_[i].cylinders)
            return static_cast<int>(i);
    }
    assert(false);
    return -1;
}

Chs
DiskGeometry::lbaToChs(int64_t lba, int &sectors_per_track) const
{
    assert(lba >= 0 && lba < total_sectors_);
    // The zone is the number of later zone starts at or below lba:
    // a fixed-length count with no data-dependent branch.
    size_t zi = 0;
    for (size_t i = 1; i < zones_.size(); ++i)
        zi += static_cast<size_t>(lba >= zone_first_lba_[i]);
    const Zone &z = zones_[zi];
    int64_t in_zone = lba - zone_first_lba_[zi];
    int64_t per_cyl = static_cast<int64_t>(heads_) * z.sectors_per_track;
    Chs chs;
    chs.cylinder = z.first_cylinder + static_cast<int>(in_zone / per_cyl);
    int64_t in_cyl = in_zone % per_cyl;
    chs.head = static_cast<int>(in_cyl / z.sectors_per_track);
    chs.sector = static_cast<int>(in_cyl % z.sectors_per_track);
    sectors_per_track = z.sectors_per_track;
    return chs;
}

int64_t
DiskGeometry::chsToLba(const Chs &chs) const
{
    int zi = zoneOf(chs.cylinder);
    const Zone &z = zones_[zi];
    assert(chs.head >= 0 && chs.head < heads_);
    assert(chs.sector >= 0 && chs.sector < z.sectors_per_track);
    int64_t per_cyl = static_cast<int64_t>(heads_) * z.sectors_per_track;
    return zone_first_lba_[zi] +
           static_cast<int64_t>(chs.cylinder - z.first_cylinder) * per_cyl +
           static_cast<int64_t>(chs.head) * z.sectors_per_track +
           chs.sector;
}

} // namespace pddl
