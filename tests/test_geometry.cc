/**
 * @file
 * Tests for zoned disk geometry and the HP 2247 instance (Table 2).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "disk/device_model.hh"
#include "disk/geometry.hh"

namespace pddl {
namespace {

TEST(Hp2247Geometry, MatchesTable2)
{
    DiskGeometry geo = device::hp2247Geometry();
    EXPECT_EQ(geo.cylinders(), 1981);
    EXPECT_EQ(geo.heads(), 13);
    EXPECT_EQ(geo.zones().size(), 8u);
    EXPECT_EQ(geo.sectorBytes(), 512);
    // "Capacity 1.03 GB": within 1% of 1.03e9 bytes.
    EXPECT_NEAR(static_cast<double>(geo.capacityBytes()), 1.03e9,
                0.01e9);
}

TEST(Hp2247Geometry, ZonesDescendInDensity)
{
    DiskGeometry geo = device::hp2247Geometry();
    const auto &zones = geo.zones();
    for (size_t i = 1; i < zones.size(); ++i) {
        EXPECT_LT(zones[i].sectors_per_track,
                  zones[i - 1].sectors_per_track);
    }
}

TEST(Geometry, LbaChsRoundTripExhaustiveSmallDisk)
{
    DiskGeometry geo(2,
                     {{0, 3, 4}, {3, 2, 3}}, // 2 zones
                     512);
    EXPECT_EQ(geo.cylinders(), 5);
    EXPECT_EQ(geo.totalSectors(), 3 * 2 * 4 + 2 * 2 * 3);
    for (int64_t lba = 0; lba < geo.totalSectors(); ++lba) {
        Chs chs = geo.lbaToChs(lba);
        EXPECT_EQ(geo.chsToLba(chs), lba);
        EXPECT_LT(chs.sector, geo.sectorsPerTrack(chs.cylinder));
        EXPECT_LT(chs.head, geo.heads());
    }
}

TEST(Geometry, LbaChsRoundTripSampledHp2247)
{
    DiskGeometry geo = device::hp2247Geometry();
    for (int64_t lba = 0; lba < geo.totalSectors(); lba += 997) {
        Chs chs = geo.lbaToChs(lba);
        EXPECT_EQ(geo.chsToLba(chs), lba) << "lba " << lba;
    }
    // Boundary cases.
    EXPECT_EQ(geo.chsToLba(geo.lbaToChs(0)), 0);
    EXPECT_EQ(geo.chsToLba(geo.lbaToChs(geo.totalSectors() - 1)),
              geo.totalSectors() - 1);
}

TEST(Geometry, ConsecutiveLbasAdvanceAlongTrackThenHeadThenCylinder)
{
    DiskGeometry geo = device::hp2247Geometry();
    Chs prev = geo.lbaToChs(0);
    for (int64_t lba = 1; lba < 5000; ++lba) {
        Chs cur = geo.lbaToChs(lba);
        if (cur.cylinder == prev.cylinder && cur.head == prev.head) {
            EXPECT_EQ(cur.sector, prev.sector + 1);
        } else if (cur.cylinder == prev.cylinder) {
            EXPECT_EQ(cur.head, prev.head + 1);
            EXPECT_EQ(cur.sector, 0);
        } else {
            EXPECT_EQ(cur.cylinder, prev.cylinder + 1);
            EXPECT_EQ(cur.head, 0);
            EXPECT_EQ(cur.sector, 0);
        }
        prev = cur;
    }
}

/**
 * lbaToChs must invert chsToLba with every coordinate in range at the
 * given addresses and their neighbours, plus the zone starts and the
 * multiples of 2^32 sectors.
 */
void
expectExactDecode(const DiskGeometry &geo, std::vector<int64_t> lbas)
{
    int64_t zone_start = 0;
    for (const DiskGeometry::Zone &z : geo.zones()) {
        lbas.push_back(zone_start);
        zone_start += static_cast<int64_t>(z.cylinders) * geo.heads() *
                      z.sectors_per_track;
    }
    for (int64_t wrap = int64_t{1} << 32; wrap < geo.totalSectors();
         wrap += int64_t{1} << 32)
        lbas.push_back(wrap);
    lbas.push_back(geo.totalSectors() - 1);
    for (int64_t center : lbas) {
        for (int64_t lba = center - 1; lba <= center + 1; ++lba) {
            if (lba < 0 || lba >= geo.totalSectors())
                continue;
            int spt = 0;
            const Chs chs = geo.lbaToChs(lba, spt);
            ASSERT_GE(chs.cylinder, 0) << "lba " << lba;
            ASSERT_LT(chs.cylinder, geo.cylinders()) << "lba " << lba;
            EXPECT_EQ(spt, geo.sectorsPerTrack(chs.cylinder));
            EXPECT_GE(chs.head, 0);
            EXPECT_LT(chs.head, geo.heads());
            EXPECT_GE(chs.sector, 0);
            EXPECT_LT(chs.sector, spt);
            EXPECT_EQ(geo.chsToLba(chs), lba) << "lba " << lba;
        }
    }
}

TEST(Geometry, LbaChsExactAcrossTheThirtyTwoBitBoundary)
{
    // Zones of more than 2^32 sectors, and cylinders of more.
    DiskGeometry wide(64,
                      {{0, 1000, 70000},    // 4.48e9 sectors
                       {1000, 2000, 65536}, // 8.4e9
                       {3000, 5, 40000000}}, // 2.56e9 per cylinder
                      512);
    expectExactDecode(wide, {4294967295, 4294967296, 9876543210,
                             int64_t{1} << 33});
    // The largest drive the hdd: spec builds in little time.
    std::shared_ptr<const DeviceModel> hdd = device::makeDevice(
        "hdd:cylinders=20000,heads=1000,spt=100000");
    const auto *mech = dynamic_cast<const HddDeviceModel *>(hdd.get());
    ASSERT_NE(mech, nullptr);
    expectExactDecode(mech->geometry(), {int64_t{1} << 40});
    const DiskPosition position = mech->locate((int64_t{1} << 40) + 7);
    EXPECT_EQ(mech->geometry().chsToLba({position.cylinder, position.head,
                                         position.sector}),
              (int64_t{1} << 40) + 7);
}

TEST(Geometry, ZoneOfFindsCorrectZone)
{
    DiskGeometry geo = device::hp2247Geometry();
    EXPECT_EQ(geo.zoneOf(0), 0);
    EXPECT_EQ(geo.zoneOf(geo.cylinders() - 1), 7);
    int prev_zone = 0;
    for (int cyl = 0; cyl < geo.cylinders(); ++cyl) {
        int zone = geo.zoneOf(cyl);
        EXPECT_GE(zone, prev_zone); // zones ascend with cylinders
        prev_zone = zone;
    }
}

} // namespace
} // namespace pddl
