/**
 * @file
 * Tests for the device-model registry: spec round-trips
 * (parse(describe(m)) rebuilds an identical model), bit-exact
 * equivalence of the hp2247 instance with the legacy construction
 * points, hdd seek-curve calibration, the flat ssd service-time
 * model, histogram-bound selection and spec-string error reporting,
 * plus the position-based mechanics audited bit for bit against the
 * LBA-based reference they replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "disk/device_model.hh"
#include "obs/metrics.hh"
#include "util/rng.hh"

namespace pddl {
namespace {

/** One representative spec per family, defaulted and fully keyed. */
const char *const kSpecs[] = {
    "hp2247",
    "hdd",
    "hdd:rpm=5400,cylinders=2000,heads=10,spt=96,min_seek_ms=2,"
    "avg_seek_ms=9,head_switch_ms=1,cost=0.8",
    "ssd",
    "ssd:read_us=100,write_us=300,sector_us=0.4,sectors=1048576,"
    "cost=5",
};

/** Identical observable behaviour over a deterministic op sample. */
void
expectSameModel(const DeviceModel &a, const DeviceModel &b)
{
    ASSERT_STREQ(a.kind(), b.kind());
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_EQ(a.totalSectors(), b.totalSectors());
    EXPECT_EQ(a.costUnits(), b.costUnits());
    EXPECT_EQ(&a.latencyBoundsMs(), &b.latencyBoundsMs());

    MechState ma, mb;
    double now = 0.0;
    for (int i = 0; i < 200; ++i) {
        const int64_t lba =
            (i * 7919) % a.totalSectors() & ~int64_t{15};
        const bool write = (i % 3) == 0;
        const DiskPosition pa = a.locate(lba);
        const DiskPosition pb = b.locate(lba);
        EXPECT_EQ(pa.cylinder, pb.cylinder);
        EXPECT_EQ(pa.head, pb.head);
        EXPECT_EQ(pa.sector, pb.sector);
        EXPECT_EQ(pa.sectors_per_track, pb.sectors_per_track);
        EXPECT_EQ(a.classify(ma, pa, i % 2 == 0),
                  b.classify(mb, pb, i % 2 == 0));
        const double ta = a.serviceTime(now, pa, 16, write, ma);
        const double tb = b.serviceTime(now, pb, 16, write, mb);
        EXPECT_EQ(ta, tb) << "op " << i;
        EXPECT_EQ(ma.cylinder, mb.cylinder);
        EXPECT_EQ(ma.head, mb.head);
        now += ta;
    }
}

TEST(DeviceSpec, ParseDescribeRoundTripsEveryFamily)
{
    for (const char *text : kSpecs) {
        std::shared_ptr<const DeviceModel> first =
            device::makeDevice(text);
        std::shared_ptr<const DeviceModel> second =
            device::makeDevice(first->describe());
        SCOPED_TRACE(text);
        expectSameModel(*first, *second);
        // describe() is a fixed point: canonical in, canonical out.
        EXPECT_EQ(first->describe(), second->describe());
    }
}

TEST(DeviceSpec, Hp2247MatchesLegacyConstructionPoints)
{
    const HddDeviceModel &model = device::hp2247();
    EXPECT_STREQ(model.kind(), "hp2247");
    EXPECT_EQ(model.describe(), "hp2247");
    EXPECT_EQ(model.costUnits(), 1.0);

    const DiskGeometry geometry = device::hp2247Geometry();
    EXPECT_EQ(model.totalSectors(), geometry.totalSectors());
    EXPECT_EQ(model.geometry().cylinders(), geometry.cylinders());
    EXPECT_EQ(model.geometry().heads(), geometry.heads());

    // The paper's drive: 2.9 ms single-cylinder seek, ~10 ms random
    // average, 4000 rpm -> 15 ms revolution.
    const SeekModel seek = device::hp2247SeekModel();
    EXPECT_EQ(model.seek().seekTime(1), seek.seekTime(1));
    EXPECT_EQ(model.seek().averageSeek(geometry.cylinders()),
              seek.averageSeek(geometry.cylinders()));

    // The registry's "hp2247" is the same singleton object, so every
    // default-device code path shares one model.
    EXPECT_EQ(device::makeDevice("hp2247").get(),
              static_cast<const DeviceModel *>(&model));
}

TEST(DeviceSpec, HddCalibrationHitsRequestedAverageSeek)
{
    for (double target : {6.0, 8.0, 12.0}) {
        std::shared_ptr<const DeviceModel> model = device::makeDevice(
            "hdd:avg_seek_ms=" + std::to_string(target));
        const auto *hdd =
            dynamic_cast<const HddDeviceModel *>(model.get());
        ASSERT_NE(hdd, nullptr);
        EXPECT_NEAR(
            hdd->seek().averageSeek(hdd->geometry().cylinders()),
            target, 1e-6)
            << "target " << target;
    }
    // And the single-cylinder constraint holds.
    std::shared_ptr<const DeviceModel> model =
        device::makeDevice("hdd:min_seek_ms=2,avg_seek_ms=9");
    const auto *hdd =
        dynamic_cast<const HddDeviceModel *>(model.get());
    ASSERT_NE(hdd, nullptr);
    EXPECT_NEAR(hdd->seek().seekTime(1), 2.0, 1e-9);
}

TEST(DeviceSpec, SsdServiceTimeIsFlatAndPositionFree)
{
    std::shared_ptr<const DeviceModel> model = device::makeDevice(
        "ssd:read_us=100,write_us=300,sector_us=0.5");
    MechState state;
    // Position-independent: the same op costs the same at any LBA
    // and any time, and never moves the (vestigial) mech state.
    const double read16 =
        model->serviceTime(0.0, 0, 16, false, state);
    EXPECT_EQ(model->serviceTime(123.0, model->totalSectors() - 16,
                                 16, false, state),
              read16);
    EXPECT_EQ(state.cylinder, 0);
    EXPECT_EQ(state.head, 0);
    // read_us + 16 sectors * sector_us = 100us + 8us = 0.108 ms.
    EXPECT_NEAR(read16, 0.108, 1e-12);
    EXPECT_NEAR(model->serviceTime(0.0, 0, 16, true, state), 0.308,
                1e-12);
    // Every LBA sits at the all-zero position, so SSTF degenerates
    // to arrival order.
    const DiskPosition last = model->locate(model->totalSectors() - 1);
    EXPECT_EQ(last.cylinder, 0);
    EXPECT_EQ(last.head, 0);
    EXPECT_EQ(last.sector, 0);
    EXPECT_EQ(last.sectors_per_track, 0);
    const DiskPosition first = model->locate(0);
    EXPECT_EQ(model->classify(state, first, true), SeekClass::NoSwitch);
    EXPECT_EQ(model->classify(state, first, false),
              SeekClass::NonLocal);
}

TEST(DeviceSpec, ErrorsNameTheProblem)
{
    std::shared_ptr<const DeviceModel> model;
    std::string error;
    EXPECT_FALSE(device::parseDeviceSpec("floppy", model, error));
    EXPECT_NE(error.find("unknown device family"), std::string::npos);
    EXPECT_FALSE(device::parseDeviceSpec("ssd:bogus=1", model, error));
    EXPECT_NE(error.find("bogus"), std::string::npos);
    EXPECT_FALSE(
        device::parseDeviceSpec("hdd:rpm=fast", model, error));
    EXPECT_FALSE(device::parseDeviceSpec("ssd:read_us=-5", model,
                                         error));
    EXPECT_FALSE(device::parseDeviceSpec(
        "hdd:min_seek_ms=9,avg_seek_ms=8", model, error));
    EXPECT_THROW(device::makeDevice("floppy"), std::runtime_error);
    EXPECT_GE(device::deviceSpecNames().size(), 3u);
}

TEST(DeviceSpec, RejectsNonFiniteAndOutOfRangeValuesNamingTheKey)
{
    // Once accepted: NaNs aborted in the model constructor or ran,
    // infinities ran to 0 samples, 0 and negatives silently took the
    // default, and huge integers were clamped or cast out of range.
    const struct
    {
        const char *text;
        const char *key;
    } cases[] = {
        {"hdd:rpm=nan", "rpm"},
        {"hdd:min_seek_ms=nan", "min_seek_ms"},
        {"hdd:avg_seek_ms=nan", "avg_seek_ms"},
        {"hdd:head_switch_ms=nan", "head_switch_ms"},
        {"ssd:read_us=nan", "read_us"},
        {"ssd:write_us=-nan", "write_us"},
        {"ssd:read_us=inf", "read_us"},
        {"ssd:sector_us=inf", "sector_us"},
        {"hdd:rpm=1e999", "rpm"},
        {"hdd:cost=inf", "cost"},
        {"ssd:cost=nan", "cost"},
        {"hdd:heads=-1", "heads"},
        {"hdd:cylinders=0", "cylinders"},
        {"hdd:cylinders=1", "cylinders"},
        {"hdd:spt=0", "spt"},
        {"hdd:cylinders=3000000000", "cylinders"},
        // Calibration walks every cylinder 61 times: capped so a spec
        // fails at once instead of calibrating for minutes.
        {"hdd:cylinders=2147483647",
         "cylinders must be an integer in [2, 1000000]"},
        // The sector count is an int64: sized over all three keys.
        {"hdd:heads=2147483647,spt=2147483647,cylinders=4",
         "cylinders x heads x spt x 512 bytes must fit in int64"},
        {"hdd:heads=2.5", "heads"},
        {"ssd:sectors=99999999999999999999", "sectors"},
        {"ssd:sectors=0", "sectors"},
        {"hdd:rpm=7200,rpm=5400", "duplicate hdd parameter 'rpm'"},
        {"ssd:cost=1,cost=2", "duplicate ssd parameter 'cost'"},
        {"hdd:rpm= 7200", "rpm"},
        {"hp2247:rpm=5400", "unknown hp2247 parameter 'rpm'"},
    };
    for (const auto &c : cases) {
        std::shared_ptr<const DeviceModel> model;
        std::string error;
        EXPECT_FALSE(device::parseDeviceSpec(c.text, model, error))
            << c.text << " parsed as "
            << (model ? model->describe() : std::string("?"));
        EXPECT_NE(error.find(c.key), std::string::npos)
            << c.text << ": " << error;
    }
}

TEST(DeviceSpec, LatencyBoundsPickTheFinestDeviceClass)
{
    const HddDeviceModel &hdd = device::hp2247();
    std::shared_ptr<const DeviceModel> ssd =
        device::makeDevice("ssd");

    // Mechanical drives keep the registry default.
    EXPECT_EQ(&device::latencyBoundsForDevices({&hdd}),
              &obs::defaultLatencyBoundsMs());

    // Any flash member switches the volume to the finer bounds.
    const std::vector<double> &mixed =
        device::latencyBoundsForDevices({&hdd, ssd.get()});
    EXPECT_EQ(&mixed, &ssd->latencyBoundsMs());
    ASSERT_FALSE(mixed.empty());
    EXPECT_LT(mixed.front(), obs::defaultLatencyBoundsMs().front());
    // ...while still covering the mechanical tail.
    EXPECT_GE(mixed.back(), obs::defaultLatencyBoundsMs().back());
}

/**
 * Slow reference: the LBA-based classify() and serviceTime() the
 * models ran before a request carried its decoded DiskPosition, kept
 * verbatim (same arithmetic, same order of operations). The position
 * path must match them bit for bit.
 */
SeekClass
referenceClassify(const DeviceModel &model, const MechState &state,
                  int64_t lba, bool same_access)
{
    const auto *hdd = dynamic_cast<const HddDeviceModel *>(&model);
    if (hdd == nullptr)
        return same_access ? SeekClass::NoSwitch : SeekClass::NonLocal;
    Chs start = hdd->geometry().lbaToChs(lba);
    if (!same_access)
        return SeekClass::NonLocal;
    if (start.cylinder != state.cylinder)
        return SeekClass::CylinderSwitch;
    if (start.head != state.head)
        return SeekClass::TrackSwitch;
    return SeekClass::NoSwitch;
}

double
referenceServiceTime(const DeviceModel &model, double now, int64_t lba,
                     int sectors, bool write, MechState &state)
{
    if (const auto *ssd = dynamic_cast<const SsdDeviceModel *>(&model)) {
        const double floor_us = write ? ssd->writeUs() : ssd->readUs();
        return (floor_us + ssd->sectorUs() * sectors) / 1000.0;
    }
    const auto &hdd = dynamic_cast<const HddDeviceModel &>(model);
    const DiskGeometry &geo = hdd.geometry();
    const SeekModel &seek = hdd.seek();
    const double rev = hdd.revolutionMs();

    Chs start = geo.lbaToChs(lba);

    double t = 0.0;
    if (start.cylinder != state.cylinder) {
        t += seek.seekTime(std::abs(start.cylinder - state.cylinder));
    } else if (start.head != state.head) {
        t += seek.headSwitchMs();
    }

    int spt = geo.sectorsPerTrack(start.cylinder);
    double settle_time = now + t;
    double angle_now = std::fmod(settle_time, rev) / rev;
    double angle_target = double(start.sector) / spt;
    double wait = angle_target - angle_now;
    if (wait < 0)
        wait += 1.0;
    t += wait * rev;

    int remaining = sectors;
    int cylinder = start.cylinder;
    int head = start.head;
    int sector = start.sector;
    while (remaining > 0) {
        spt = geo.sectorsPerTrack(cylinder);
        int chunk = std::min(remaining, spt - sector);
        t += double(chunk) / spt * rev;
        remaining -= chunk;
        sector += chunk;
        if (remaining > 0) {
            sector = 0;
            ++head;
            if (head == geo.heads()) {
                head = 0;
                ++cylinder;
                t += seek.seekTime(1);
            } else {
                t += seek.headSwitchMs();
            }
        }
    }

    state.cylinder = cylinder;
    state.head = head;
    return t;
}

/**
 * One op through the position path, the LBA overload and the
 * reference, all from `state`; asserts identical service time, seek
 * class and resulting MechState, then leaves `state` advanced.
 */
double
expectMatchesReference(const DeviceModel &model, MechState &state,
                       double now, int64_t lba, int sectors, bool write,
                       bool same_access)
{
    MechState reference = state;
    MechState via_lba = state;
    const DiskPosition start = model.locate(lba);
    EXPECT_EQ(model.classify(state, start, same_access),
              referenceClassify(model, reference, lba, same_access))
        << "lba " << lba;
    const double t =
        model.serviceTime(now, start, sectors, write, state);
    EXPECT_EQ(t, referenceServiceTime(model, now, lba, sectors, write,
                                      reference))
        << "lba " << lba << " sectors " << sectors << " now " << now;
    EXPECT_EQ(state.cylinder, reference.cylinder) << "lba " << lba;
    EXPECT_EQ(state.head, reference.head) << "lba " << lba;
    EXPECT_EQ(model.serviceTime(now, lba, sectors, write, via_lba), t)
        << "lba " << lba;
    EXPECT_EQ(via_lba.cylinder, state.cylinder);
    EXPECT_EQ(via_lba.head, state.head);
    return t;
}

/** 20,000 random ops per device family from simulated time `start`. */
void
expectRandomOpsMatchReference(double start)
{
    for (const char *text : {"hp2247", "hdd", "ssd"}) {
        SCOPED_TRACE(text);
        std::shared_ptr<const DeviceModel> model =
            device::makeDevice(text);
        Rng rng(0x5eed);
        MechState state;
        double now = start;
        for (int i = 0; i < 20000; ++i) {
            // Up to ~7 hp2247 tracks, so many ops cross tracks and
            // some cross cylinders.
            const int sectors = 1 + static_cast<int>(rng.below(600));
            const int64_t lba = static_cast<int64_t>(rng.below(
                static_cast<uint64_t>(model->totalSectors() - sectors +
                                      1)));
            const bool write = rng.below(2) == 0;
            const bool same_access = rng.below(2) == 0;
            now += expectMatchesReference(*model, state, now, lba,
                                          sectors, write, same_access);
            // Idle gaps move the platter's phase at the next dispatch.
            now += rng.uniform() * 5.0;
        }
    }
}

TEST(DevicePosition, RandomOpsMatchLbaReference)
{
    expectRandomOpsMatchReference(0.0);
}

TEST(DevicePosition, LateClockOpsMatchLbaReference)
{
    // Runs from time 0 reach only ~3e5 ms; the rotational phase at a
    // late clock reduces a much larger quotient.
    for (double start : {1e7, 1e12}) {
        SCOPED_TRACE(start);
        expectRandomOpsMatchReference(start);
    }
}

TEST(DevicePosition, BoundaryTransfersMatchLbaReference)
{
    const HddDeviceModel &model = device::hp2247();
    const DiskGeometry &geo = model.geometry();
    // The hp2247 zone boundary this test crosses.
    ASSERT_EQ(geo.sectorsPerTrack(247), 89);
    ASSERT_EQ(geo.sectorsPerTrack(248), 86);
    const int64_t total = geo.totalSectors();

    struct Transfer
    {
        const char *what;
        int64_t lba;
        int sectors;
        int end_cylinder;
    };
    const Transfer transfers[] = {
        {"track", geo.chsToLba({100, 3, 80}), 16, 100},
        {"cylinder", geo.chsToLba({100, 12, 80}), 16, 101},
        {"zone 0->1", geo.chsToLba({247, 12, 80}), 16, 248},
        // Into zone 1, then two head switches at its 86 sectors/track.
        {"zone 0->1, then tracks", geo.chsToLba({247, 12, 0}),
         89 + 2 * 86 + 10, 248},
        {"last sector", total - 16, 16, geo.cylinders() - 1},
        {"last cylinder, across tracks", total - 200, 200,
         geo.cylinders() - 1},
    };
    for (const Transfer &transfer : transfers) {
        SCOPED_TRACE(transfer.what);
        ASSERT_LE(transfer.lba + transfer.sectors, total);
        const Chs start = geo.lbaToChs(transfer.lba);
        // From a far cylinder, from the start's cylinder on another
        // head, and from the start's own track; at several phases.
        const MechState origins[] = {
            {0, 0},
            {start.cylinder, (start.head + 1) % geo.heads()},
            {start.cylinder, start.head},
        };
        for (const MechState &origin : origins) {
            for (double now : {0.0, 3.7, 1234.5678}) {
                for (bool same_access : {false, true}) {
                    MechState state = origin;
                    expectMatchesReference(model, state, now,
                                           transfer.lba,
                                           transfer.sectors, false,
                                           same_access);
                    EXPECT_EQ(state.cylinder, transfer.end_cylinder);
                }
            }
        }
    }
}

TEST(DevicePosition, LocateMatchesGeometryAtZoneEdges)
{
    for (const char *text : {"hp2247", "hdd"}) {
        SCOPED_TRACE(text);
        std::shared_ptr<const DeviceModel> model =
            device::makeDevice(text);
        const auto &hdd = dynamic_cast<const HddDeviceModel &>(*model);
        const DiskGeometry &geo = hdd.geometry();
        for (const DiskGeometry::Zone &zone : geo.zones()) {
            const int last_cylinder =
                zone.first_cylinder + zone.cylinders - 1;
            const int64_t edges[] = {
                geo.chsToLba({zone.first_cylinder, 0, 0}),
                geo.chsToLba({last_cylinder, geo.heads() - 1,
                              zone.sectors_per_track - 1}),
            };
            for (int64_t lba : edges) {
                const Chs chs = geo.lbaToChs(lba);
                const DiskPosition position = model->locate(lba);
                EXPECT_EQ(position.cylinder, chs.cylinder) << lba;
                EXPECT_EQ(position.head, chs.head) << lba;
                EXPECT_EQ(position.sector, chs.sector) << lba;
                EXPECT_EQ(position.sectors_per_track,
                          geo.sectorsPerTrack(chs.cylinder))
                    << lba;
                EXPECT_EQ(position.sectors_per_track,
                          zone.sectors_per_track)
                    << lba;
            }
        }
    }
}

} // namespace
} // namespace pddl
