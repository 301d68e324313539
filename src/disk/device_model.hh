/**
 * @file
 * Device models: the service-time/geometry contract a simulated
 * drive runs on, plus the spec-string registry that builds them.
 *
 * The paper simulates one drive, the HP 2247, and its parameters
 * used to be baked into free functions (DiskGeometry::hp2247() and
 * friends). Heterogeneous volumes need shards over *different*
 * device classes, so the drive mechanics are now an interface:
 *
 *  - HddDeviceModel: zoned geometry + two-piece seek curve +
 *    rotation. The "hp2247" instance reproduces the legacy free
 *    functions bit-for-bit (same arithmetic, same order of
 *    operations), so every seeded history is unchanged. The "hdd"
 *    spec builds a parameterized single-zone drive whose seek curve
 *    is calibrated to a requested average seek time.
 *  - SsdDeviceModel: flat per-op latency plus a linear per-sector
 *    transfer term -- no arm, no rotation, no position.
 *
 * Models are built from spec strings (`hp2247`,
 * `hdd:rpm=7200,avg_seek_ms=8`, `ssd:read_us=120,write_us=360`),
 * and every model renders back to a canonical spec via describe(),
 * with parse(describe(m)) rebuilding an identical model -- the
 * round-trip the registry tests pin.
 */

#ifndef PDDL_DISK_DEVICE_MODEL_HH
#define PDDL_DISK_DEVICE_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "disk/geometry.hh"
#include "disk/seek_model.hh"

namespace pddl {

/** Seek classification of a dispatched operation (paper section 4). */
enum class SeekClass
{
    NonLocal,       ///< previous op on this disk was another access
    CylinderSwitch, ///< same access, arm moved to another cylinder
    TrackSwitch,    ///< same access, head switch within the cylinder
    NoSwitch        ///< same access, rotational positioning only
};

/** Counts of dispatched operations per seek class. */
struct SeekTally
{
    int64_t non_local = 0;
    int64_t cylinder_switch = 0;
    int64_t track_switch = 0;
    int64_t no_switch = 0;

    void
    add(SeekClass c)
    {
        switch (c) {
          case SeekClass::NonLocal: ++non_local; break;
          case SeekClass::CylinderSwitch: ++cylinder_switch; break;
          case SeekClass::TrackSwitch: ++track_switch; break;
          case SeekClass::NoSwitch: ++no_switch; break;
        }
    }

    SeekTally &
    operator+=(const SeekTally &o)
    {
        non_local += o.non_local;
        cylinder_switch += o.cylinder_switch;
        track_switch += o.track_switch;
        no_switch += o.no_switch;
        return *this;
    }

    int64_t
    total() const
    {
        return non_local + cylinder_switch + track_switch + no_switch;
    }
};

/**
 * Mechanical position of one drive, advanced by serviceTime().
 * Position-free devices (SSD) ignore it.
 */
struct MechState
{
    int cylinder = 0;
    int head = 0;
};

/**
 * Where an LBA sits on the media, decoded once by
 * DeviceModel::locate() and then read by the SSTF pick, classify()
 * and serviceTime(). Position-free devices (SSD) locate every LBA at
 * the all-zero position.
 */
struct DiskPosition
{
    int cylinder = 0;
    int head = 0;
    int sector = 0;
    /** Sectors per track of the zone the LBA falls in. */
    int sectors_per_track = 0;
};

/**
 * The drive-mechanics contract one simulated Disk runs on. A model
 * is immutable and thread-safe: per-drive state lives in the Disk's
 * MechState, which serviceTime() advances.
 */
class DeviceModel
{
  public:
    virtual ~DeviceModel();

    /** Stable lowercase class id ("hp2247", "hdd", "ssd"). */
    virtual const char *kind() const = 0;

    /** Canonical spec string; parseDeviceSpec() rebuilds the model. */
    virtual std::string describe() const = 0;

    /** Total addressable sectors. */
    virtual int64_t totalSectors() const = 0;

    /**
     * Decode an LBA into its media position. The SSTF scheduler
     * compares the cylinders; position-free devices return the same
     * position for every LBA, degenerating SSTF to FCFS arrival
     * order.
     */
    virtual DiskPosition locate(int64_t lba) const = 0;

    /**
     * Classify the next operation, starting at `start`, relative to
     * the drive's mechanical state (the paper's local/non-local
     * accounting). `same_access` is true when the previous operation
     * on this drive belonged to the same logical access.
     */
    virtual SeekClass classify(const MechState &state,
                               const DiskPosition &start,
                               bool same_access) const = 0;

    /**
     * Service time in ms of one request starting at simulated time
     * `now` at position `start`, advancing `state` to the
     * post-transfer position.
     */
    virtual double serviceTime(double now, const DiskPosition &start,
                               int sectors, bool write,
                               MechState &state) const = 0;

    /** serviceTime() of the request starting at `lba`. */
    double
    serviceTime(double now, int64_t lba, int sectors, bool write,
                MechState &state) const
    {
        return serviceTime(now, locate(lba), sectors, write, state);
    }

    /**
     * Relative acquisition cost of one device (HP 2247 = 1.0), the
     * unit the equal-cost hybrid sweeps hold constant.
     */
    virtual double costUnits() const = 0;

    /**
     * Latency histogram bucket bounds suited to this device class.
     * Millisecond-scale mechanical drives use the registry default;
     * microsecond-class devices return a finer low end so their
     * latencies don't collapse into bucket 0. The returned vector
     * must be static (callers keep references).
     */
    virtual const std::vector<double> &latencyBoundsMs() const;
};

/** Mechanical drive: zoned geometry + seek curve + rotation. */
class HddDeviceModel : public DeviceModel
{
  public:
    /**
     * @param kind stable class id this instance reports ("hp2247"
     *        for the reference drive, "hdd" for parameterized ones)
     * @param spec canonical spec string describe() reports (the
     *        registry passes the normalized form it parsed)
     * @param geometry zoned geometry
     * @param seek two-piece seek curve
     * @param rpm spindle speed
     * @param cost_units relative device cost (HP 2247 = 1.0)
     */
    HddDeviceModel(std::string kind, std::string spec,
                   DiskGeometry geometry, SeekModel seek, double rpm,
                   double cost_units);

    const char *kind() const override { return kind_.c_str(); }
    std::string describe() const override { return spec_; }
    int64_t totalSectors() const override
    {
        return geometry_.totalSectors();
    }
    DiskPosition locate(int64_t lba) const override;
    SeekClass classify(const MechState &state, const DiskPosition &start,
                       bool same_access) const override;
    using DeviceModel::serviceTime;
    double serviceTime(double now, const DiskPosition &start,
                       int sectors, bool write,
                       MechState &state) const override;
    double costUnits() const override { return cost_units_; }

    const DiskGeometry &geometry() const { return geometry_; }
    const SeekModel &seek() const { return seek_; }
    double revolutionMs() const { return 60000.0 / rpm_; }

  private:
    std::string kind_;
    std::string spec_;
    DiskGeometry geometry_;
    SeekModel seek_;
    double rpm_;
    double cost_units_;
};

/** Flat-latency device: per-op floor + linear per-sector transfer. */
class SsdDeviceModel : public DeviceModel
{
  public:
    /**
     * @param read_us per-request read latency floor
     * @param write_us per-request write latency floor
     * @param sector_us additional transfer time per sector
     * @param sectors addressable sectors
     * @param cost_units relative device cost (HP 2247 = 1.0)
     */
    SsdDeviceModel(double read_us, double write_us, double sector_us,
                   int64_t sectors, double cost_units);

    const char *kind() const override { return "ssd"; }
    std::string describe() const override;
    int64_t totalSectors() const override { return sectors_; }
    DiskPosition locate(int64_t) const override { return {}; }
    SeekClass classify(const MechState &, const DiskPosition &,
                       bool same_access) const override
    {
        return same_access ? SeekClass::NoSwitch
                           : SeekClass::NonLocal;
    }
    using DeviceModel::serviceTime;
    double serviceTime(double now, const DiskPosition &start,
                       int sectors, bool write,
                       MechState &state) const override;
    double costUnits() const override { return cost_units_; }
    const std::vector<double> &latencyBoundsMs() const override;

    double readUs() const { return read_us_; }
    double writeUs() const { return write_us_; }
    double sectorUs() const { return sector_us_; }

  private:
    double read_us_;
    double write_us_;
    double sector_us_;
    int64_t sectors_;
    double cost_units_;
};

namespace device {

/** The HP 2247 geometry (Table 2), canonical construction point. */
DiskGeometry hp2247Geometry();

/** The HP 2247 seek curve, canonical construction point. */
SeekModel hp2247SeekModel();

/**
 * Process-lifetime HP 2247 device model (the registry default). The
 * concrete return type exposes the mechanical accessors (geometry(),
 * revolutionMs()) that tests of the drive mechanics need.
 */
const HddDeviceModel &hp2247();

/**
 * Parse a device spec into a model. Registered specs:
 *
 *   hp2247
 *   hdd:rpm=<r>,cylinders=<c>,heads=<h>,spt=<s>,
 *       min_seek_ms=<m>,avg_seek_ms=<a>,head_switch_ms=<w>,
 *       cost=<u>                (every key optional; cylinders
 *                                at most 1000000, and the drive's
 *                                bytes must fit in an int64)
 *   ssd:read_us=<r>,write_us=<w>,sector_us=<t>,sectors=<n>,
 *       cost=<u>                (every key optional)
 *
 * @return true on success; on failure `error` explains what was
 *         malformed (suitable for an ArgParser validator message).
 */
bool parseDeviceSpec(const std::string &text,
                     std::shared_ptr<const DeviceModel> &model,
                     std::string &error);

/** Parse-or-throw convenience (std::runtime_error on a bad spec). */
std::shared_ptr<const DeviceModel>
makeDevice(const std::string &spec);

/** Registered spec grammars, one line each (--help listings). */
const std::vector<std::string> &deviceSpecNames();

/**
 * Latency histogram bounds covering every device in `models`: the
 * bounds of the finest (lowest first bucket) device class present,
 * so microsecond-class members keep sub-ms resolution while the
 * shared upper buckets still cover the mechanical tail.
 */
const std::vector<double> &latencyBoundsForDevices(
    const std::vector<const DeviceModel *> &models);

} // namespace device
} // namespace pddl

#endif // PDDL_DISK_DEVICE_MODEL_HH
