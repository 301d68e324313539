#include "disk/device_model.hh"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hh"
#include "util/modmath.hh"
#include "util/spec_text.hh"

namespace pddl {

DeviceModel::~DeviceModel() = default;

const std::vector<double> &
DeviceModel::latencyBoundsMs() const
{
    return obs::defaultLatencyBoundsMs();
}

// ---------------------------------------------------------------------------
// HddDeviceModel

HddDeviceModel::HddDeviceModel(std::string kind, std::string spec,
                               DiskGeometry geometry, SeekModel seek,
                               double rpm, double cost_units)
    : kind_(std::move(kind)), spec_(std::move(spec)),
      geometry_(std::move(geometry)), seek_(seek), rpm_(rpm),
      cost_units_(cost_units)
{
    assert(rpm_ > 0.0 && cost_units_ > 0.0);
}

DiskPosition
HddDeviceModel::locate(int64_t lba) const
{
    DiskPosition position;
    const Chs chs = geometry_.lbaToChs(lba, position.sectors_per_track);
    position.cylinder = chs.cylinder;
    position.head = chs.head;
    position.sector = chs.sector;
    return position;
}

SeekClass
HddDeviceModel::classify(const MechState &state,
                         const DiskPosition &start,
                         bool same_access) const
{
    if (!same_access)
        return SeekClass::NonLocal;
    if (start.cylinder != state.cylinder)
        return SeekClass::CylinderSwitch;
    if (start.head != state.head)
        return SeekClass::TrackSwitch;
    return SeekClass::NoSwitch;
}

double
HddDeviceModel::serviceTime(double now, const DiskPosition &start,
                            int sectors, bool write,
                            MechState &state) const
{
    (void)write; // mechanical service is direction-agnostic
    const DiskGeometry &geo = geometry_;
    const double rev = revolutionMs();

    // Arm positioning.
    double t = 0.0;
    if (start.cylinder != state.cylinder) {
        t += seek_.seekTime(std::abs(start.cylinder - state.cylinder));
    } else if (start.head != state.head) {
        t += seek_.headSwitchMs();
    }

    // Rotational latency: the platter spins continuously, so the
    // angular position when the arm settles is determined by absolute
    // simulated time.
    int spt = start.sectors_per_track;
    double settle_time = now + t;
    double angle_now = fmodExact(settle_time, rev) / rev;       // [0,1)
    double angle_target = double(start.sector) / spt;
    double wait = angle_target - angle_now;
    if (wait < 0)
        wait += 1.0;
    t += wait * rev;

    // Media transfer, walking across track and cylinder boundaries.
    // Track skew is assumed to hide rotational resynchronization, so
    // boundary crossings cost only the switch time. Zones are
    // cylinder ranges, so only a cylinder crossing can change spt.
    int remaining = sectors;
    int cylinder = start.cylinder;
    int head = start.head;
    int sector = start.sector;
    while (remaining > 0) {
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
                t += seek_.seekTime(1);
                spt = geo.sectorsPerTrack(cylinder);
            } else {
                t += seek_.headSwitchMs();
            }
        }
    }

    state.cylinder = cylinder;
    state.head = head;
    return t;
}

// ---------------------------------------------------------------------------
// SsdDeviceModel

SsdDeviceModel::SsdDeviceModel(double read_us, double write_us,
                               double sector_us, int64_t sectors,
                               double cost_units)
    : read_us_(read_us), write_us_(write_us), sector_us_(sector_us),
      sectors_(sectors), cost_units_(cost_units)
{
    assert(read_us_ > 0.0 && write_us_ > 0.0 && sector_us_ >= 0.0);
    assert(sectors_ >= 1 && cost_units_ > 0.0);
}

double
SsdDeviceModel::serviceTime(double now, const DiskPosition &start,
                            int sectors, bool write,
                            MechState &state) const
{
    (void)now;
    (void)start;
    (void)state;
    const double floor_us = write ? write_us_ : read_us_;
    return (floor_us + sector_us_ * sectors) / 1000.0;
}

std::string
SsdDeviceModel::describe() const
{
    using spec_text::numStr;
    return std::string("ssd:read_us=") + numStr(read_us_) +
           ",write_us=" + numStr(write_us_) +
           ",sector_us=" + numStr(sector_us_) + ",sectors=" +
           std::to_string(sectors_) + ",cost=" + numStr(cost_units_);
}

const std::vector<double> &
SsdDeviceModel::latencyBoundsMs() const
{
    // Fine microsecond-scale low end grafted onto the default
    // mechanical tail, so a mixed-tier volume's histogram resolves
    // both an 0.1 ms flash hit and a 50 ms rotating-disk miss.
    static const std::vector<double> bounds = [] {
        std::vector<double> b;
        for (double v = 0.02; v < 0.24; v *= 1.5)
            b.push_back(v);
        const std::vector<double> &coarse =
            obs::defaultLatencyBoundsMs();
        b.insert(b.end(), coarse.begin(), coarse.end());
        return b;
    }();
    return bounds;
}

// ---------------------------------------------------------------------------
// Registry

namespace device {

DiskGeometry
hp2247Geometry()
{
    // 1981 cylinders in 8 zones; sector counts synthesized so total
    // capacity lands at ~1.03 GB (the paper publishes the capacity
    // and cylinder/head/zone counts but not per-zone densities).
    std::vector<DiskGeometry::Zone> zones;
    const int spt[8] = {89, 86, 83, 80, 77, 74, 71, 68};
    int cyl = 0;
    for (int i = 0; i < 8; ++i) {
        int count = (i < 5) ? 248 : 247; // 5*248 + 3*247 = 1981
        zones.push_back(DiskGeometry::Zone{cyl, count, spt[i]});
        cyl += count;
    }
    return DiskGeometry(13, std::move(zones), 512);
}

SeekModel
hp2247SeekModel()
{
    // Calibrated against Table 2 and the service times quoted in
    // section 4: seekTime(1) = 2.90 ms (cylinder switch), random
    // average ~10 ms over 1981 cylinders, full sweep < 18 ms.
    return SeekModel(2.54, 0.36, 400, 0.0052, 0.8);
}

const HddDeviceModel &
hp2247()
{
    static const HddDeviceModel instance("hp2247", "hp2247",
                                         hp2247Geometry(),
                                         hp2247SeekModel(), 5400.0,
                                         1.0);
    return instance;
}

namespace {

/**
 * makeHdd's calibration runs 61 average-seek passes over every
 * cylinder; at this cap they take about 0.15 s (RelWithDebInfo, one
 * core of a 4-vCPU x86-64 VM).
 */
constexpr int kMaxHddCylinders = 1000000;

/**
 * Build the parameterized mechanical drive. The seek curve is
 * a + b*sqrt(d) up to a knee at cylinders/5, joined C1-continuously
 * to a linear piece; b is calibrated by bisection so the random
 * average seek over the whole drive matches avg_seek_ms, under the
 * constraint seekTime(1) = min_seek_ms.
 */
bool
makeHdd(const spec_text::KeyValues &params,
        std::shared_ptr<const DeviceModel> &model, std::string &error)
{
    double rpm = 7200.0;
    int cylinders = 1981;
    int heads = 8;
    int spt = 256;
    double min_seek = 1.2;
    double avg_seek = 8.0;
    double head_switch = 0.5;
    double cost = 1.0;
    if (!params.readReal("rpm", rpm, error) ||
        !params.readInt("cylinders", cylinders, error, 2,
                        kMaxHddCylinders) ||
        !params.readInt("heads", heads, error, 1) ||
        !params.readInt("spt", spt, error, 1) ||
        !params.readReal("min_seek_ms", min_seek, error) ||
        !params.readReal("avg_seek_ms", avg_seek, error) ||
        !params.readReal("head_switch_ms", head_switch, error) ||
        !params.readReal("cost", cost, error)) {
        return false;
    }
    if (rpm <= 0.0 || min_seek <= 0.0 || head_switch < 0.0 ||
        cost <= 0.0) {
        error = "hdd parameters must be positive "
                "(rpm, min_seek_ms, cost; head_switch_ms >= 0)";
        return false;
    }
    if (avg_seek <= min_seek) {
        error = "avg_seek_ms must exceed min_seek_ms";
        return false;
    }
    // The drive's byte count must fit the int64 sector arithmetic.
    const __int128 bytes =
        static_cast<__int128>(cylinders) * heads * spt * 512;
    if (bytes > std::numeric_limits<int64_t>::max()) {
        error = "cylinders x heads x spt x 512 bytes must fit in int64";
        return false;
    }

    const int knee = std::max(1, cylinders / 5);
    auto curveFor = [&](double b) {
        // a + b = min_seek at distance 1; slope continues the sqrt
        // derivative at the knee (C1 join).
        const double a = min_seek - b;
        const double slope = b / (2.0 * std::sqrt(double(knee)));
        return SeekModel(a, b, knee, slope, head_switch);
    };
    // averageSeek grows monotonically with b on [0, min_seek].
    double lo = 0.0, hi = min_seek;
    if (curveFor(hi).averageSeek(cylinders) < avg_seek) {
        error = "avg_seek_ms unreachable for this geometry "
                "(raise min_seek_ms or cylinders)";
        return false;
    }
    for (int iter = 0; iter < 60; ++iter) {
        double mid = 0.5 * (lo + hi);
        if (curveFor(mid).averageSeek(cylinders) < avg_seek)
            lo = mid;
        else
            hi = mid;
    }
    SeekModel seek = curveFor(0.5 * (lo + hi));

    std::vector<DiskGeometry::Zone> zones{{0, cylinders, spt}};
    DiskGeometry geometry(heads, std::move(zones), 512);

    using spec_text::numStr;
    std::string spec =
        "hdd:rpm=" + numStr(rpm) +
        ",cylinders=" + std::to_string(cylinders) +
        ",heads=" + std::to_string(heads) +
        ",spt=" + std::to_string(spt) +
        ",min_seek_ms=" + numStr(min_seek) +
        ",avg_seek_ms=" + numStr(avg_seek) +
        ",head_switch_ms=" + numStr(head_switch) +
        ",cost=" + numStr(cost);
    model = std::make_shared<HddDeviceModel>(
        "hdd", std::move(spec), std::move(geometry), seek, rpm, cost);
    return true;
}

bool
makeSsd(const spec_text::KeyValues &params,
        std::shared_ptr<const DeviceModel> &model, std::string &error)
{
    double read_us = 120.0;
    double write_us = 360.0;
    double sector_us = 0.5;
    double cost = 3.25;
    // 256 MB default: flash trades capacity for latency at equal
    // cost, which is what makes the hybrid sweeps non-trivial.
    int64_t sectors = 524288;
    if (!params.readReal("read_us", read_us, error) ||
        !params.readReal("write_us", write_us, error) ||
        !params.readReal("sector_us", sector_us, error) ||
        !params.readInt("sectors", sectors, error, int64_t{1}) ||
        !params.readReal("cost", cost, error)) {
        return false;
    }
    if (read_us <= 0.0 || write_us <= 0.0 || sector_us < 0.0 ||
        cost <= 0.0) {
        error = "ssd parameters must be positive "
                "(read_us, write_us, cost; sector_us >= 0)";
        return false;
    }
    model = std::make_shared<SsdDeviceModel>(read_us, write_us,
                                             sector_us, sectors, cost);
    return true;
}

/** Non-owning view of the hp2247() singleton. */
std::shared_ptr<const DeviceModel>
hp2247Shared()
{
    return {std::shared_ptr<const DeviceModel>(), &hp2247()};
}

} // namespace

bool
parseDeviceSpec(const std::string &text,
                std::shared_ptr<const DeviceModel> &model,
                std::string &error)
{
    std::string_view family, body;
    spec_text::splitFamily(text, family, body);
    spec_text::KeyValues params;
    if (family == "hp2247") {
        if (!params.parse(body, family, {}, error))
            return false;
        model = hp2247Shared();
        return true;
    }
    if (family == "hdd") {
        return params.parse(body, family,
                            {"rpm", "cylinders", "heads", "spt",
                             "min_seek_ms", "avg_seek_ms",
                             "head_switch_ms", "cost"},
                            error) &&
               makeHdd(params, model, error);
    }
    if (family == "ssd") {
        return params.parse(body, family,
                            {"read_us", "write_us", "sector_us",
                             "sectors", "cost"},
                            error) &&
               makeSsd(params, model, error);
    }
    error = "unknown device family '" + std::string(family) +
            "' (registered: hp2247, hdd, ssd)";
    return false;
}

std::shared_ptr<const DeviceModel>
makeDevice(const std::string &spec)
{
    std::shared_ptr<const DeviceModel> model;
    std::string error;
    if (!parseDeviceSpec(spec, model, error))
        throw std::runtime_error("bad device spec '" + spec +
                                 "': " + error);
    return model;
}

const std::vector<std::string> &
deviceSpecNames()
{
    static const std::vector<std::string> names = {
        "hp2247",
        "hdd:rpm=,cylinders=,heads=,spt=,min_seek_ms=,avg_seek_ms=,"
        "head_switch_ms=,cost=",
        "ssd:read_us=,write_us=,sector_us=,sectors=,cost=",
    };
    return names;
}

const std::vector<double> &
latencyBoundsForDevices(const std::vector<const DeviceModel *> &models)
{
    const std::vector<double> *finest =
        &obs::defaultLatencyBoundsMs();
    for (const DeviceModel *model : models) {
        if (model == nullptr)
            continue;
        const std::vector<double> &bounds = model->latencyBoundsMs();
        if (!bounds.empty() && bounds.front() < finest->front())
            finest = &bounds;
    }
    return *finest;
}

} // namespace device
} // namespace pddl
