#include "core/scenario_spec.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "core/layout_spec.hh"
#include "disk/device_model.hh"
#include "traffic/arrival.hh"
#include "traffic/offset_dist.hh"
#include "util/spec_text.hh"

namespace pddl {
namespace {

/**
 * Typed member reader: leaves `out` untouched and returns false with
 * a field-anchored message when the member exists but has the wrong
 * shape; an absent member keeps the default. An integer field takes
 * a number only when it is whole and fits the field. A seed travels
 * as its signed-64 bit pattern (see Json(uint64_t)), so an unsigned
 * field reads the int64 range and keeps the bits.
 */
template <typename T>
bool
get(const Json &obj, const char *key, const std::string &anchor,
    T &out, std::string &error)
{
    const Json *v = obj.find(key);
    if (v == nullptr)
        return true;
    std::string expected;
    if constexpr (std::is_same_v<T, std::string>) {
        if (v->isString()) {
            out = v->asString();
            return true;
        }
        expected = "a string";
    } else if constexpr (std::is_same_v<T, bool>) {
        if (v->isBool()) {
            out = v->asBool();
            return true;
        }
        expected = "true or false";
    } else if constexpr (std::is_floating_point_v<T>) {
        if (v->isNumber()) {
            out = v->asDouble();
            return true;
        }
        expected = "a number";
    } else {
        using Wire = std::make_signed_t<T>;
        Wire wire = 0;
        if (v->isInteger() ? spec_text::exactInt(v->asInt(), wire)
                           : v->isNumber() &&
                                 spec_text::exactInt(v->asDouble(), wire)) {
            out = static_cast<T>(wire);
            return true;
        }
        expected = "an integer in [" +
                   std::to_string(std::numeric_limits<Wire>::min()) +
                   ", " +
                   std::to_string(std::numeric_limits<Wire>::max()) + "]";
    }
    error = anchor + key + ": expected " + expected;
    return false;
}

/** Reject members outside `allowed` (typo defense with an anchor). */
bool
checkKeys(const Json &obj, const std::string &anchor,
          std::initializer_list<const char *> allowed,
          std::string &error)
{
    for (const auto &member : obj.members()) {
        if (std::find(allowed.begin(), allowed.end(), member.first) ==
            allowed.end()) {
            error = anchor + "unknown field '" + member.first + "'";
            return false;
        }
    }
    return true;
}

bool
parsePlacement(const std::string &text, std::string &canonical,
               std::string &error)
{
    if (text == "static" || text == "rotate") {
        canonical = text;
        return true;
    }
    if (text == "shuffle") {
        // The ShuffledPlacement default seed, spelled out so the
        // canonical form is explicit.
        canonical = "shuffle:11400714819323198485";
        return true;
    }
    if (text.rfind("shuffle:", 0) == 0) {
        uint64_t seed = 0;
        if (!spec_text::parseInt(std::string_view(text).substr(8),
                                 seed)) {
            error = "expected shuffle:<seed> with a decimal seed in "
                    "[0, 18446744073709551615]";
            return false;
        }
        canonical = "shuffle:" + std::to_string(seed);
        return true;
    }
    error = "expected static, rotate or shuffle:<seed>";
    return false;
}

} // namespace

Json
ScenarioSpec::toJson() const
{
    Json shard_list = Json::array();
    for (const ScenarioShard &shard : shards) {
        Json s = Json::object();
        s.set("layout", shard.layout)
            .set("device", shard.device)
            .set("disks", shard.disks)
            .set("tier", shard.tier)
            .set("failed_disk", shard.failed_disk);
        if (shard.rebuilt)
            s.set("rebuilt", true);
        shard_list.push(std::move(s));
    }
    Json mix_list = Json::array();
    for (const ScenarioMix &entry : mix) {
        Json m = Json::object();
        m.set("kb", entry.kb)
            .set("op", entry.write ? "write" : "read")
            .set("weight", entry.weight);
        mix_list.push(std::move(m));
    }
    Json fault_list = Json::array();
    for (const ScenarioFault &fault : faults) {
        Json f = Json::object();
        f.set("when_ms", fault.when_ms)
            .set("shard", fault.shard)
            .set("disk", fault.disk);
        fault_list.push(std::move(f));
    }
    Json cache = Json::object();
    cache.set("enabled", cache_enabled)
        .set("kb", cache_kb)
        .set("ways", cache_ways)
        .set("high", cache_high)
        .set("low", cache_low)
        .set("hit_ms", cache_hit_ms)
        .set("run_units", cache_run_units)
        .set("width", cache_width);

    Json doc = Json::object();
    doc.set("shards", std::move(shard_list))
        .set("allocation", allocation)
        .set("placement", placement)
        .set("chunk_units", chunk_units)
        .set("dispatch_ms", dispatch_ms)
        .set("unit_sectors", unit_sectors)
        .set("sstf_window", sstf_window)
        .set("client", client)
        .set("arrivals_per_s", arrivals_per_s)
        .set("clients", clients)
        .set("think_ms", think_ms)
        .set("offsets", offsets)
        .set("arrival", arrival)
        .set("mix", std::move(mix_list))
        .set("samples", samples)
        .set("warmup", warmup);
    if (ci_tolerance != 0.0)
        doc.set("ci_tolerance", ci_tolerance);
    if (min_samples != 0)
        doc.set("min_samples", min_samples);
    doc.set("cache", std::move(cache))
        .set("faults", std::move(fault_list))
        .set("rebuild_parallel", rebuild_parallel);
    if (rebuild_stripes != 0)
        doc.set("rebuild_stripes", rebuild_stripes);
    if (mission_ms != 0.0)
        doc.set("mission_ms", mission_ms);
    if (fault_seed != 0)
        doc.set("fault_seed", fault_seed);
    if (disk_mttf_ms != 0.0)
        doc.set("disk_mttf_ms", disk_mttf_ms);
    if (latent_mtbe_ms != 0.0)
        doc.set("latent_mtbe_ms", latent_mtbe_ms);
    if (scrub_interval_ms != 0.0)
        doc.set("scrub_interval_ms", scrub_interval_ms);
    return doc;
}

std::string
ScenarioSpec::describe() const
{
    return toJson().dump(0);
}

bool
ScenarioSpec::fromJson(const Json &doc, ScenarioSpec &spec,
                       std::string &error)
{
    if (!doc.isObject()) {
        error = "scenario: expected a JSON object";
        return false;
    }
    if (!checkKeys(doc, "",
                   {"shards", "allocation", "placement", "chunk_units",
                    "dispatch_ms", "unit_sectors", "sstf_window",
                    "client", "arrivals_per_s", "clients", "think_ms",
                    "offsets", "arrival", "mix", "samples", "warmup",
                    "ci_tolerance", "min_samples", "cache", "faults",
                    "rebuild_parallel", "rebuild_stripes", "mission_ms",
                    "fault_seed", "disk_mttf_ms", "latent_mtbe_ms",
                    "scrub_interval_ms"},
                   error))
        return false;

    ScenarioSpec out;

    if (const Json *list = doc.find("shards")) {
        if (!list->isArray()) {
            error = "shards: expected an array";
            return false;
        }
        out.shards.clear();
        for (size_t i = 0; i < list->size(); ++i) {
            const Json &item = list->at(i);
            const std::string anchor =
                "shards[" + std::to_string(i) + "].";
            if (!item.isObject()) {
                error = "shards[" + std::to_string(i) +
                        "]: expected an object";
                return false;
            }
            if (!checkKeys(item, anchor,
                           {"layout", "device", "disks", "tier",
                            "failed_disk", "rebuilt"},
                           error))
                return false;
            ScenarioShard shard;
            if (!get(item, "layout", anchor, shard.layout, error) ||
                !get(item, "device", anchor, shard.device, error) ||
                !get(item, "disks", anchor, shard.disks, error) ||
                !get(item, "tier", anchor, shard.tier, error) ||
                !get(item, "failed_disk", anchor, shard.failed_disk, error) ||
                !get(item, "rebuilt", anchor, shard.rebuilt, error))
                return false;
            out.shards.push_back(std::move(shard));
        }
    }

    if (!get(doc, "allocation", "", out.allocation, error) ||
        !get(doc, "placement", "", out.placement, error) ||
        !get(doc, "chunk_units", "", out.chunk_units, error) ||
        !get(doc, "dispatch_ms", "", out.dispatch_ms, error) ||
        !get(doc, "unit_sectors", "", out.unit_sectors, error) ||
        !get(doc, "sstf_window", "", out.sstf_window, error) ||
        !get(doc, "client", "", out.client, error) ||
        !get(doc, "arrivals_per_s", "", out.arrivals_per_s, error) ||
        !get(doc, "clients", "", out.clients, error) ||
        !get(doc, "think_ms", "", out.think_ms, error) ||
        !get(doc, "offsets", "", out.offsets, error) ||
        !get(doc, "arrival", "", out.arrival, error) ||
        !get(doc, "samples", "", out.samples, error) ||
        !get(doc, "warmup", "", out.warmup, error) ||
        !get(doc, "ci_tolerance", "", out.ci_tolerance, error) ||
        !get(doc, "min_samples", "", out.min_samples, error) ||
        !get(doc, "rebuild_parallel", "", out.rebuild_parallel, error) ||
        !get(doc, "rebuild_stripes", "", out.rebuild_stripes, error) ||
        !get(doc, "mission_ms", "", out.mission_ms, error) ||
        !get(doc, "fault_seed", "", out.fault_seed, error) ||
        !get(doc, "disk_mttf_ms", "", out.disk_mttf_ms, error) ||
        !get(doc, "latent_mtbe_ms", "", out.latent_mtbe_ms, error) ||
        !get(doc, "scrub_interval_ms", "", out.scrub_interval_ms, error))
        return false;

    if (const Json *list = doc.find("mix")) {
        if (!list->isArray()) {
            error = "mix: expected an array";
            return false;
        }
        out.mix.clear();
        for (size_t i = 0; i < list->size(); ++i) {
            const Json &item = list->at(i);
            const std::string anchor =
                "mix[" + std::to_string(i) + "].";
            if (!item.isObject()) {
                error = "mix[" + std::to_string(i) +
                        "]: expected an object";
                return false;
            }
            if (!checkKeys(item, anchor, {"kb", "op", "weight"},
                           error))
                return false;
            ScenarioMix entry;
            std::string op = "read";
            if (!get(item, "kb", anchor, entry.kb, error) ||
                !get(item, "op", anchor, op, error) ||
                !get(item, "weight", anchor, entry.weight, error))
                return false;
            if (op != "read" && op != "write") {
                error = anchor + "op: expected \"read\" or \"write\"";
                return false;
            }
            entry.write = op == "write";
            out.mix.push_back(entry);
        }
    }

    if (const Json *cache = doc.find("cache")) {
        if (!cache->isObject()) {
            error = "cache: expected an object";
            return false;
        }
        if (!checkKeys(*cache, "cache.",
                       {"enabled", "kb", "ways", "high", "low",
                        "hit_ms", "run_units", "width"},
                       error))
            return false;
        if (!get(*cache, "enabled", "cache.", out.cache_enabled, error) ||
            !get(*cache, "kb", "cache.", out.cache_kb, error) ||
            !get(*cache, "ways", "cache.", out.cache_ways, error) ||
            !get(*cache, "high", "cache.", out.cache_high, error) ||
            !get(*cache, "low", "cache.", out.cache_low, error) ||
            !get(*cache, "hit_ms", "cache.", out.cache_hit_ms, error) ||
            !get(*cache, "run_units", "cache.", out.cache_run_units, error) ||
            !get(*cache, "width", "cache.", out.cache_width, error))
            return false;
    }

    if (const Json *list = doc.find("faults")) {
        if (!list->isArray()) {
            error = "faults: expected an array";
            return false;
        }
        out.faults.clear();
        for (size_t i = 0; i < list->size(); ++i) {
            const Json &item = list->at(i);
            const std::string anchor =
                "faults[" + std::to_string(i) + "].";
            if (!item.isObject()) {
                error = "faults[" + std::to_string(i) +
                        "]: expected an object";
                return false;
            }
            if (!checkKeys(item, anchor, {"when_ms", "shard", "disk"},
                           error))
                return false;
            ScenarioFault fault;
            if (!get(item, "when_ms", anchor, fault.when_ms, error) ||
                !get(item, "shard", anchor, fault.shard, error) ||
                !get(item, "disk", anchor, fault.disk, error))
                return false;
            out.faults.push_back(fault);
        }
    }

    if (!out.normalize(error))
        return false;
    spec = std::move(out);
    return true;
}

bool
ScenarioSpec::parse(const std::string &text, ScenarioSpec &spec,
                    std::string &error)
{
    Json doc;
    if (!Json::parse(text, doc, error))
        return false;
    return fromJson(doc, spec, error);
}

ScenarioSpec
ScenarioSpec::parseOrThrow(const std::string &text)
{
    ScenarioSpec spec;
    std::string error;
    if (!parse(text, spec, error))
        throw std::runtime_error("scenario: " + error);
    return spec;
}

bool
ScenarioSpec::normalize(std::string &error)
{
    if (shards.empty()) {
        error = "shards: at least one shard is required";
        return false;
    }
    for (size_t i = 0; i < shards.size(); ++i) {
        ScenarioShard &shard = shards[i];
        const std::string anchor = "shards[" + std::to_string(i) + "]";
        if (shard.disks < 2) {
            error = anchor + ".disks: need at least 2 drives";
            return false;
        }
        layouts::ParsedLayoutSpec layout;
        std::string why;
        if (!layouts::parseLayoutSpec(shard.layout, layout, why)) {
            error = anchor + ".layout: " + why;
            return false;
        }
        // A spec that parses but cannot build at this disk count
        // (mirror copies not dividing n, width > n) must fail here,
        // with the anchor, not mid-simulation.
        bool sparing = false;
        try {
            sparing = layouts::buildLayout(layout, shard.disks)
                          ->hasSparing();
        } catch (const std::exception &e) {
            error = anchor + ".layout: " + e.what();
            return false;
        }
        shard.layout = layout.canonical();
        std::shared_ptr<const DeviceModel> model;
        if (!device::parseDeviceSpec(shard.device, model, why)) {
            error = anchor + ".device: " + why;
            return false;
        }
        shard.device = model->describe();
        if (shard.failed_disk < -1 ||
            shard.failed_disk >= shard.disks) {
            error = anchor + ".failed_disk: must be -1 (healthy) or "
                             "a disk index below disks";
            return false;
        }
        if (shard.rebuilt && (shard.failed_disk < 0 || !sparing)) {
            error = anchor + ".rebuilt: needs failed_disk >= 0 and a "
                             "layout with spare space";
            return false;
        }
    }
    if (allocation != "striped" && allocation != "tiered") {
        error = "allocation: expected \"striped\" or \"tiered\"";
        return false;
    }
    {
        std::string canonical, why;
        if (!parsePlacement(placement, canonical, why)) {
            error = "placement: " + why;
            return false;
        }
        placement = canonical;
    }
    if (chunk_units < 1) {
        error = "chunk_units: must be >= 1";
        return false;
    }
    if (!(dispatch_ms > 0.0) &&
        (dispatch_ms != 0.0 || shards.size() != 1)) {
        error = "dispatch_ms: must be > 0, or 0 (no fabric) with "
                "exactly one shard";
        return false;
    }
    if (unit_sectors < 2 || unit_sectors % 2 != 0) {
        error = "unit_sectors: must be even and >= 2 (whole KB "
                "stripe units)";
        return false;
    }
    if (sstf_window < 1) {
        error = "sstf_window: must be >= 1";
        return false;
    }
    if (client != "open" && client != "closed") {
        error = "client: expected \"open\" or \"closed\"";
        return false;
    }
    if (!(arrivals_per_s > 0.0)) {
        error = "arrivals_per_s: must be > 0";
        return false;
    }
    if (clients < 1) {
        error = "clients: must be >= 1";
        return false;
    }
    if (think_ms < 0.0) {
        error = "think_ms: must be >= 0";
        return false;
    }
    {
        traffic::OffsetSpec spec;
        std::string why;
        if (!traffic::parseOffsetSpec(offsets, spec, why)) {
            error = "offsets: " + why;
            return false;
        }
        offsets = traffic::offsetSpecName(spec);
    }
    {
        traffic::ArrivalSpec spec;
        std::string why;
        if (!traffic::parseArrivalSpec(arrival, spec, why)) {
            error = "arrival: " + why;
            return false;
        }
        arrival = traffic::arrivalSpecString(spec);
    }
    for (size_t i = 0; i < mix.size(); ++i) {
        const std::string anchor = "mix[" + std::to_string(i) + "]";
        if (mix[i].kb < 1) {
            error = anchor + ".kb: must be >= 1";
            return false;
        }
        if (!(mix[i].weight > 0.0)) {
            error = anchor + ".weight: must be > 0";
            return false;
        }
    }
    if (samples < 1) {
        error = "samples: must be >= 1";
        return false;
    }
    if (warmup < 0) {
        error = "warmup: must be >= 0";
        return false;
    }
    if (!(ci_tolerance >= 0.0) ||
        (ci_tolerance > 0.0 && client != "closed")) {
        error = "ci_tolerance: must be >= 0, and 0 unless client is "
                "\"closed\"";
        return false;
    }
    if (min_samples < (ci_tolerance > 0.0 ? 2 : 0) ||
        min_samples > samples) {
        error = "min_samples: must be at most samples, and at least 2 "
                "with a ci_tolerance";
        return false;
    }
    if (cache_enabled) {
        if (cache_kb < 1) {
            error = "cache.kb: must be >= 1";
            return false;
        }
        if (cache_ways < 1) {
            error = "cache.ways: must be >= 1";
            return false;
        }
        const int64_t capacity_units =
            cache_kb * 2 / static_cast<int64_t>(unit_sectors);
        if (capacity_units < cache_ways) {
            error = "cache.kb: capacity is below one set "
                    "(kb too small for ways at this unit_sectors)";
            return false;
        }
        if (!(cache_low >= 0.0 && cache_low <= cache_high &&
              cache_high <= 1.0)) {
            error = "cache.high/cache.low: need 0 <= low <= high <= 1";
            return false;
        }
        if (cache_hit_ms < 0.0) {
            error = "cache.hit_ms: must be >= 0";
            return false;
        }
        if (cache_run_units < 1) {
            error = "cache.run_units: must be >= 1";
            return false;
        }
        if (cache_width < 1) {
            error = "cache.width: must be >= 1";
            return false;
        }
    }
    for (size_t i = 0; i < faults.size(); ++i) {
        const std::string anchor = "faults[" + std::to_string(i) + "]";
        const ScenarioFault &fault = faults[i];
        if (fault.when_ms < 0.0) {
            error = anchor + ".when_ms: must be >= 0";
            return false;
        }
        if (fault.shard < 0 ||
            fault.shard >= static_cast<int>(shards.size())) {
            error = anchor + ".shard: no such shard";
            return false;
        }
        if (fault.disk < 0 ||
            fault.disk >= shards[fault.shard].disks) {
            error = anchor + ".disk: no such disk in shard " +
                    std::to_string(fault.shard);
            return false;
        }
    }
    // Canonical fault order (the schedulers sort anyway; sorting
    // here makes describe() independent of authoring order).
    std::sort(faults.begin(), faults.end(),
              [](const ScenarioFault &a, const ScenarioFault &b) {
                  if (a.when_ms != b.when_ms)
                      return a.when_ms < b.when_ms;
                  if (a.shard != b.shard)
                      return a.shard < b.shard;
                  return a.disk < b.disk;
              });
    if (rebuild_parallel < 1) {
        error = "rebuild_parallel: must be >= 1";
        return false;
    }
    // The fault knobs are all non-negative; without a mission, the
    // draw fields (and a scrubber that would never stop) must be 0.
    const struct
    {
        const char *name;
        double value;
        bool needs_mission;
    } knobs[] = {
        {"rebuild_stripes", static_cast<double>(rebuild_stripes), false},
        {"mission_ms", mission_ms, false},
        {"fault_seed", fault_seed != 0 ? 1.0 : 0.0, true},
        {"disk_mttf_ms", disk_mttf_ms, true},
        {"latent_mtbe_ms", latent_mtbe_ms, true},
        {"scrub_interval_ms", scrub_interval_ms, true}};
    for (const auto &knob : knobs) {
        if (!(knob.value >= 0.0)) {
            error = std::string(knob.name) + ": must be >= 0";
            return false;
        }
        if (knob.needs_mission && knob.value != 0.0 && mission_ms == 0.0) {
            error = std::string(knob.name) + ": needs mission_ms > 0";
            return false;
        }
    }
    // One draw scheme: a mission is one bare healthy array under a
    // closed population, the shape of a Monte-Carlo reliability trial.
    if (mission_ms > 0.0 &&
        (shards.size() != 1 || dispatch_ms != 0.0 || client != "closed" ||
         shards.front().failed_disk >= 0)) {
        error = "mission_ms: a mission needs one healthy shard "
                "(failed_disk -1), dispatch_ms 0 and client \"closed\"";
        return false;
    }
    return true;
}

bool
loadScenario(const std::string &path_or_json, ScenarioSpec &spec,
             std::string &error)
{
    const size_t first =
        path_or_json.find_first_not_of(" \t\r\n");
    if (first != std::string::npos && path_or_json[first] == '{')
        return ScenarioSpec::parse(path_or_json, spec, error);

    std::ifstream in(path_or_json);
    if (!in) {
        error = path_or_json + ": cannot read file";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!ScenarioSpec::parse(text.str(), spec, error)) {
        error = path_or_json + ": " + error;
        return false;
    }
    return true;
}

} // namespace pddl
