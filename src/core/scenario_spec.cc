#include "core/scenario_spec.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/layout_spec.hh"
#include "core/volume_capacity.hh"
#include "disk/device_model.hh"
#include "layout/layout.hh"
#include "util/spec_text.hh"

namespace pddl {
namespace {

template <typename S>
struct Field;

/** A member list whose items are objects with their own table. */
template <typename S, typename T>
struct List
{
    std::vector<T> S::*items;
    std::span<const Field<T>> fields;
};

/** Members of S written as one nested object; its rules apply only
 *  while `enabled` is true. */
template <typename S>
struct Group
{
    std::span<const Field<S>> fields;
    bool S::*enabled;
};

/**
 * A rule on one field alone. A number (a list: its length) must be
 * >= min (AtLeast, Even also even) or > min (Above). A OneOf string
 * must be one of `names`; a OneOf bool is spelled names[0] (false)
 * or names[1] (true). `text` replaces the derived error text.
 */
struct Rule
{
    enum Kind : uint8_t { None, AtLeast, Even, Above, OneOf };
    Kind kind = None;
    double min = 0.0;
    std::array<const char *, 2> names = {};
    const char *text = nullptr;
};

constexpr Rule kAtLeast0{Rule::AtLeast, 0}, kAtLeast1{Rule::AtLeast, 1},
    kAbove0{Rule::Above, 0};

/** Omitted while zero (false), so older texts stay exact. */
constexpr bool kOmitZero = true;

/** One JSON key of an object: its member, rule and emit rule. */
template <typename S>
struct Field
{
    const char *key;
    std::variant<std::string S::*, bool S::*, int S::*, int64_t S::*,
                 uint64_t S::*, double S::*, List<S, ScenarioShard>,
                 List<S, ScenarioMix>, List<S, ScenarioFault>, Group<S>>
        member;
    Rule rule = {};
    bool omit_zero = false;
};

// The field tables: one line per JSON key, in describe()'s order.
// Rules that read more than one field live in normalize().

constexpr Field<ScenarioShard> kShardFields[] = {
    {"layout", &ScenarioShard::layout},
    {"device", &ScenarioShard::device},
    {"disks", &ScenarioShard::disks,
     {Rule::AtLeast, 2, {}, "need at least 2 drives"}},
    {"tier", &ScenarioShard::tier},
    {"failed_disk", &ScenarioShard::failed_disk},
    {"rebuilt", &ScenarioShard::rebuilt, {}, kOmitZero},
};

constexpr Field<ScenarioMix> kMixFields[] = {
    {"kb", &ScenarioMix::kb, kAtLeast1},
    {"op", &ScenarioMix::write, {Rule::OneOf, 0, {"read", "write"}}},
    {"weight", &ScenarioMix::weight, kAbove0},
};

constexpr Field<ScenarioFault> kFaultFields[] = {
    {"when_ms", &ScenarioFault::when_ms, kAtLeast0},
    {"shard", &ScenarioFault::shard},
    {"disk", &ScenarioFault::disk},
};

using Spec = ScenarioSpec;

constexpr Field<Spec> kCacheFields[] = {
    {"enabled", &Spec::cache_enabled},
    {"kb", &Spec::cache_kb, kAtLeast1},
    {"ways", &Spec::cache_ways, kAtLeast1},
    {"high", &Spec::cache_high},
    {"low", &Spec::cache_low},
    {"hit_ms", &Spec::cache_hit_ms, kAtLeast0},
    {"run_units", &Spec::cache_run_units, kAtLeast1},
    {"width", &Spec::cache_width, kAtLeast1},
};

constexpr Field<Spec> kSpecFields[] = {
    {"shards", List<Spec, ScenarioShard>{&Spec::shards, kShardFields},
     {Rule::AtLeast, 1, {}, "at least one shard is required"}},
    {"allocation", &Spec::allocation,
     {Rule::OneOf, 0, {"striped", "tiered"}}},
    {"placement", &Spec::placement},
    {"chunk_units", &Spec::chunk_units, kAtLeast1},
    {"dispatch_ms", &Spec::dispatch_ms},
    {"unit_sectors", &Spec::unit_sectors,
     {Rule::Even, 2, {}, "must be even and >= 2 (whole KB stripe units)"}},
    {"sstf_window", &Spec::sstf_window, kAtLeast1},
    {"client", &Spec::client, {Rule::OneOf, 0, {"open", "closed"}}},
    {"arrivals_per_s", &Spec::arrivals_per_s, kAbove0},
    {"clients", &Spec::clients, kAtLeast1},
    {"think_ms", &Spec::think_ms, kAtLeast0},
    {"offsets", &Spec::offsets},
    {"arrival", &Spec::arrival},
    {"mix", List<Spec, ScenarioMix>{&Spec::mix, kMixFields}},
    {"samples", &Spec::samples, kAtLeast1},
    {"warmup", &Spec::warmup, kAtLeast0},
    {"ci_tolerance", &Spec::ci_tolerance, kAtLeast0, kOmitZero},
    {"min_samples", &Spec::min_samples, {}, kOmitZero},
    {"cache", Group<Spec>{kCacheFields, &Spec::cache_enabled}},
    {"faults", List<Spec, ScenarioFault>{&Spec::faults, kFaultFields}},
    {"rebuild_parallel", &Spec::rebuild_parallel, kAtLeast1},
    {"rebuild_stripes", &Spec::rebuild_stripes, kAtLeast0, kOmitZero},
    {"mission_ms", &Spec::mission_ms, kAtLeast0, kOmitZero},
    {"fault_seed", &Spec::fault_seed, {}, kOmitZero},
    {"disk_mttf_ms", &Spec::disk_mttf_ms, kAtLeast0, kOmitZero},
    {"latent_mtbe_ms", &Spec::latent_mtbe_ms, kAtLeast0, kOmitZero},
    {"scrub_interval_ms", &Spec::scrub_interval_ms, kAtLeast0,
     kOmitZero},
};

bool
holds(const Rule &rule, double value)
{
    switch (rule.kind) {
    case Rule::AtLeast:
        return value >= rule.min;
    case Rule::Even:
        return value >= rule.min && std::fmod(value, 2.0) == 0.0;
    case Rule::Above:
        return value > rule.min;
    default:
        return true;
    }
}

std::string
ruleText(const Rule &rule)
{
    if (rule.text != nullptr)
        return rule.text;
    if (rule.kind == Rule::OneOf)
        return std::string("expected \"") + rule.names[0] + "\" or \"" +
               rule.names[1] + "\"";
    return (rule.kind == Rule::Above ? "must be > " : "must be >= ") +
           spec_text::numStr(rule.min);
}

/** "key[i]", the anchor of a list item. */
std::string
itemAnchor(std::string_view key, size_t i)
{
    return std::string(key) + "[" + std::to_string(i) + "]";
}

template <typename T>
bool
isZero(const T &value)
{
    return value == T{};
}

/** The object `obj` as JSON, every key in table order. */
template <typename S>
Json
writeFields(const S &obj, std::span<const Field<S>> fields)
{
    Json out = Json::object();
    for (const Field<S> &field : fields) {
        std::visit(
            [&](const auto &member) {
                using M = std::decay_t<decltype(member)>;
                if constexpr (std::is_same_v<M, Group<S>>) {
                    out.set(field.key, writeFields(obj, member.fields));
                } else if constexpr (requires { member.items; }) {
                    Json items = Json::array();
                    for (const auto &item : obj.*member.items)
                        items.push(writeFields(item, member.fields));
                    out.set(field.key, std::move(items));
                } else if (!field.omit_zero || !isZero(obj.*member)) {
                    if constexpr (std::is_same_v<M, bool S::*>) {
                        if (field.rule.kind == Rule::OneOf) {
                            out.set(field.key,
                                    field.rule.names[obj.*member]);
                            return;
                        }
                    }
                    out.set(field.key, obj.*member);
                }
            },
            field.member);
    }
    return out;
}

/**
 * Read one JSON value into a scalar member; on a wrong shape, leave
 * `out` untouched and say in `why` what was expected. An integer
 * member takes a number only when it is whole and fits. A seed
 * travels as its signed-64 bit pattern (see Json(uint64_t)), so an
 * unsigned member reads the int64 range and keeps the bits.
 */
template <typename T>
bool
readScalar(const Json &v, const Rule &rule, T &out, std::string &why)
{
    if constexpr (std::is_same_v<T, std::string>) {
        if (v.isString()) {
            out = v.asString();
            return true;
        }
        why = "expected a string";
    } else if constexpr (std::is_same_v<T, bool>) {
        const bool named = rule.kind == Rule::OneOf;
        if (named ? v.isString() && (v.asString() == rule.names[0] ||
                                     v.asString() == rule.names[1])
                  : v.isBool()) {
            out = named ? v.asString() == rule.names[1] : v.asBool();
            return true;
        }
        why = named ? ruleText(rule) : "expected true or false";
    } else if constexpr (std::is_floating_point_v<T>) {
        if (v.isNumber()) {
            out = v.asDouble();
            return true;
        }
        why = "expected a number";
    } else {
        using Wire = std::make_signed_t<T>;
        Wire wire = 0;
        if (v.isInteger() ? spec_text::exactInt(v.asInt(), wire)
                          : v.isNumber() &&
                                spec_text::exactInt(v.asDouble(), wire)) {
            out = static_cast<T>(wire);
            return true;
        }
        why = "expected an integer in [" +
              std::to_string(std::numeric_limits<Wire>::min()) + ", " +
              std::to_string(std::numeric_limits<Wire>::max()) + "]";
    }
    return false;
}

/**
 * Read the JSON object `obj` into `out`. An absent key keeps its
 * default; an unknown key or a value of the wrong shape fails, with
 * the key path as the anchor.
 */
template <typename S>
bool
readFields(const Json &obj, std::span<const Field<S>> fields, S &out,
           std::string &error)
{
    // A nested object, its errors anchored at anchor().
    auto object = [&](const Json &v, auto anchor, auto table, auto &into) {
        if (!v.isObject())
            error = anchor() + ": expected an object";
        else if (!readFields(v, table, into, error))
            error = anchor() + "." + error;
        else
            return true;
        return false;
    };
    for (const auto &[key, value] : obj.members()) {
        const auto field =
            std::find_if(fields.begin(), fields.end(),
                         [&](const Field<S> &f) { return key == f.key; });
        if (field == fields.end()) {
            error = "unknown field '" + key + "'";
            return false;
        }
        const bool read = std::visit(
            [&](const auto &member) {
                using M = std::decay_t<decltype(member)>;
                if constexpr (std::is_same_v<M, Group<S>>) {
                    return object(value, [&] { return key; },
                                  member.fields, out);
                } else if constexpr (requires { member.items; }) {
                    if (!value.isArray()) {
                        error = key + ": expected an array";
                        return false;
                    }
                    auto &items = out.*member.items;
                    items.assign(value.size(), {});
                    for (size_t i = 0; i < items.size(); ++i) {
                        auto anchor = [&] { return itemAnchor(key, i); };
                        if (!object(value.at(i), anchor, member.fields,
                                    items[i]))
                            return false;
                    }
                    return true;
                } else {
                    std::string why;
                    if (readScalar(value, field->rule, out.*member, why))
                        return true;
                    error = key + ": " + why;
                    return false;
                }
            },
            field->member);
        if (!read)
            return false;
    }
    return true;
}

/** Check the single-field rules of `obj`, in table order. */
template <typename S>
bool
checkFields(const S &obj, std::span<const Field<S>> fields,
            std::string &error)
{
    for (const Field<S> &field : fields) {
        auto broken = [&] {
            error = field.key + (": " + ruleText(field.rule));
            return false;
        };
        const bool ok = std::visit(
            [&](const auto &member) {
                using M = std::decay_t<decltype(member)>;
                if constexpr (std::is_same_v<M, Group<S>>) {
                    if (!(obj.*member.enabled) ||
                        checkFields(obj, member.fields, error))
                        return true;
                    error = field.key + ("." + error);
                    return false;
                } else if constexpr (requires { member.items; }) {
                    const auto &items = obj.*member.items;
                    if (!holds(field.rule, static_cast<double>(items.size())))
                        return broken();
                    for (size_t i = 0; i < items.size(); ++i) {
                        if (!checkFields(items[i], member.fields, error)) {
                            error = itemAnchor(field.key, i) + "." + error;
                            return false;
                        }
                    }
                    return true;
                } else if constexpr (std::is_same_v<M, std::string S::*>) {
                    return field.rule.kind != Rule::OneOf ||
                           obj.*member == field.rule.names[0] ||
                           obj.*member == field.rule.names[1] || broken();
                } else {
                    return holds(field.rule,
                                 static_cast<double>(obj.*member)) ||
                           broken();
                }
            },
            field.member);
        if (!ok)
            return false;
    }
    return true;
}

/** Canonicalize a placement in place ("shuffle" gains its seed). */
bool
canonicalPlacement(std::string &text, ScenarioPlacement &placement,
                   std::string &why)
{
    if (text == "static" || text == "rotate") {
        placement.kind = text == "static" ? ScenarioPlacement::Static
                                          : ScenarioPlacement::Rotate;
        return true;
    }
    // ShuffledPlacement's default seed, spelled out in the text.
    uint64_t seed = 11400714819323198485ULL;
    if (text != "shuffle" && text.rfind("shuffle:", 0) != 0) {
        why = "expected static, rotate or shuffle:<seed>";
        return false;
    }
    if (text != "shuffle" &&
        !spec_text::parseInt(std::string_view(text).substr(8), seed)) {
        why = "expected shuffle:<seed> with a decimal seed in "
              "[0, 18446744073709551615]";
        return false;
    }
    text = "shuffle:" + std::to_string(seed);
    placement = {ScenarioPlacement::Shuffle, seed};
    return true;
}

} // namespace

Json
ScenarioSpec::toJson() const
{
    return writeFields<Spec>(*this, kSpecFields);
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
    ScenarioSpec out;
    if (!readFields<Spec>(doc, kSpecFields, out, error) ||
        !out.normalize(error))
        return false;
    spec = std::move(out);
    return true;
}

bool
ScenarioSpec::parse(const std::string &text, ScenarioSpec &spec,
                    std::string &error)
{
    Json doc;
    return Json::parse(text, doc, error) && fromJson(doc, spec, error);
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
    CompiledScenario compiled;
    compiled.spec_ = std::move(*this);
    const bool ok = compiled.spec_.compile(compiled, error);
    *this = std::move(compiled.spec_);
    return ok;
}

bool
buildShard(std::span<const ScenarioShard> specs,
           std::span<const CompiledShard> built, ScenarioShard &shard,
           CompiledShard &out, const char *&field, std::string &why)
{
    // The earlier shard whose canonical text is `key`'s (a canonical
    // spec parses to itself, so a repeat needs no parse), or null.
    auto find = [&](std::string ScenarioShard::*key,
                    bool disks) -> const CompiledShard * {
        for (size_t e = 0; e < specs.size(); ++e) {
            if (specs[e].*key == shard.*key &&
                (!disks || specs[e].disks == shard.disks))
                return &built[e];
        }
        return nullptr;
    };
    const CompiledShard *same = find(&ScenarioShard::layout, true);
    if (same == nullptr) {
        field = "layout";
        layouts::ParsedLayoutSpec parsed;
        if (!layouts::parseLayoutSpec(shard.layout, parsed, why))
            return false;
        shard.layout = parsed.canonical();
        same = find(&ScenarioShard::layout, true);
        // A spec that parses but cannot build at this disk count
        // (mirror copies not dividing n, width > n) fails here, with
        // the anchor, not mid-simulation.
        try {
            if (same == nullptr)
                out.layout = layouts::buildLayout(parsed, shard.disks);
        } catch (const std::exception &e) {
            why = e.what();
            return false;
        }
    }
    if (same != nullptr)
        out.layout = same->layout;
    same = find(&ScenarioShard::device, false);
    if (same == nullptr) {
        field = "device";
        if (!device::parseDeviceSpec(shard.device, out.device, why))
            return false;
        shard.device = out.device->describe();
        same = find(&ScenarioShard::device, false);
    }
    if (same != nullptr)
        out.device = same->device;
    return true;
}

void
CompiledScenario::setFaultSeed(uint64_t seed)
{
    if (seed != 0 && spec_.mission_ms == 0.0)
        throw std::invalid_argument("fault_seed: needs mission_ms > 0");
    spec_.fault_seed = seed;
}

std::optional<CompiledScenario>
compileScenario(const ScenarioSpec &spec, std::string &error)
{
    CompiledScenario out;
    out.spec_ = spec;
    if (!out.spec_.compile(out, error))
        return std::nullopt;
    return out;
}

CompiledScenario
compileOrThrow(const ScenarioSpec &spec)
{
    std::string error;
    std::optional<CompiledScenario> compiled = compileScenario(spec, error);
    if (!compiled)
        throw std::runtime_error("scenario: " + error);
    return std::move(*compiled);
}

bool
ScenarioSpec::compile(CompiledScenario &out, std::string &error)
{
    if (!checkFields<Spec>(*this, kSpecFields, error))
        return false;
    auto fail = [&](std::string_view anchor, std::string_view why) {
        error.reserve(anchor.size() + 2 + why.size());
        error.assign(anchor).append(": ").append(why);
        return false;
    };
    if (shards.size() > static_cast<size_t>(kMaxVolumeShards))
        return fail("shards", "at most " + std::to_string(kMaxVolumeShards) +
                                  " shards per volume");
    std::string why;
    // The first failure returns, so every error keeps its own shard's
    // anchor, also on a shard that repeats an earlier one's layout.
    out.shards_.resize(shards.size());
    int64_t min_capacity = std::numeric_limits<int64_t>::max();
    for (size_t i = 0; i < shards.size(); ++i) {
        ScenarioShard &shard = shards[i];
        CompiledShard &built = out.shards_[i];
        auto at = [&](const char *key) {
            return itemAnchor("shards", i) + "." + key;
        };
        const char *field = "";
        if (!buildShard({shards.data(), i}, {out.shards_.data(), i}, shard,
                        built, field, why))
            return fail(at(field), why);
        const Layout &layout = *built.layout;
        built.data_units = arrayDataUnits(
            built.device->totalSectors(), unit_sectors,
            layout.unitsPerDiskPerPeriod(), layout.dataUnitsPerPeriod());
        if (built.data_units < 1)
            return fail(at("device"), "too small for one pattern of the "
                                      "shard's layout at this unit_sectors");
        min_capacity = std::min(min_capacity, built.data_units);
        if (shard.failed_disk < -1 || shard.failed_disk >= shard.disks)
            return fail(at("failed_disk"), "must be -1 (healthy) or a "
                                           "disk index below disks");
        if (shard.rebuilt && (shard.failed_disk < 0 || !layout.hasSparing()))
            return fail(at("rebuilt"), "needs failed_disk >= 0 and a "
                                       "layout with spare space");
    }
    if (!canonicalPlacement(placement, out.placement_, why))
        return fail("placement", why);
    if (!(dispatch_ms > 0.0) && (dispatch_ms != 0.0 || shards.size() != 1))
        return fail("dispatch_ms", "must be > 0, or 0 (no fabric) with "
                                   "exactly one shard");
    // Behind a fabric every volume group levels to its smallest
    // member, which must hold one whole chunk.
    if (dispatch_ms > 0.0 && min_capacity < chunk_units)
        return fail("chunk_units", "exceeds the " +
                                       std::to_string(min_capacity) +
                                       " data units of the smallest shard");
    // The closed loop issues one fixed access shape.
    if (client == "closed" && mix.size() > 1)
        return fail("mix", "a closed client issues one access shape, so "
                           "at most one entry");
    // Every access must fit the backend: the bare array, or the
    // volume its shards level into. A closed client with no mix
    // issues one default entry.
    const int64_t backend_units =
        dispatch_ms > 0.0
            ? volumeDataUnits(
                  static_cast<int>(shards.size()), allocation == "tiered",
                  chunk_units, [&](int s) { return out.shards_[s].data_units; },
                  [&](int s) {
                      return allocationTier(shards[s].tier,
                                            out.shards_[s].device->kind());
                  })
            : out.shards_[0].data_units;
    const bool closed_default = mix.empty() && client == "closed";
    for (size_t i = 0; i < (closed_default ? 1 : mix.size()); ++i) {
        const int64_t units = unitsForKb(
            closed_default ? ScenarioMix{}.kb : mix[i].kb, unit_sectors);
        if (units > backend_units)
            return fail(closed_default ? "mix" : itemAnchor("mix", i) + ".kb",
                        "an access of " + std::to_string(units) +
                            " stripe units exceeds the " +
                            std::to_string(backend_units) +
                            " data units of the backend");
    }
    if (!traffic::parseOffsetSpec(offsets, out.offsets_, why))
        return fail("offsets", why);
    offsets = traffic::offsetSpecName(out.offsets_);
    if (!traffic::parseArrivalSpec(arrival, out.arrival_, why))
        return fail("arrival", why);
    arrival = traffic::arrivalSpecString(out.arrival_);
    if (ci_tolerance > 0.0 && client != "closed")
        return fail("ci_tolerance", "must be 0 unless client is \"closed\"");
    if (min_samples < (ci_tolerance > 0.0 ? 2 : 0) || min_samples > samples)
        return fail("min_samples", "must be at most samples, and at least "
                                   "2 with a ci_tolerance");
    // The tier holds whole sets. kb / (sectors per KB) is unitsForKb()
    // without its kb * 2, which could overflow.
    const int64_t cache_units = cache_kb / (unit_sectors / 2);
    if (cache_enabled && cache_units < cache_ways)
        return fail("cache.kb", "capacity is below one set (kb too small "
                                "for ways at this unit_sectors)");
    if (cache_enabled)
        out.cache_units_ = cache_units - cache_units % cache_ways;
    if (out.cache_units_ > backend_units)
        return fail("cache.kb", "a cache of " +
                                    std::to_string(out.cache_units_) +
                                    " stripe units exceeds the " +
                                    std::to_string(backend_units) +
                                    " data units of the backend");
    if (cache_enabled && !(cache_low >= 0.0 && cache_low <= cache_high &&
                           cache_high <= 1.0))
        return fail("cache.high/cache.low", "need 0 <= low <= high <= 1");
    for (size_t i = 0; i < faults.size(); ++i) {
        const ScenarioFault &fault = faults[i];
        auto at = [&](const char *key) {
            return itemAnchor("faults", i) + "." + key;
        };
        if (fault.shard < 0 || fault.shard >= static_cast<int>(shards.size()))
            return fail(at("shard"), "no such shard");
        const ScenarioShard &shard = shards[fault.shard];
        if (fault.disk < 0 || fault.disk >= shard.disks)
            return fail(at("disk"), "no such disk in shard " +
                                        std::to_string(fault.shard));
        // A fault's lifecycle starts from a healthy array.
        if (shard.failed_disk >= 0)
            return fail(at("shard"),
                        "shard " + std::to_string(fault.shard) +
                            " starts with failed_disk " +
                            std::to_string(shard.failed_disk) +
                            "; scripted faults need a healthy shard");
    }
    // Canonical fault order (the schedulers sort anyway; sorting
    // here makes describe() independent of authoring order).
    std::sort(faults.begin(), faults.end(),
              [](const ScenarioFault &a, const ScenarioFault &b) {
                  return std::tie(a.when_ms, a.shard, a.disk) <
                         std::tie(b.when_ms, b.shard, b.disk);
              });
    // Without a mission, the draw fields (and a scrubber that would
    // never stop) must stay 0.
    const std::pair<const char *, bool> drawn[] = {
        {"fault_seed", fault_seed != 0},
        {"disk_mttf_ms", disk_mttf_ms != 0.0},
        {"latent_mtbe_ms", latent_mtbe_ms != 0.0},
        {"scrub_interval_ms", scrub_interval_ms != 0.0}};
    for (const auto &[name, set] : drawn) {
        if (set && mission_ms == 0.0)
            return fail(name, "needs mission_ms > 0");
    }
    // One draw scheme: a mission is one bare healthy array under a
    // closed population, the shape of a Monte-Carlo reliability trial.
    if (mission_ms > 0.0 &&
        (shards.size() != 1 || dispatch_ms != 0.0 || client != "closed" ||
         shards.front().failed_disk >= 0))
        return fail("mission_ms", "a mission needs one healthy shard "
                                  "(failed_disk -1), dispatch_ms 0 and "
                                  "client \"closed\"");
    return true;
}

bool
loadScenario(const std::string &path_or_json, ScenarioSpec &spec,
             std::string &error)
{
    const size_t first = path_or_json.find_first_not_of(" \t\r\n");
    if (first != std::string::npos && path_or_json[first] == '{')
        return ScenarioSpec::parse(path_or_json, spec, error);
    std::ifstream in(path_or_json);
    if (!in) {
        error = path_or_json + ": cannot read file";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (ScenarioSpec::parse(text.str(), spec, error))
        return true;
    error = path_or_json + ": " + error;
    return false;
}

} // namespace pddl
