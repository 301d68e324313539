/**
 * @file
 * ScenarioSpec: one serializable description of a whole simulated
 * scenario -- volume, workload, cache tier and fault timeline -- as
 * plain data: spec strings and numbers, never live objects, so it
 * hashes, compares, mutates and serializes freely. It is the genome
 * the src/tune search mutates and the format bench --scenario and the
 * replay tool load.
 *
 * The canonical text form IS compact JSON: describe() writes every
 * key in a fixed order with the nested spec strings normalized
 * (layout/device/offset/arrival registries), and parse(describe(s))
 * reproduces `s` field-for-field. Errors are anchored: JSON syntax
 * errors carry "line L, column C", and semantic errors name the
 * offending field ("shards[1].layout: ...").
 *
 * Each JSON key is declared once, in the field tables of
 * scenario_spec.cc, with its member, its single-field range rule and
 * when it is written; toJson(), fromJson() and compileScenario() read
 * those tables, and compileScenario() adds the rules that span fields.
 *
 * compileScenario() is the one place a spec is checked and built: it
 * returns a CompiledScenario holding the canonical spec and everything
 * the checks built -- each distinct layout and device once, the
 * parsed offset and arrival specs, the placement -- and the run, the
 * volume and the tuner read that object instead of building again.
 */

#ifndef PDDL_CORE_SCENARIO_SPEC_HH
#define PDDL_CORE_SCENARIO_SPEC_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "traffic/arrival.hh"
#include "traffic/offset_dist.hh"
#include "util/json.hh"

namespace pddl {

class CompiledScenario;
class DeviceModel;
class Layout;

/** One shard of the scenario's volume, by spec strings. */
struct ScenarioShard
{
    /** Layout spec (core/layout_spec.hh), built over `disks`. */
    std::string layout = "pddl:width=4";
    /** Device spec (disk/device_model.hh). */
    std::string device = "hp2247";
    int disks = 13;
    /** Tier label for tiered allocation; empty derives by device. */
    std::string tier;
    /** >= 0 starts the shard degraded with this disk down. */
    int failed_disk = -1;
    /** failed_disk already rebuilt into spare space (needs sparing). */
    bool rebuilt = false;

    bool operator==(const ScenarioShard &o) const = default;
};

/** One weighted entry of the access mix (size in KB, byte-fair). */
struct ScenarioMix
{
    int kb = 8;
    bool write = false;
    double weight = 1.0;

    bool operator==(const ScenarioMix &o) const = default;
};

/** One scripted disk failure. */
struct ScenarioFault
{
    double when_ms = 0.0;
    int shard = 0;
    int disk = 0;

    bool operator==(const ScenarioFault &o) const = default;
};

/** The whole scenario, as plain serializable data. */
struct ScenarioSpec
{
    // ---- volume ----
    std::vector<ScenarioShard> shards = {ScenarioShard{}};
    /** "striped" or "tiered" (first-listed tier owns the prefix). */
    std::string allocation = "striped";
    /** "static", "rotate" or "shuffle:<seed>". */
    std::string placement = "static";
    /** Striping chunk in stripe units. */
    int chunk_units = 8;
    /** Volume -> shard dispatch latency in ms (engine lookahead);
     *  0 = no fabric: one shard as a bare array on one queue. */
    double dispatch_ms = 2.0;
    /** Sectors per stripe unit (16 x 512 B = the paper's 8 KB). */
    int unit_sectors = 16;
    /** SSTF scan window per disk. */
    int sstf_window = 20;

    // ---- workload ----
    /** "open" (offered rate) or "closed" (client population). */
    std::string client = "open";
    double arrivals_per_s = 100.0;
    /** Closed loop only: population size. */
    int clients = 8;
    /** Closed loop only: think time between completions, ms. */
    double think_ms = 0.0;
    /** Offset spec (traffic/offset_dist.hh), canonical. */
    std::string offsets = "uniform";
    /** Arrival spec (traffic/arrival.hh), canonical. */
    std::string arrival = "poisson";
    /** Access mix; empty means one 8 KB read. */
    std::vector<ScenarioMix> mix;
    /** Measured completions / arrivals after warmup (the maximum
     *  under a ci_tolerance). */
    int64_t samples = 2000;
    int64_t warmup = 200;
    /** Closed loop: stop once the 95 % CI half-width is within this
     *  fraction of the mean, after min_samples; 0 = fixed budget. */
    double ci_tolerance = 0.0;
    int64_t min_samples = 0;

    // ---- cache tier ----
    bool cache_enabled = false;
    /** Capacity in KB (stripe-unit-size independent). */
    int64_t cache_kb = 32768;
    int cache_ways = 8;
    double cache_high = 0.5;
    double cache_low = 0.25;
    double cache_hit_ms = 0.05;
    int cache_run_units = 64;
    int cache_width = 4;

    // ---- faults ----
    std::vector<ScenarioFault> faults;
    /** Concurrent stripe rebuilds (rebuild aggressiveness). */
    int rebuild_parallel = 4;
    /** Stripes each rebuild sweeps; 0 = all client stripes. */
    int64_t rebuild_stripes = 0;

    // ---- mission: a drawn fault timeline over a fixed length ----
    /**
     * > 0 runs a mission: FaultSchedule::draw(fault_seed, ...) is
     * added to the scripted faults and the run stops at this
     * simulated time instead of draining; the closed loop then has
     * no sample budget and no CI rule (samples, min_samples and
     * ci_tolerance are ignored). Needs one shard, dispatch_ms 0 and
     * a closed client. 0 = off.
     */
    double mission_ms = 0.0;
    /** Seed of the drawn timeline (in the spec, so it replays). */
    uint64_t fault_seed = 0;
    /** Per-disk exponential MTTF in ms; 0 draws no failures. */
    double disk_mttf_ms = 0.0;
    /** Per-disk mean time between latent errors; 0 draws none. */
    double latent_mtbe_ms = 0.0;
    /** Background scrub pacing in ms; 0 runs no scrubber. */
    double scrub_interval_ms = 0.0;

    bool operator==(const ScenarioSpec &o) const = default;

    /**
     * Canonical compact one-line JSON: every field in table order,
     * nested specs normalized, the fields added after the format was
     * fixed only when non-zero. parse(describe()) == *this for any
     * valid spec (construct via parse() or normalize() first).
     */
    std::string describe() const;

    /** The same tree as a Json document (pretty-print for files). */
    Json toJson() const;

    /**
     * Parse a JSON text (compact or pretty) into a validated,
     * normalized spec. On failure returns false and `error` carries
     * a line/column anchor (syntax) or a field anchor (semantics).
     */
    static bool parse(const std::string &text, ScenarioSpec &spec,
                      std::string &error);

    /** Load from an already-parsed document (same validation). */
    static bool fromJson(const Json &doc, ScenarioSpec &spec,
                         std::string &error);

    /** Parse-or-throw convenience (std::runtime_error). */
    static ScenarioSpec parseOrThrow(const std::string &text);

    /**
     * Validate every field and canonicalize the nested spec strings
     * in place: compileScenario() keeping only the spec. @return
     * false with a field-anchored `error` when the spec cannot
     * describe a buildable scenario.
     */
    bool normalize(std::string &error);

  private:
    friend std::optional<CompiledScenario>
    compileScenario(const ScenarioSpec &spec, std::string &error);
    /** Check and canonicalize in place, building into `out`. */
    bool compile(CompiledScenario &out, std::string &error);
};

/** One shard of a compiled scenario: the objects its array runs on. */
struct CompiledShard
{
    std::shared_ptr<const Layout> layout;
    std::shared_ptr<const DeviceModel> device;
    /** Stripe units the shard holds as a bare array. */
    int64_t data_units = 0;
};

/**
 * Build `shard`'s layout and device into `out`, canonicalizing its
 * strings in place. `specs` and `built` are the shards before it: one
 * whose canonical layout and disks, or canonical device, equal this
 * shard's lends its object instead, so each distinct one is built
 * once. Both are immutable (a layout publishes its lazy map table
 * under its mutex), so shards, volumes and threads share them. On
 * failure returns false with the failing key ("layout" or "device")
 * in `field` and the reason in `why`.
 */
bool buildShard(std::span<const ScenarioShard> specs,
                std::span<const CompiledShard> built, ScenarioShard &shard,
                CompiledShard &out, const char *&field, std::string &why);

/** Chunk placement as compiled: volume/placement.hh's policies. */
struct ScenarioPlacement
{
    enum Kind : uint8_t { Static, Rotate, Shuffle };
    Kind kind = Static;
    uint64_t seed = 0; ///< Shuffle's permutation seed
};

/**
 * A spec that passed every check, with what the checks built. Only
 * compileScenario() makes one, so holding one means the spec is valid
 * and canonical. Copies share the layouts and devices, and one object
 * may run on several threads at once.
 */
class CompiledScenario
{
  public:
    /** The canonical spec, as normalize() leaves it. */
    const ScenarioSpec &spec() const { return spec_; }
    const CompiledShard &shard(int s) const { return shards_[s]; }
    const traffic::OffsetSpec &offsets() const { return offsets_; }
    const traffic::ArrivalSpec &arrival() const { return arrival_; }
    ScenarioPlacement placement() const { return placement_; }
    /** The cache tier's lines: cache.kb in stripe units, whole sets. */
    int64_t cacheUnits() const { return cache_units_; }

    /** Redraw a mission's fault timeline (one Monte-Carlo trial);
     *  std::invalid_argument on a nonzero seed without a mission. */
    void setFaultSeed(uint64_t seed);

  private:
    friend struct ScenarioSpec;
    friend std::optional<CompiledScenario>
    compileScenario(const ScenarioSpec &spec, std::string &error);
    CompiledScenario() = default;

    ScenarioSpec spec_;
    std::vector<CompiledShard> shards_;
    traffic::OffsetSpec offsets_;
    traffic::ArrivalSpec arrival_;
    ScenarioPlacement placement_;
    int64_t cache_units_ = 0;
};

/**
 * Check `spec` and build what it describes: the compiled scenario, or
 * nothing with a field-anchored `error` ("shards[1].layout: ...").
 */
std::optional<CompiledScenario> compileScenario(const ScenarioSpec &spec,
                                                std::string &error);

/** compileScenario(), or std::runtime_error("scenario: <error>"). */
CompiledScenario compileOrThrow(const ScenarioSpec &spec);

/**
 * Read `path` and parse it; errors are prefixed with the path. A
 * text starting with '{' is treated as inline JSON instead (the
 * --scenario flag accepts both).
 */
bool loadScenario(const std::string &path_or_json, ScenarioSpec &spec,
                  std::string &error);

} // namespace pddl

#endif // PDDL_CORE_SCENARIO_SPEC_HH
