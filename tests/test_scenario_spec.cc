/**
 * @file
 * Property tests for the serializable ScenarioSpec: the canonical
 * parse(describe()) round-trip and the JSON dump/load round-trip
 * swept over every registered layout and device family (including
 * draid, tdesign and mirror), canonicalization of nested spec
 * strings, and the anchored error diagnostics (line/column for
 * syntax, field paths for semantics).
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/layout_spec.hh"
#include "core/scenario_spec.hh"
#include "core/volume_capacity.hh"
#include "disk/device_model.hh"
#include "traffic/arrival.hh"
#include "traffic/offset_dist.hh"
#include "util/json.hh"
#include "volume/volume_manager.hh"

namespace pddl {
namespace {

/** A valid spec exercising the non-default corners. */
ScenarioSpec
richSpec()
{
    ScenarioSpec spec;
    spec.shards = {ScenarioShard{"pddl:width=4", "hp2247", 13, "", -1},
                   ScenarioShard{"mirror:copies=2,sched=round_robin",
                                 "ssd", 4, "fast", -1}};
    spec.allocation = "tiered";
    spec.placement = "shuffle:42";
    spec.chunk_units = 16;
    spec.unit_sectors = 32;
    spec.offsets = "zipf:0.99";
    spec.arrival = "mmpp:4,1200,400";
    spec.mix = {{8, true, 0.6}, {32, false, 0.4}};
    spec.cache_enabled = true;
    spec.cache_high = 0.10;
    spec.cache_low = 0.05;
    spec.faults = {{40.0, 0, 2}};
    spec.rebuild_parallel = 8;
    return spec;
}

TEST(ScenarioSpec, DefaultSpecRoundTrips)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(spec.normalize(error)) << error;

    ScenarioSpec back;
    ASSERT_TRUE(ScenarioSpec::parse(spec.describe(), back, error))
        << error;
    EXPECT_EQ(spec, back);
    EXPECT_EQ(spec.describe(), back.describe());
}

TEST(ScenarioSpec, RoundTripsEveryLayoutFamily)
{
    // One buildable (layout spec, disk count) per registered family.
    const struct
    {
        const char *layout;
        int disks;
    } families[] = {
        {"pddl:width=4", 13},
        {"raid5", 5},
        {"datum:width=5,check=1", 13},
        {"parity:width=4", 13},
        {"prime:width=4", 7},
        {"mirror:copies=2,sched=shortest_queue", 8},
        {"draid:width=4,spares=1,rows=13,seed=7", 13},
        {"tdesign", 16},
    };
    for (const auto &family : families) {
        ScenarioSpec spec;
        spec.shards[0].layout = family.layout;
        spec.shards[0].disks = family.disks;
        std::string error;
        ASSERT_TRUE(spec.normalize(error))
            << family.layout << ": " << error;

        // Canonical text round-trip: parse(describe(s)) == s.
        ScenarioSpec back;
        ASSERT_TRUE(ScenarioSpec::parse(spec.describe(), back, error))
            << family.layout << ": " << error;
        EXPECT_EQ(spec, back) << family.layout;

        // JSON document round-trip (pretty form, as files store it).
        ScenarioSpec from_doc;
        ASSERT_TRUE(ScenarioSpec::parse(spec.toJson().dump(2),
                                        from_doc, error))
            << family.layout << ": " << error;
        EXPECT_EQ(spec, from_doc) << family.layout;
    }
}

TEST(ScenarioSpec, RoundTripsEveryDeviceFamily)
{
    for (const char *device : {"hp2247", "hdd", "ssd"}) {
        ScenarioSpec spec;
        spec.shards[0].device = device;
        std::string error;
        ASSERT_TRUE(spec.normalize(error)) << device << ": " << error;
        // normalize() canonicalized the bare family name; the
        // canonical form must be a fixed point.
        ScenarioSpec back;
        ASSERT_TRUE(ScenarioSpec::parse(spec.describe(), back, error))
            << device << ": " << error;
        EXPECT_EQ(spec, back) << device;
        EXPECT_EQ(spec.shards[0].device, back.shards[0].device);
    }
}

TEST(ScenarioSpec, RichSpecRoundTripsThroughJson)
{
    ScenarioSpec spec = richSpec();
    std::string error;
    ASSERT_TRUE(spec.normalize(error)) << error;

    ScenarioSpec back;
    ASSERT_TRUE(ScenarioSpec::parse(spec.describe(), back, error))
        << error;
    EXPECT_EQ(spec, back);

    // describe() is canonical: re-describing the parsed spec must
    // reproduce the exact byte string.
    EXPECT_EQ(spec.describe(), back.describe());
}

TEST(ScenarioSpec, NormalizeCanonicalizesNestedSpecs)
{
    ScenarioSpec spec;
    // A mirror without an explicit scheduler gains the default.
    spec.shards[0].layout = "mirror:copies=2";
    spec.shards[0].disks = 8;
    // A bare shuffle gains its golden-ratio default seed.
    spec.placement = "shuffle";
    std::string error;
    ASSERT_TRUE(spec.normalize(error)) << error;
    EXPECT_NE(spec.shards[0].layout.find("sched="), std::string::npos)
        << spec.shards[0].layout;
    EXPECT_EQ(spec.placement.rfind("shuffle:", 0), 0u)
        << spec.placement;
    EXPECT_GT(spec.placement.size(), std::string("shuffle:").size());

    // Canonicalization is idempotent.
    const std::string once = spec.describe();
    ASSERT_TRUE(spec.normalize(error)) << error;
    EXPECT_EQ(once, spec.describe());
}

TEST(ScenarioSpec, FaultsAreSortedByTime)
{
    ScenarioSpec spec;
    spec.faults = {{80.0, 0, 3}, {40.0, 0, 2}};
    std::string error;
    ASSERT_TRUE(spec.normalize(error)) << error;
    ASSERT_EQ(spec.faults.size(), 2u);
    EXPECT_EQ(spec.faults[0].when_ms, 40.0);
    EXPECT_EQ(spec.faults[1].when_ms, 80.0);
}

TEST(ScenarioSpec, SyntaxErrorsCarryLineAndColumn)
{
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(ScenarioSpec::parse("{ \"shards\": ", spec, error));
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
    EXPECT_NE(error.find("column"), std::string::npos) << error;

    // A later line anchors to that line.
    EXPECT_FALSE(ScenarioSpec::parse("{\n  \"chunk_units\": nope\n}",
                                     spec, error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(ScenarioSpec, UnknownFieldsAreRejectedByName)
{
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(ScenarioSpec::parse("{\"bogus\": 1}", spec, error));
    EXPECT_NE(error.find("unknown field 'bogus'"), std::string::npos)
        << error;

    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"cache\": {\"enabled\": true, \"typo\": 1}}", spec, error));
    EXPECT_NE(error.find("typo"), std::string::npos) << error;
}

TEST(ScenarioSpec, SemanticErrorsAnchorTheField)
{
    ScenarioSpec spec;
    std::string error;

    // Unknown layout family, anchored to the shard that named it.
    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"shards\": [{\"layout\": \"blorp\"}]}", spec, error));
    EXPECT_NE(error.find("shards[0].layout"), std::string::npos)
        << error;

    // A layout that cannot be built over the shard's disk count.
    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"shards\": [{\"layout\": \"mirror:copies=2\", "
        "\"disks\": 13}]}",
        spec, error));
    EXPECT_NE(error.find("shards[0].layout"), std::string::npos)
        << error;

    // A layout is built once per distinct (layout, disks): a shard
    // that repeats shard 0's string at a disk count where it cannot
    // build still fails, at its own anchor and with the same reason.
    const std::string mirror_error = error.substr(error.find(':'));
    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"shards\": [{\"layout\": \"mirror:copies=2\", "
        "\"disks\": 12}, {\"layout\": \"mirror:copies=2\", "
        "\"disks\": 12}, {\"layout\": \"mirror:copies=2\", "
        "\"disks\": 13}]}",
        spec, error));
    EXPECT_EQ(error, "shards[2].layout" + mirror_error);

    // The same for the sparing check: rebuilt on a shard repeating a
    // non-sparing layout fails at that shard's own field.
    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"shards\": [{\"layout\": \"raid5\"}, {\"layout\": "
        "\"raid5\", \"failed_disk\": 0, \"rebuilt\": true}]}",
        spec, error));
    EXPECT_EQ(error.rfind("shards[1].rebuilt:", 0), 0u) << error;

    // A drive too small for one pattern of its shard's layout: the
    // controller could not place a single data unit.
    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"shards\":[{\"device\":\"ssd:sectors=16\"}, {}],"
        "\"dispatch_ms\":2}",
        spec, error));
    EXPECT_EQ(error.rfind("shards[0].device:", 0), 0u) << error;

    // A chunk larger than a shard's capacity: the volume could not
    // give each shard one whole chunk.
    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"shards\":[{},{}],\"chunk_units\":100000000,"
        "\"dispatch_ms\":2}",
        spec, error));
    EXPECT_EQ(error.rfind("chunk_units:", 0), 0u) << error;

    // More shards than a volume routes over.
    std::string many = "{\"shards\":[{}";
    for (int s = 1; s <= kMaxVolumeShards; ++s)
        many += ",{}";
    EXPECT_FALSE(ScenarioSpec::parse(many + "],\"dispatch_ms\":2}", spec,
                                     error));
    EXPECT_EQ(error.rfind("shards:", 0), 0u) << error;

    // An access larger than the backend, bare array or volume: the
    // client could not place it anywhere.
    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"dispatch_ms\":0,\"client\":\"closed\","
        "\"mix\":[{\"kb\":900000000}]}",
        spec, error));
    EXPECT_EQ(error.rfind("mix[0].kb:", 0), 0u) << error;
    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"shards\":[{\"device\":\"ssd:sectors=8192\"},"
        "{\"device\":\"ssd:sectors=8192\"}],\"dispatch_ms\":2,"
        "\"mix\":[{\"kb\":8},{\"kb\":1000000}]}",
        spec, error));
    EXPECT_EQ(error.rfind("mix[1].kb:", 0), 0u) << error;
    // A closed client with no mix issues one 8 KB access, here 8
    // units against an array of 2.
    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"shards\":[{\"layout\":\"mirror\",\"disks\":2,"
        "\"device\":\"ssd:sectors=4\"}],\"dispatch_ms\":0,"
        "\"unit_sectors\":2,\"client\":\"closed\",\"mix\":[]}",
        spec, error));
    EXPECT_EQ(error.rfind("mix: an access of 8 stripe units", 0), 0u)
        << error;
    // A closed client issues one access shape; a second entry would
    // be ignored, so it is refused.
    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"client\":\"closed\",\"clients\":2,"
        "\"mix\":[{\"kb\":8},{\"kb\":64,\"op\":\"write\"}]}",
        spec, error));
    EXPECT_EQ(error.rfind("mix: a closed client issues one access shape", 0),
              0u)
        << error;

    // A cache of more stripe units than the backend holds: 10^12 KB
    // once failed to allocate mid-run, and 2^62 KB overflowed the KB
    // to units conversion into a silent 8-unit cache.
    for (const char *kb : {"1000000000000", "4611686018427387904"}) {
        EXPECT_FALSE(ScenarioSpec::parse(
            std::string("{\"cache\":{\"enabled\":true,\"kb\":") + kb +
                "}}",
            spec, error));
        EXPECT_EQ(error.rfind("cache.kb: a cache of ", 0), 0u) << error;
    }

    // Inverted cache watermarks.
    ScenarioSpec bad;
    bad.cache_enabled = true;
    bad.cache_high = 0.10;
    bad.cache_low = 0.90;
    EXPECT_FALSE(bad.normalize(error));
    EXPECT_NE(error.find("cache.high/cache.low"), std::string::npos)
        << error;

    // A scripted failure of a disk the shard does not have.
    ScenarioSpec ghost;
    ghost.faults = {{40.0, 0, 99}};
    EXPECT_FALSE(ghost.normalize(error));
    EXPECT_NE(error.find("faults[0].disk"), std::string::npos)
        << error;
}

TEST(ScenarioSpec, AccessLimitIsTheCapacityTheVolumeBuilds)
{
    // A tiered volume of unequal shards: the ssd shards level to the
    // smaller one and the hp2247 shard stands alone, each floored to
    // whole chunks. normalize() takes an access of exactly the units
    // the volume builds and refuses one unit more.
    ScenarioSpec spec;
    spec.shards = {{"pddl:width=4", "ssd:sectors=8192", 13, "", -1, false},
                   {"pddl:width=4", "hp2247", 13, "", -1, false},
                   {"pddl:width=4", "ssd:sectors=16384", 13, "", -1, false}};
    spec.allocation = "tiered";
    spec.chunk_units = 7;
    spec.dispatch_ms = 2.0;
    std::vector<ShardSpec> shards(spec.shards.size());
    for (size_t s = 0; s < shards.size(); ++s) {
        shards[s].layout_spec = spec.shards[s].layout;
        shards[s].device_spec = spec.shards[s].device;
        shards[s].disks = spec.shards[s].disks;
    }
    EventQueue events;
    VolumeConfig config;
    config.chunk_units = spec.chunk_units;
    config.allocation = VolumeAllocation::Tiered;
    const VolumeManager volume(events, shards, config);
    ASSERT_EQ(volume.allocationGroups(), 2);

    const int kb_per_unit = spec.unit_sectors / 2;
    std::string error;
    ScenarioSpec fits = spec;
    fits.mix = {{static_cast<int>(volume.dataUnits()) * kb_per_unit,
                 false, 1.0}};
    EXPECT_TRUE(fits.normalize(error)) << error;
    ScenarioSpec over = spec;
    over.mix = {{8, false, 1.0},
                {static_cast<int>(volume.dataUnits() + 1) * kb_per_unit,
                 true, 1.0}};
    EXPECT_FALSE(over.normalize(error));
    EXPECT_EQ(error.rfind("mix[1].kb:", 0), 0u) << error;
}

TEST(ScenarioSpec, CanonicalTextOfExistingSpecsIsPinned)
{
    // Tuner winners, replay inputs and the host-speed benchmark's
    // autotune digest all hash describe(); fields added later must
    // not change the text of a spec that does not use them.
    ScenarioSpec spec;
    EXPECT_EQ(
        spec.describe(),
        "{\"shards\":[{\"layout\":\"pddl:width=4\",\"device\":\"hp2247\","
        "\"disks\":13,\"tier\":\"\",\"failed_disk\":-1}],"
        "\"allocation\":\"striped\",\"placement\":\"static\","
        "\"chunk_units\":8,\"dispatch_ms\":2,\"unit_sectors\":16,"
        "\"sstf_window\":20,\"client\":\"open\",\"arrivals_per_s\":100,"
        "\"clients\":8,\"think_ms\":0,\"offsets\":\"uniform\","
        "\"arrival\":\"poisson\",\"mix\":[],\"samples\":2000,"
        "\"warmup\":200,\"cache\":{\"enabled\":false,\"kb\":32768,"
        "\"ways\":8,\"high\":0.5,\"low\":0.25,"
        "\"hit_ms\":0.050000000000000003,\"run_units\":64,\"width\":4},"
        "\"faults\":[],\"rebuild_parallel\":4}");

    ScenarioSpec rich = richSpec();
    std::string error;
    ASSERT_TRUE(rich.normalize(error)) << error;
    EXPECT_EQ(
        rich.describe(),
        "{\"shards\":[{\"layout\":\"pddl:width=4\",\"device\":\"hp2247\","
        "\"disks\":13,\"tier\":\"\",\"failed_disk\":-1},"
        "{\"layout\":\"mirror:copies=2,sched=round_robin\","
        "\"device\":\"ssd:read_us=1.2e+02,write_us=3.6e+02,"
        "sector_us=0.5,sectors=524288,cost=3.25\",\"disks\":4,"
        "\"tier\":\"fast\",\"failed_disk\":-1}],"
        "\"allocation\":\"tiered\",\"placement\":\"shuffle:42\","
        "\"chunk_units\":16,\"dispatch_ms\":2,\"unit_sectors\":32,"
        "\"sstf_window\":20,\"client\":\"open\",\"arrivals_per_s\":100,"
        "\"clients\":8,\"think_ms\":0,\"offsets\":\"zipf:0.99\","
        "\"arrival\":\"mmpp:4,1200,400\",\"mix\":[{\"kb\":8,"
        "\"op\":\"write\",\"weight\":0.59999999999999998},{\"kb\":32,"
        "\"op\":\"read\",\"weight\":0.40000000000000002}],"
        "\"samples\":2000,\"warmup\":200,\"cache\":{\"enabled\":true,"
        "\"kb\":32768,\"ways\":8,\"high\":0.10000000000000001,"
        "\"low\":0.050000000000000003,\"hit_ms\":0.050000000000000003,"
        "\"run_units\":64,\"width\":4},\"faults\":[{\"when_ms\":40,"
        "\"shard\":0,\"disk\":2}],\"rebuild_parallel\":8}");
}

/** The paper's array with no fabric, post-reconstruction, CI rule. */
ScenarioSpec
paperSpec()
{
    ScenarioSpec spec;
    spec.shards.front().failed_disk = 0;
    spec.shards.front().rebuilt = true;
    spec.dispatch_ms = 0.0;
    spec.client = "closed";
    spec.ci_tolerance = 0.06;
    spec.min_samples = 250;
    spec.samples = 2500;
    return spec;
}

TEST(ScenarioSpec, NoFabricStoppingRuleAndRebuiltRoundTrip)
{
    ScenarioSpec spec = paperSpec();
    std::string error;
    ASSERT_TRUE(spec.normalize(error)) << error;
    const std::string text = spec.describe();
    EXPECT_NE(text.find("\"dispatch_ms\":0"), std::string::npos) << text;
    EXPECT_NE(text.find("\"rebuilt\":true"), std::string::npos) << text;
    EXPECT_NE(text.find("\"ci_tolerance\":0.059999999999999998"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\"min_samples\":250"), std::string::npos)
        << text;

    ScenarioSpec back;
    ASSERT_TRUE(ScenarioSpec::parse(text, back, error)) << error;
    EXPECT_EQ(spec, back);
    ScenarioSpec from_doc;
    ASSERT_TRUE(
        ScenarioSpec::parse(spec.toJson().dump(2), from_doc, error))
        << error;
    EXPECT_EQ(spec, from_doc);
}

TEST(ScenarioSpec, NoFabricAndStoppingRuleErrorsAnchorTheField)
{
    std::string error;
    auto rejects = [&](ScenarioSpec spec, const char *anchor) {
        EXPECT_FALSE(spec.normalize(error)) << anchor;
        EXPECT_EQ(error.rfind(anchor, 0), 0u) << error;
    };

    ScenarioSpec two_shards = paperSpec();
    two_shards.shards.push_back(ScenarioShard{});
    rejects(two_shards, "dispatch_ms:");

    ScenarioSpec negative_dispatch;
    negative_dispatch.dispatch_ms = -1.0;
    rejects(negative_dispatch, "dispatch_ms:");

    ScenarioSpec healthy_rebuilt = paperSpec();
    healthy_rebuilt.shards.front().failed_disk = -1;
    rejects(healthy_rebuilt, "shards[0].rebuilt:");

    ScenarioSpec raid5_rebuilt = paperSpec();
    raid5_rebuilt.shards.front().layout = "raid5";
    rejects(raid5_rebuilt, "shards[0].rebuilt:");

    ScenarioSpec too_few = paperSpec();
    too_few.min_samples = too_few.samples + 1;
    rejects(too_few, "min_samples:");

    ScenarioSpec negative_tolerance = paperSpec();
    negative_tolerance.ci_tolerance = -0.01;
    rejects(negative_tolerance, "ci_tolerance:");

    ScenarioSpec open_rule = paperSpec();
    open_rule.client = "open";
    rejects(open_rule, "ci_tolerance:");

    ScenarioSpec one_sample = paperSpec();
    one_sample.min_samples = 1;
    rejects(one_sample, "min_samples:");

    // The same anchors come back through the JSON loader.
    ScenarioSpec spec;
    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"shards\": [{\"layout\": \"raid5\", \"failed_disk\": 0, "
        "\"rebuilt\": true}]}",
        spec, error));
    EXPECT_EQ(error.rfind("shards[0].rebuilt:", 0), 0u) << error;
    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"shards\": [{\"rebuilt\": 1}]}", spec, error));
    EXPECT_EQ(error.rfind("shards[0].rebuilt:", 0), 0u) << error;
    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"shards\": [{}, {}], \"dispatch_ms\": 0}", spec, error));
    EXPECT_EQ(error.rfind("dispatch_ms:", 0), 0u) << error;
}

/** A valid mission: one bare shard, closed loop, drawn faults. */
ScenarioSpec
missionSpec()
{
    ScenarioSpec spec;
    spec.dispatch_ms = 0.0;
    spec.client = "closed";
    spec.rebuild_stripes = 1300;
    spec.mission_ms = 30000.0;
    spec.fault_seed = 0xfedcba9876543210ULL;
    spec.disk_mttf_ms = 150000.0;
    spec.latent_mtbe_ms = 2500.0;
    spec.scrub_interval_ms = 20.0;
    return spec;
}

TEST(ScenarioSpec, MissionFieldsRoundTripAndHideAtDefaults)
{
    // At their defaults the six fields are absent from the text, so
    // every spec written before they existed keeps its exact form.
    ScenarioSpec plain;
    std::string error;
    ASSERT_TRUE(plain.normalize(error)) << error;
    for (const char *field :
         {"rebuild_stripes", "mission_ms", "fault_seed", "disk_mttf_ms",
          "latent_mtbe_ms", "scrub_interval_ms"}) {
        EXPECT_EQ(plain.describe().find(field), std::string::npos)
            << field;
    }

    ScenarioSpec spec = missionSpec();
    ASSERT_TRUE(spec.normalize(error)) << error;
    const std::string text = spec.describe();
    for (const char *field :
         {"\"rebuild_stripes\":1300", "\"mission_ms\":30000",
          "\"disk_mttf_ms\":150000", "\"latent_mtbe_ms\":2500",
          "\"scrub_interval_ms\":20", "\"fault_seed\":"}) {
        EXPECT_NE(text.find(field), std::string::npos)
            << field << " in " << text;
    }
    ScenarioSpec back;
    ASSERT_TRUE(ScenarioSpec::parse(text, back, error)) << error;
    EXPECT_EQ(spec, back);
    // A seed above 2^63 survives its signed JSON spelling.
    EXPECT_EQ(back.fault_seed, 0xfedcba9876543210ULL);
    ScenarioSpec from_doc;
    ASSERT_TRUE(
        ScenarioSpec::parse(spec.toJson().dump(2), from_doc, error))
        << error;
    EXPECT_EQ(spec, from_doc);

    // rebuild_stripes also bounds scripted rebuilds: no mission needed.
    ScenarioSpec scripted;
    scripted.faults = {{40.0, 0, 2}};
    scripted.rebuild_stripes = 130;
    ASSERT_TRUE(scripted.normalize(error)) << error;
    ASSERT_TRUE(ScenarioSpec::parse(scripted.describe(), back, error))
        << error;
    EXPECT_EQ(scripted, back);
}

TEST(ScenarioSpec, MissionErrorsAnchorTheField)
{
    std::string error;
    auto rejects = [&](ScenarioSpec spec, const char *anchor) {
        EXPECT_FALSE(spec.normalize(error)) << anchor;
        EXPECT_EQ(error.rfind(anchor, 0), 0u) << error;
    };

    ScenarioSpec two_shards = missionSpec();
    two_shards.dispatch_ms = 2.0;
    two_shards.shards.push_back(ScenarioShard{});
    rejects(two_shards, "mission_ms:");

    ScenarioSpec fabric = missionSpec();
    fabric.dispatch_ms = 2.0;
    rejects(fabric, "mission_ms:");

    ScenarioSpec open = missionSpec();
    open.client = "open";
    rejects(open, "mission_ms:");

    ScenarioSpec degraded = missionSpec();
    degraded.shards.front().failed_disk = 0;
    rejects(degraded, "mission_ms:");

    ScenarioSpec negative = missionSpec();
    negative.mission_ms = -1.0;
    rejects(negative, "mission_ms:");

    ScenarioSpec mttf = missionSpec();
    mttf.disk_mttf_ms = -1.0;
    rejects(mttf, "disk_mttf_ms:");

    ScenarioSpec mtbe = missionSpec();
    mtbe.latent_mtbe_ms = -1.0;
    rejects(mtbe, "latent_mtbe_ms:");

    ScenarioSpec scrub = missionSpec();
    scrub.scrub_interval_ms = -1.0;
    rejects(scrub, "scrub_interval_ms:");

    ScenarioSpec stripes = missionSpec();
    stripes.rebuild_stripes = -1;
    rejects(stripes, "rebuild_stripes:");

    // Draw fields mean nothing without a mission.
    ScenarioSpec no_mission = missionSpec();
    no_mission.mission_ms = 0.0;
    rejects(no_mission, "fault_seed:");
    no_mission.fault_seed = 0;
    rejects(no_mission, "disk_mttf_ms:");
    no_mission.disk_mttf_ms = 0.0;
    rejects(no_mission, "latent_mtbe_ms:");
    no_mission.latent_mtbe_ms = 0.0;
    rejects(no_mission, "scrub_interval_ms:");
    no_mission.scrub_interval_ms = 0.0;
    EXPECT_TRUE(no_mission.normalize(error)) << error;

    // The same anchors come back through the JSON loader.
    ScenarioSpec spec;
    EXPECT_FALSE(ScenarioSpec::parse(
        "{\"mission_ms\": 1000, \"client\": \"closed\"}", spec,
        error));
    EXPECT_EQ(error.rfind("mission_ms:", 0), 0u) << error;
    EXPECT_FALSE(ScenarioSpec::parse("{\"disk_mttf_ms\": \"x\"}", spec,
                                     error));
    EXPECT_EQ(error.rfind("disk_mttf_ms:", 0), 0u) << error;
}

TEST(ScenarioSpec, IntegerFieldsRejectWhatTheirTypeCannotHold)
{
    // Each once ran a different scenario than the text asked for:
    // 4294967309 disks ran 13, 2.7 chunk units ran 2, and 1e300
    // samples was an out-of-range double -> int64 cast.
    const struct
    {
        const char *json;
        const char *field;
    } cases[] = {
        {"{\"shards\": [{\"disks\": 4294967309}]}", "shards[0].disks"},
        {"{\"shards\": [{\"failed_disk\": 4294967296}]}",
         "shards[0].failed_disk"},
        {"{\"clients\": 4294967304}", "clients"},
        {"{\"chunk_units\": 2.7}", "chunk_units"},
        {"{\"chunk_units\": 8.5}", "chunk_units"},
        {"{\"rebuild_parallel\": -4294967292}", "rebuild_parallel"},
        {"{\"samples\": 1e300}", "samples"},
        {"{\"warmup\": -1e300}", "warmup"},
        {"{\"sstf_window\": 2147483648}", "sstf_window"},
        {"{\"mix\": [{\"kb\": 4294967304}]}", "mix[0].kb"},
        {"{\"cache\": {\"ways\": 0.5}}", "cache.ways"},
        {"{\"faults\": [{\"disk\": 4294967298}]}", "faults[0].disk"},
        {"{\"fault_seed\": 1.5}", "fault_seed"},
        {"{\"fault_seed\": 1e19}", "fault_seed"},
        {"{\"offsets\": \"zipf:nan\"}", "offsets"},
        {"{\"offsets\": \"hot:nan,0.5\"}", "offsets"},
        {"{\"arrival\": \"mmpp:nan,1,1\"}", "arrival"},
        {"{\"placement\": \"shuffle:-1\"}", "placement"},
        {"{\"placement\": \"shuffle:18446744073709551616\"}",
         "placement"},
        {"{\"shards\": [{\"layout\": \"pddl:width=4294967300\"}]}",
         "shards[0].layout"},
        {"{\"shards\": [{\"device\": \"hdd:rpm=nan\"}]}",
         "shards[0].device"},
        {"{\"shards\": [{\"device\": \"hdd:cylinders=3000000000\"}]}",
         "shards[0].device"},
        // Integer literals past int64 fail in the JSON lexer, anchored
        // at the literal: both seeds once clamped to 2^63 - 1 and drew
        // the same timeline.
        {"{\"fault_seed\": 18446744073709551615}", "line 1, column 16"},
        {"{\"fault_seed\": 12345678901234567890}", "line 1, column 16"},
        {"{\"samples\": -9223372036854775809}", "line 1, column 13"},
        {"{\"think_ms\": 1e999}", "line 1, column 14"},
    };
    for (const auto &c : cases) {
        ScenarioSpec spec;
        std::string error;
        EXPECT_FALSE(ScenarioSpec::parse(c.json, spec, error))
            << c.json << " parsed as " << spec.describe();
        EXPECT_NE(error.find(c.field), std::string::npos)
            << c.json << ": " << error;
    }

    // The signed-64 spelling describe() writes for a seed >= 2^63
    // still reads back to the same bits, and whole doubles still fit.
    ScenarioSpec mission = missionSpec();
    mission.fault_seed = ~uint64_t{0};
    std::string error;
    ASSERT_TRUE(mission.normalize(error)) << error;
    const std::string text = mission.describe();
    EXPECT_NE(text.find("\"fault_seed\":-1"), std::string::npos) << text;
    ScenarioSpec back;
    ASSERT_TRUE(ScenarioSpec::parse(text, back, error)) << error;
    EXPECT_EQ(back.fault_seed, ~uint64_t{0});
    EXPECT_EQ(back.describe(), text);
    ASSERT_TRUE(ScenarioSpec::parse(
        "{\"samples\": 3e3, \"chunk_units\": 16.0}", back, error))
        << error;
    EXPECT_EQ(back.samples, 3000);
    EXPECT_EQ(back.chunk_units, 16);
}

using Leaves = std::vector<std::pair<std::string, std::string>>;

/** Every leaf of a JSON document as (key path, dumped value), in
 *  document order: ("shards[0].disks", "13"), ("cache.kb", ...). */
void
leaves(const Json &node, const std::string &path, Leaves &out)
{
    if (node.isObject()) {
        for (const auto &[key, value] : node.members())
            leaves(value, path.empty() ? key : path + "." + key, out);
    } else if (node.isArray()) {
        for (size_t i = 0; i < node.size(); ++i)
            leaves(node.at(i), path + "[" + std::to_string(i) + "]", out);
    } else {
        out.emplace_back(path, node.dump(0));
    }
}

/** The dumped value at a key path; empty when the path is absent. */
std::string
valueAt(const Json &doc, const std::string &path)
{
    Leaves all;
    leaves(doc, "", all);
    for (const auto &[at, value] : all) {
        if (at == path)
            return value;
    }
    return "";
}

TEST(ScenarioSpec, EveryFieldRoundTripsAndEveryRangeErrorIsPinned)
{
    // Every field off its default: describe() then writes every key,
    // so a field added later shows up here without naming it.
    ScenarioSpec every = missionSpec();
    every.shards = {ScenarioShard{"raid5", "ssd", 5, "fast", 0, true}};
    every.allocation = "tiered";
    every.placement = "rotate";
    every.chunk_units = 16;
    every.unit_sectors = 32;
    every.sstf_window = 8;
    every.arrivals_per_s = 50.0;
    every.clients = 4;
    every.think_ms = 1.0;
    every.offsets = "zipf:0.5";
    every.arrival = "mmpp";
    every.mix = {{16, true, 2.0}};
    every.samples = 100;
    every.warmup = 10;
    every.ci_tolerance = 0.1;
    every.min_samples = 50;
    every.cache_enabled = true;
    every.cache_kb = 1024;
    every.cache_ways = 4;
    every.cache_high = 0.75;
    every.cache_low = 0.1;
    every.cache_hit_ms = 0.1;
    every.cache_run_units = 16;
    every.cache_width = 2;
    every.faults = {{5.0, 0, 1}};
    every.rebuild_parallel = 2;
    Leaves every_leaf;
    leaves(every.toJson(), "", every_leaf);
    std::vector<std::string> paths;
    for (const auto &leaf : every_leaf)
        paths.push_back(leaf.first);
    EXPECT_EQ(paths.size(), 43u);

    // One in-range, non-default value per key (with the companion
    // fields a cross-field rule asks for).
    const std::string mission =
        "\"dispatch_ms\": 0, \"client\": \"closed\", \"mission_ms\": 1000";
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"shards[0].layout",
         R"({"shards": [{"layout": "raid5", "disks": 5}]})"},
        {"shards[0].device", R"({"shards": [{"device": "ssd"}]})"},
        {"shards[0].disks", R"({"shards": [{"disks": 17}]})"},
        {"shards[0].tier", R"({"shards": [{"tier": "fast"}]})"},
        {"shards[0].failed_disk", R"({"shards": [{"failed_disk": 3}]})"},
        {"shards[0].rebuilt",
         R"({"shards": [{"failed_disk": 3, "rebuilt": true}]})"},
        {"allocation", R"({"allocation": "tiered"})"},
        {"placement", R"({"placement": "rotate"})"},
        {"chunk_units", R"({"chunk_units": 16})"},
        {"dispatch_ms", R"({"dispatch_ms": 0.5})"},
        {"unit_sectors", R"({"unit_sectors": 32})"},
        {"sstf_window", R"({"sstf_window": 8})"},
        {"client", R"({"client": "closed"})"},
        {"arrivals_per_s", R"({"arrivals_per_s": 250.5})"},
        {"clients", R"({"clients": 3})"},
        {"think_ms", R"({"think_ms": 1.5})"},
        {"offsets", R"({"offsets": "zipf:0.5"})"},
        {"arrival", R"({"arrival": "mmpp"})"},
        {"mix[0].kb", R"({"mix": [{"kb": 64}]})"},
        {"mix[0].op", R"({"mix": [{"op": "write"}]})"},
        {"mix[0].weight", R"({"mix": [{"weight": 2.5}]})"},
        {"samples", R"({"samples": 500})"},
        {"warmup", R"({"warmup": 20})"},
        {"ci_tolerance",
         R"({"client": "closed", "ci_tolerance": 0.05, "min_samples": 10})"},
        {"min_samples", R"({"min_samples": 10})"},
        {"cache.enabled", R"({"cache": {"enabled": true}})"},
        {"cache.kb", R"({"cache": {"kb": 1024}})"},
        {"cache.ways", R"({"cache": {"ways": 4}})"},
        {"cache.high", R"({"cache": {"high": 0.75}})"},
        {"cache.low", R"({"cache": {"low": 0.1}})"},
        {"cache.hit_ms", R"({"cache": {"hit_ms": 0.1}})"},
        {"cache.run_units", R"({"cache": {"run_units": 16}})"},
        {"cache.width", R"({"cache": {"width": 2}})"},
        {"faults[0].when_ms", R"({"faults": [{"when_ms": 5}]})"},
        {"faults[0].shard",
         R"({"shards": [{}, {}], "faults": [{"shard": 1}]})"},
        {"faults[0].disk", R"({"faults": [{"disk": 4}]})"},
        {"rebuild_parallel", R"({"rebuild_parallel": 2})"},
        {"rebuild_stripes", R"({"rebuild_stripes": 100})"},
        {"mission_ms", "{" + mission + "}"},
        {"fault_seed", "{" + mission + R"(, "fault_seed": 7})"},
        {"disk_mttf_ms", "{" + mission + R"(, "disk_mttf_ms": 5e4})"},
        {"latent_mtbe_ms", "{" + mission + R"(, "latent_mtbe_ms": 2500})"},
        {"scrub_interval_ms",
         "{" + mission + R"(, "scrub_interval_ms": 20})"},
    };
    std::vector<std::string> covered;
    for (const auto &c : cases)
        covered.push_back(c.first);
    EXPECT_EQ(covered, paths);

    // Defaults to compare against, with one default item per list.
    ScenarioSpec defaults;
    defaults.mix = {ScenarioMix{}};
    defaults.faults = {ScenarioFault{}};
    const Json reference = defaults.toJson();
    for (const auto &[path, text] : cases) {
        ScenarioSpec spec;
        std::string error;
        ASSERT_TRUE(ScenarioSpec::parse(text, spec, error))
            << path << ": " << error;
        EXPECT_NE(valueAt(spec.toJson(), path), "") << path;
        EXPECT_NE(valueAt(spec.toJson(), path), valueAt(reference, path))
            << path;
        ScenarioSpec back;
        ASSERT_TRUE(ScenarioSpec::parse(spec.describe(), back, error))
            << path << ": " << error;
        EXPECT_EQ(spec, back) << path;
        EXPECT_EQ(spec.describe(), back.describe()) << path;
    }

    // Every single-field rule, out of range, with its exact text.
    const struct
    {
        const char *json;
        const char *error;
    } rejected[] = {
        {R"({"shards": []})", "shards: at least one shard is required"},
        {R"({"shards": [{"disks": 1}]})",
         "shards[0].disks: need at least 2 drives"},
        {R"({"allocation": "mirrored"})",
         "allocation: expected \"striped\" or \"tiered\""},
        {R"({"chunk_units": 0})", "chunk_units: must be >= 1"},
        {R"({"unit_sectors": 15})",
         "unit_sectors: must be even and >= 2 (whole KB stripe units)"},
        {R"({"unit_sectors": 0})",
         "unit_sectors: must be even and >= 2 (whole KB stripe units)"},
        {R"({"sstf_window": 0})", "sstf_window: must be >= 1"},
        {R"({"client": "batch"})",
         "client: expected \"open\" or \"closed\""},
        {R"({"arrivals_per_s": 0})", "arrivals_per_s: must be > 0"},
        {R"({"clients": 0})", "clients: must be >= 1"},
        {R"({"think_ms": -1})", "think_ms: must be >= 0"},
        {R"({"mix": [{"kb": 0}]})", "mix[0].kb: must be >= 1"},
        {R"({"mix": [{}, {"op": "erase"}]})",
         "mix[1].op: expected \"read\" or \"write\""},
        {R"({"mix": [{"op": true}]})",
         "mix[0].op: expected \"read\" or \"write\""},
        {R"({"mix": [{"weight": 0}]})", "mix[0].weight: must be > 0"},
        {R"({"samples": 0})", "samples: must be >= 1"},
        {R"({"warmup": -1})", "warmup: must be >= 0"},
        {R"({"ci_tolerance": -0.5})", "ci_tolerance: must be >= 0"},
        {R"({"cache": {"enabled": true, "kb": 0}})",
         "cache.kb: must be >= 1"},
        {R"({"cache": {"enabled": true, "ways": 0}})",
         "cache.ways: must be >= 1"},
        {R"({"cache": {"enabled": true, "hit_ms": -1}})",
         "cache.hit_ms: must be >= 0"},
        {R"({"cache": {"enabled": true, "run_units": 0}})",
         "cache.run_units: must be >= 1"},
        {R"({"cache": {"enabled": true, "width": 0}})",
         "cache.width: must be >= 1"},
        {R"({"faults": [{"when_ms": -1}]})",
         "faults[0].when_ms: must be >= 0"},
        {R"({"rebuild_parallel": 0})", "rebuild_parallel: must be >= 1"},
        {R"({"rebuild_stripes": -1})", "rebuild_stripes: must be >= 0"},
        {R"({"mission_ms": -1})", "mission_ms: must be >= 0"},
        {R"({"disk_mttf_ms": -1})", "disk_mttf_ms: must be >= 0"},
        {R"({"latent_mtbe_ms": -1})", "latent_mtbe_ms: must be >= 0"},
        {R"({"scrub_interval_ms": -1})",
         "scrub_interval_ms: must be >= 0"},
    };
    for (const auto &c : rejected) {
        ScenarioSpec spec;
        std::string error;
        EXPECT_FALSE(ScenarioSpec::parse(c.json, spec, error)) << c.json;
        EXPECT_EQ(error, c.error) << c.json;
    }

    // The cache group's rules apply only while it is enabled.
    ScenarioSpec idle;
    std::string error;
    EXPECT_TRUE(ScenarioSpec::parse(
        R"({"cache": {"enabled": false, "kb": 0, "ways": 0}})", idle,
        error))
        << error;
}

TEST(ScenarioSpec, ScriptedFaultOnAFailedShardIsRejected)
{
    // runScenario's fault lifecycle starts from a healthy array; this
    // spec once aborted there instead of failing here.
    const char *text =
        R"({"shards": [{"layout": "pddl:width=4", "device": "hp2247",)"
        R"( "failed_disk": 3}, {"layout": "pddl:width=4",)"
        R"( "device": "hp2247"}], "client": "open", "dispatch_ms": 2,)"
        R"( "faults": [{"when_ms": 5, "shard": 0, "disk": 2}]})";
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(ScenarioSpec::parse(text, spec, error));
    EXPECT_EQ(error, "faults[0].shard: shard 0 starts with failed_disk 3; "
                     "scripted faults need a healthy shard");

    // A rebuilt shard starts with its disk failed too.
    ScenarioSpec rebuilt = paperSpec();
    rebuilt.faults = {{40.0, 0, 2}};
    EXPECT_FALSE(rebuilt.normalize(error));
    EXPECT_EQ(error.rfind("faults[0].shard: shard 0 starts with "
                          "failed_disk 0", 0),
              0u)
        << error;

    // Faults on the healthy shard of the same volume are fine.
    ScenarioSpec mixed = ScenarioSpec::parseOrThrow(
        R"({"shards": [{"failed_disk": 3}, {}],)"
        R"( "faults": [{"when_ms": 5, "shard": 1, "disk": 2}]})");
    EXPECT_EQ(mixed.faults.size(), 1u);
}

TEST(ScenarioSpec, SpecStringsTheRepoWritesKeepTheirCanonicalText)
{
    // Every spec string the benches, examples, tuner moves and
    // bench/perf workloads write, with the canonical text normalize()
    // gives it. Tuner winners and the perf digests hash these bytes.
    const struct
    {
        const char *text;
        const char *canonical;
    } layouts_table[] = {
        {"pddl:width=4", "pddl:width=4"},
        {"pddl", "pddl:width=4"},
        {"raid5", "raid5"},
        {"wrapped:width=4", "wrapped:width=4"},
        {"parity:width=2", "parity:width=2"},
        {"parity:width=4", "parity:width=4"},
        {"prime:width=2", "prime:width=2"},
        {"prime:width=4", "prime:width=4"},
        {"mirror:copies=2", "mirror:copies=2,sched=round_robin"},
        {"mirror:copies=2,sched=round_robin",
         "mirror:copies=2,sched=round_robin"},
        {"mirror:copies=2,sched=shortest_queue",
         "mirror:copies=2,sched=shortest_queue"},
        {"draid:width=4,spares=1,rows=64,seed=7",
         "draid:width=4,spares=1,rows=64,seed=7"},
        {"draid:width=2,spares=0,rows=16,seed=1048575",
         "draid:width=2,spares=0,rows=16,seed=1048575"},
        {"draid", "draid:width=4,spares=1,rows=64,seed=1"},
        {"tdesign", "tdesign"},
        {"datum:width=4,check=1", "datum:width=4,check=1"},
    };
    for (const auto &c : layouts_table) {
        layouts::ParsedLayoutSpec spec;
        std::string error;
        ASSERT_TRUE(layouts::parseLayoutSpec(c.text, spec, error))
            << c.text << ": " << error;
        EXPECT_EQ(spec.canonical(), c.canonical);
    }

    const struct
    {
        const char *text;
        const char *canonical;
    } devices[] = {
        {"hp2247", "hp2247"},
        {"ssd", "ssd:read_us=1.2e+02,write_us=3.6e+02,sector_us=0.5,"
                "sectors=524288,cost=3.25"},
        {"hdd", "hdd:rpm=7.2e+03,cylinders=1981,heads=8,spt=256,"
                "min_seek_ms=1.2,avg_seek_ms=8,head_switch_ms=0.5,cost=1"},
        {"hdd:rpm=5400,cylinders=1981,heads=13",
         "hdd:rpm=5.4e+03,cylinders=1981,heads=13,spt=256,"
         "min_seek_ms=1.2,avg_seek_ms=8,head_switch_ms=0.5,cost=1"},
        {"ssd:read_us=100,sectors=1048576",
         "ssd:read_us=1e+02,write_us=3.6e+02,sector_us=0.5,"
         "sectors=1048576,cost=3.25"},
    };
    for (const auto &c : devices)
        EXPECT_EQ(device::makeDevice(c.text)->describe(), c.canonical);

    for (const char *text : {"uniform", "zipf:0.99", "zipf:0.5",
                             "hot:0.02,0.9", "hot:0.0005,0.95"}) {
        traffic::OffsetSpec spec;
        std::string error;
        ASSERT_TRUE(traffic::parseOffsetSpec(text, spec, error)) << text;
        EXPECT_EQ(traffic::offsetSpecName(spec), text);
    }

    const struct
    {
        const char *text;
        const char *canonical;
    } arrivals[] = {
        {"poisson", "poisson"},
        {"diurnal", "diurnal:0.25,1,2.5,1@1000"},
        {"diurnal:0.25,1,2.5,1@500", "diurnal:0.25,1,2.5,1@500"},
        {"mmpp", "mmpp:8,2000,400"},
        {"mmpp:4,1200,400", "mmpp:4,1200,400"},
        {"mmpp:6,1500,500", "mmpp:6,1500,500"},
    };
    for (const auto &c : arrivals) {
        traffic::ArrivalSpec spec;
        std::string error;
        ASSERT_TRUE(traffic::parseArrivalSpec(c.text, spec, error))
            << c.text;
        EXPECT_EQ(traffic::arrivalSpecString(spec), c.canonical);
    }

    const struct
    {
        const char *text;
        const char *canonical;
    } placements[] = {
        {"static", "static"},
        {"rotate", "rotate"},
        {"shuffle", "shuffle:11400714819323198485"},
        {"shuffle:42", "shuffle:42"},
        {"shuffle:1073741823", "shuffle:1073741823"},
    };
    for (const auto &c : placements) {
        ScenarioSpec spec;
        spec.placement = c.text;
        std::string error;
        ASSERT_TRUE(spec.normalize(error)) << c.text << ": " << error;
        EXPECT_EQ(spec.placement, c.canonical);
    }
}

TEST(ScenarioSpec, LoadScenarioAcceptsInlineJson)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(loadScenario("{\"chunk_units\": 16}", spec, error))
        << error;
    EXPECT_EQ(spec.chunk_units, 16);

    // A missing file is reported with its path.
    EXPECT_FALSE(
        loadScenario("/nonexistent/scenario.json", spec, error));
    EXPECT_NE(error.find("/nonexistent/scenario.json"),
              std::string::npos)
        << error;
}

} // namespace
} // namespace pddl
