#include "core/layout_spec.hh"

#include <stdexcept>

#include "core/pddl_layout.hh"
#include "core/wrapped_layout.hh"
#include "layout/datum.hh"
#include "layout/developed_random.hh"
#include "layout/mirror.hh"
#include "layout/parity_decluster.hh"
#include "layout/prime.hh"
#include "layout/raid5.hh"
#include "layout/tdesign.hh"
#include "util/spec_text.hh"

namespace pddl {
namespace layouts {

namespace {

struct SchedName
{
    ReplicaSched sched;
    const char *name;
};

constexpr SchedName kSchedNames[] = {
    {ReplicaSched::Primary, "primary"},
    {ReplicaSched::RoundRobin, "round_robin"},
    {ReplicaSched::ShortestQueue, "shortest_queue"},
};

const char *
schedName(ReplicaSched sched)
{
    for (const SchedName &entry : kSchedNames) {
        if (entry.sched == sched)
            return entry.name;
    }
    return "?";
}

} // namespace

std::string
ParsedLayoutSpec::canonical() const
{
    if (family == "raid5")
        return "raid5";
    if (family == "datum") {
        return "datum:width=" + std::to_string(width) +
               ",check=" + std::to_string(check);
    }
    if (family == "mirror") {
        return "mirror:copies=" + std::to_string(copies) +
               ",sched=" + schedName(sched);
    }
    if (family == "draid") {
        return "draid:width=" + std::to_string(width) +
               ",spares=" + std::to_string(spares) +
               ",rows=" + std::to_string(rows) +
               ",seed=" + std::to_string(seed);
    }
    if (family == "tdesign")
        return "tdesign";
    // pddl / wrapped / parity / prime: the width is the only knob.
    return family + ":width=" + std::to_string(width);
}

bool
parseLayoutSpec(const std::string &text, ParsedLayoutSpec &spec,
                std::string &error)
{
    std::string_view family, body;
    spec_text::splitFamily(text, family, body);
    spec_text::KeyValues params;
    ParsedLayoutSpec parsed;
    parsed.family = std::string(family);
    if (family == "pddl" || family == "wrapped" || family == "parity" ||
        family == "prime") {
        if (!params.parse(body, family, {"width"}, error) ||
            !params.readInt("width", parsed.width, error, 2))
            return false;
    } else if (family == "datum") {
        if (!params.parse(body, family, {"width", "check"}, error) ||
            !params.readInt("width", parsed.width, error, 2) ||
            !params.readInt("check", parsed.check, error, 1))
            return false;
        if (parsed.check >= parsed.width) {
            error = "datum needs 1 <= check < width";
            return false;
        }
    } else if (family == "raid5" || family == "tdesign") {
        // No knobs: raid5's stripe spans all disks, and tdesign's
        // boolean SQS fixes the stripe width at its block size.
        if (!params.parse(body, family, {}, error))
            return false;
        if (family == "tdesign")
            parsed.width = 4;
    } else if (family == "mirror") {
        if (!params.parse(body, family, {"copies", "sched"}, error) ||
            !params.readInt("copies", parsed.copies, error, 2))
            return false;
        if (params.has("sched")) {
            const std::string_view sched = params.value("sched");
            const SchedName *match = nullptr;
            for (const SchedName &entry : kSchedNames) {
                if (sched == entry.name)
                    match = &entry;
            }
            if (match == nullptr) {
                error = "unknown sched '" + std::string(sched) +
                        "' (primary, round_robin, shortest_queue)";
                return false;
            }
            parsed.sched = match->sched;
        }
    } else if (family == "draid") {
        if (!params.parse(body, family,
                          {"width", "spares", "rows", "seed"}, error) ||
            !params.readInt("width", parsed.width, error, 2) ||
            !params.readInt("spares", parsed.spares, error, 0) ||
            !params.readInt("rows", parsed.rows, error, 1) ||
            !params.readInt("seed", parsed.seed, error))
            return false;
    } else {
        error = "unknown layout family '" + parsed.family +
                "' (registered: pddl, wrapped, raid5, datum, parity, "
                "prime, mirror, draid, tdesign)";
        return false;
    }
    spec = parsed;
    return true;
}

std::unique_ptr<Layout>
buildLayout(const ParsedLayoutSpec &spec, int disks)
{
    auto fail = [&](const std::string &why) -> std::unique_ptr<Layout> {
        throw std::runtime_error("cannot build '" + spec.canonical() +
                                 "' over " + std::to_string(disks) +
                                 " disks: " + why);
    };
    if (spec.family != "raid5" && spec.family != "mirror" &&
        spec.width > disks) {
        return fail("stripe width exceeds the disk count");
    }
    if (spec.family == "pddl")
        return std::make_unique<PddlLayout>(
            PddlLayout::make(disks, spec.width));
    if (spec.family == "wrapped") {
        if ((disks - 2) % spec.width != 0)
            return fail("wrapped needs disks = g * width + 2");
        return std::make_unique<WrappedLayout>(
            WrappedLayout::make(disks, spec.width));
    }
    if (spec.family == "raid5")
        return std::make_unique<Raid5Layout>(disks);
    if (spec.family == "datum")
        return std::make_unique<DatumLayout>(disks, spec.width,
                                             spec.check);
    if (spec.family == "parity")
        return std::make_unique<ParityDeclusterLayout>(
            ParityDeclusterLayout::make(disks, spec.width));
    if (spec.family == "prime") {
        if (disks < spec.width + 1)
            return fail("prime needs disks > width");
        return std::make_unique<PrimeLayout>(disks, spec.width);
    }
    if (spec.family == "mirror") {
        if (disks < spec.copies || disks % spec.copies != 0)
            return fail("disk count must be a multiple of copies");
        return std::make_unique<MirrorLayout>(disks, spec.copies,
                                              spec.sched);
    }
    if (spec.family == "draid") {
        if (spec.spares > disks - spec.width)
            return fail("spares leave less than one stripe group");
        if ((disks - spec.spares) % spec.width != 0)
            return fail("width must divide disks - spares");
        return std::make_unique<DevelopedRandomLayout>(
            disks, spec.width, spec.spares, spec.rows, spec.seed);
    }
    if (spec.family == "tdesign") {
        if (disks < 8 || (disks & (disks - 1)) != 0)
            return fail("tdesign needs a power-of-two disk count "
                        ">= 8");
        return std::make_unique<TDesignLayout>(disks);
    }
    return fail("family outside the registry");
}

std::unique_ptr<Layout>
makeLayout(const std::string &spec, int disks)
{
    ParsedLayoutSpec parsed;
    std::string error;
    if (!parseLayoutSpec(spec, parsed, error))
        throw std::runtime_error("bad layout spec '" + spec +
                                 "': " + error);
    return buildLayout(parsed, disks);
}

const std::vector<std::string> &
layoutSpecNames()
{
    static const std::vector<std::string> names = {
        "pddl:width=",
        "wrapped:width=",
        "raid5",
        "datum:width=,check=",
        "parity:width=",
        "prime:width=",
        "mirror:copies=,sched={primary,round_robin,shortest_queue}",
        "draid:width=,spares=,rows=,seed=",
        "tdesign",
    };
    return names;
}

} // namespace layouts
} // namespace pddl
