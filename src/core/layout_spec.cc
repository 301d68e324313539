#include "core/layout_spec.hh"

#include <cstdlib>
#include <map>
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

namespace pddl {
namespace layouts {

namespace {

const char *
schedName(ReplicaSched sched)
{
    switch (sched) {
      case ReplicaSched::Primary: return "primary";
      case ReplicaSched::RoundRobin: return "round_robin";
      case ReplicaSched::ShortestQueue: return "shortest_queue";
    }
    return "?";
}

bool
parseParams(const std::string &body,
            std::map<std::string, std::string> &params,
            std::string &error)
{
    size_t at = 0;
    while (at < body.size()) {
        size_t comma = body.find(',', at);
        if (comma == std::string::npos)
            comma = body.size();
        std::string pair = body.substr(at, comma - at);
        size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 >= pair.size()) {
            error = "expected key=value, got '" + pair + "'";
            return false;
        }
        params[pair.substr(0, eq)] = pair.substr(eq + 1);
        at = comma + 1;
    }
    return true;
}

bool
takeInt(std::map<std::string, std::string> &params, const char *key,
        int &out, std::string &error)
{
    auto it = params.find(key);
    if (it == params.end())
        return true;
    char *end = nullptr;
    long value = std::strtol(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') {
        error = std::string(key) + " is not an integer: '" +
                it->second + "'";
        return false;
    }
    out = static_cast<int>(value);
    params.erase(it);
    return true;
}

bool
takeUint64(std::map<std::string, std::string> &params,
           const char *key, uint64_t &out, std::string &error)
{
    auto it = params.find(key);
    if (it == params.end())
        return true;
    char *end = nullptr;
    unsigned long long value =
        std::strtoull(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') {
        error = std::string(key) + " is not an unsigned integer: '" +
                it->second + "'";
        return false;
    }
    out = static_cast<uint64_t>(value);
    params.erase(it);
    return true;
}

bool
rejectUnknown(const std::map<std::string, std::string> &params,
              const std::string &family, std::string &error)
{
    if (params.empty())
        return true;
    error = "unknown " + family + " parameter '" +
            params.begin()->first + "'";
    return false;
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
    std::string family = text;
    std::string body;
    size_t colon = text.find(':');
    if (colon != std::string::npos) {
        family = text.substr(0, colon);
        body = text.substr(colon + 1);
    }
    std::map<std::string, std::string> params;
    if (!parseParams(body, params, error))
        return false;

    ParsedLayoutSpec parsed;
    parsed.family = family;
    if (family == "pddl" || family == "wrapped" || family == "parity" ||
        family == "prime") {
        if (!takeInt(params, "width", parsed.width, error))
            return false;
    } else if (family == "datum") {
        if (!takeInt(params, "width", parsed.width, error) ||
            !takeInt(params, "check", parsed.check, error)) {
            return false;
        }
        if (parsed.check < 1 || parsed.check >= parsed.width) {
            error = "datum needs 1 <= check < width";
            return false;
        }
    } else if (family == "raid5") {
        // No knobs: the stripe spans all disks.
    } else if (family == "mirror") {
        if (!takeInt(params, "copies", parsed.copies, error))
            return false;
        if (parsed.copies < 2) {
            error = "mirror needs copies >= 2";
            return false;
        }
        auto it = params.find("sched");
        if (it != params.end()) {
            if (it->second == "primary") {
                parsed.sched = ReplicaSched::Primary;
            } else if (it->second == "round_robin") {
                parsed.sched = ReplicaSched::RoundRobin;
            } else if (it->second == "shortest_queue") {
                parsed.sched = ReplicaSched::ShortestQueue;
            } else {
                error = "unknown sched '" + it->second +
                        "' (primary, round_robin, shortest_queue)";
                return false;
            }
            params.erase(it);
        }
    } else if (family == "draid") {
        if (!takeInt(params, "width", parsed.width, error) ||
            !takeInt(params, "spares", parsed.spares, error) ||
            !takeInt(params, "rows", parsed.rows, error) ||
            !takeUint64(params, "seed", parsed.seed, error)) {
            return false;
        }
        if (parsed.spares < 0) {
            error = "draid needs spares >= 0";
            return false;
        }
        if (parsed.rows < 1) {
            error = "draid needs rows >= 1";
            return false;
        }
    } else if (family == "tdesign") {
        // No knobs: the boolean SQS fixes the stripe width at its
        // block size.
        parsed.width = 4;
    } else {
        error = "unknown layout family '" + family +
                "' (registered: pddl, wrapped, raid5, datum, parity, "
                "prime, mirror, draid, tdesign)";
        return false;
    }
    if (!rejectUnknown(params, family, error))
        return false;
    if (family != "raid5" && family != "mirror" &&
        (parsed.width < 2 || parsed.check >= parsed.width)) {
        error = "width must be >= 2 (and exceed check units)";
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

std::string
specOf(const Layout &layout)
{
    const LayoutInfo info = layout.describe();
    ParsedLayoutSpec spec;
    if (info.family == "parity_decluster")
        spec.family = "parity";
    else if (info.family == "pddl_wrapped")
        spec.family = "wrapped";
    else
        spec.family = info.family;
    spec.width = info.width;
    spec.check = info.check_units;
    if (spec.family == "mirror") {
        spec.copies = layout.mirrorCopies();
        spec.sched = layout.replicaSched();
    } else if (spec.family == "draid") {
        // Renders the seeded construction parameters; a searched
        // (explicit-map) layout is reproducible from its recorded
        // (seed, move count) instead, not from this spec.
        const auto &draid =
            static_cast<const DevelopedRandomLayout &>(layout);
        spec.spares = draid.spares();
        spec.rows = draid.rowCount();
        spec.seed = draid.seed();
    } else if (spec.family != "pddl" && spec.family != "wrapped" &&
               spec.family != "raid5" &&
               spec.family != "datum" && spec.family != "parity" &&
               spec.family != "prime" && spec.family != "tdesign") {
        throw std::runtime_error("layout family '" + spec.family +
                                 "' has no registered spec");
    }
    return spec.canonical();
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
