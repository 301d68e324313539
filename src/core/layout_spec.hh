/**
 * @file
 * Spec-string registry for layout construction.
 *
 * A layout spec is `family[:key=value,...]` -- the one-line form
 * benches, configs and the volume layer use to pick a layout family
 * without naming C++ types. Registered families:
 *
 *   pddl:width=<k>               permutation development (the paper)
 *   wrapped:width=<k>            PDDL over n-1 disks, DATUM-wrapped
 *                                over all n (paper section 5)
 *   raid5                        rotated-parity RAID-5 (width = n)
 *   datum:width=<k>,check=<c>    DATUM complete block design
 *   parity:width=<k>             Holland-Gibson BIBD declustering
 *   prime:width=<k>              PRIME declustering
 *   mirror:copies=<c>,sched=<s>  RAID-1/0; s in {primary,
 *                                round_robin, shortest_queue}
 *   draid:width=<k>,spares=<s>,rows=<r>,seed=<u>
 *                                dRAID-style developed random rows
 *                                (seeded permutations, distributed
 *                                spares)
 *   tdesign                      3-design declustering (boolean
 *                                Steiner quadruple system; width 4,
 *                                disks a power of two >= 8)
 *
 * Every key is optional. parseLayoutSpec() normalizes a spec into a
 * ParsedLayoutSpec whose canonical() string round-trips
 * (parse(canonical(p)) == p). The spec is a layout's one name: a
 * built Layout does not describe itself. The disk count is *not*
 * part of a spec: it stays a property of the shard (VolumeManager)
 * or bench grid.
 */

#ifndef PDDL_CORE_LAYOUT_SPEC_HH
#define PDDL_CORE_LAYOUT_SPEC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layout/layout.hh"

namespace pddl {
namespace layouts {

/** A layout spec, normalized. Fields beyond the family keep their
 *  defaults when the family does not use them. */
struct ParsedLayoutSpec
{
    std::string family = "pddl";
    int width = 4;  ///< stripe width k (all but raid5/mirror/tdesign)
    int check = 1;  ///< check units per stripe (datum)
    int copies = 2; ///< replicas per data unit (mirror)
    ReplicaSched sched = ReplicaSched::RoundRobin; ///< mirror reads
    int spares = 1;    ///< distributed spare slots per row (draid)
    int rows = 64;     ///< permutation rows per period (draid)
    uint64_t seed = 1; ///< row-permutation seed (draid)

    /** Canonical spec string; parse(canonical()) reproduces *this. */
    std::string canonical() const;

    bool operator==(const ParsedLayoutSpec &o) const = default;
};

/**
 * Parse and validate a layout spec. On failure returns false and
 * fills `error` with a message suitable for an ArgParser validator.
 */
bool parseLayoutSpec(const std::string &text, ParsedLayoutSpec &spec,
                     std::string &error);

/**
 * Construct the layout a spec describes over `disks` drives. Throws
 * std::runtime_error when the family cannot be built at this disk
 * count (e.g. mirror copies not dividing n).
 */
std::unique_ptr<Layout> buildLayout(const ParsedLayoutSpec &spec,
                                    int disks);

/** Parse-or-throw + build convenience. */
std::unique_ptr<Layout> makeLayout(const std::string &spec, int disks);

/** Registered spec grammars, one line each (--help listings). */
const std::vector<std::string> &layoutSpecNames();

} // namespace layouts
} // namespace pddl

#endif // PDDL_CORE_LAYOUT_SPEC_HH
