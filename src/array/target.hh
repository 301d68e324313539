/**
 * @file
 * Target: the one interface workloads drive.
 *
 * A Target is anything that maps a linear space of client data units
 * onto completions: a single simulated array (ArrayController) or a
 * sharded volume composed of many arrays (VolumeManager). Workload
 * drivers (src/workload) are written against this interface only, so
 * every client -- closed loop, open loop, trace replay -- runs
 * unchanged against one array or a whole volume.
 *
 * The statistics hooks exist because the drivers report seek
 * classifications and issue counts over their measurement window;
 * composite targets roll both up across their shards.
 */

#ifndef PDDL_ARRAY_TARGET_HH
#define PDDL_ARRAY_TARGET_HH

#include <cstdint>

#include "array/request_mapper.hh"
#include "disk/disk.hh"
#include "sim/callback.hh"

namespace pddl {

/** Anything a workload can address: maps data units to completions. */
class Target
{
  public:
    virtual ~Target();

    /** Client data units addressable on this target. */
    virtual int64_t dataUnits() const = 0;

    /**
     * Issue a logical access of `count` aligned data units starting
     * at `start_unit`. `done` fires when the last physical operation
     * of the access completes.
     */
    virtual void access(int64_t start_unit, int count, AccessType type,
                        InlineCallback done) = 0;

    /** Sum of all underlying disks' seek tallies. */
    virtual SeekTally aggregateTally() const = 0;

    /** Logical accesses issued so far (composite: across shards). */
    virtual uint64_t accessesIssued() const = 0;
};

} // namespace pddl

#endif // PDDL_ARRAY_TARGET_HH
