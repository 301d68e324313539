/**
 * @file
 * What a scenario's backend holds, in stripe units: the rules the
 * volume allocates with and compileScenario() checks against.
 * (A bare array holds layout/layout.hh's arrayDataUnits().)
 *
 * A volume allocates like Thomasian and Xu's virtual arrays: shards
 * group by tier label (all shards in one group when striped), and each
 * member holds its group's least capacity floored to whole chunks, so
 * every member holds one chunk per group period.
 */

#ifndef PDDL_CORE_VOLUME_CAPACITY_HH
#define PDDL_CORE_VOLUME_CAPACITY_HH

#include <algorithm>
#include <cstdint>
#include <string_view>

namespace pddl {

/** Most shards one volume routes over (stack permutation buffers). */
inline constexpr int kMaxVolumeShards = 256;

/** KB -> stripe units of `unit_sectors` sectors, at least one. */
inline int64_t
unitsForKb(int64_t kb, int unit_sectors)
{
    return std::max<int64_t>(kb * 2 / unit_sectors, 1);
}

/** A shard's tier label, else "fast" on an ssd and "bulk" otherwise;
 *  `device_kind` is DeviceModel::kind(), its spec's family. */
inline std::string_view
allocationTier(std::string_view tier, std::string_view device_kind)
{
    if (!tier.empty())
        return tier;
    return device_kind == "ssd" ? "fast" : "bulk";
}

/** Units shard `s` holds: the least `units(i)` over its group (`tier(i)`
 *  equal to shard s's when `tiered`), floored to whole chunks. */
template <typename Units, typename Tier>
int64_t
leveledShardUnits(int shards, int s, bool tiered, int64_t chunk_units,
                  const Units &units, const Tier &tier)
{
    int64_t least = units(s);
    for (int i = 0; i < shards; ++i) {
        if (!tiered || tier(i) == tier(s))
            least = std::min(least, units(i));
    }
    return least - least % chunk_units;
}

/** Units a volume holds: leveledShardUnits() over every shard. */
template <typename Units, typename Tier>
int64_t
volumeDataUnits(int shards, bool tiered, int64_t chunk_units,
                const Units &units, const Tier &tier)
{
    int64_t total = 0;
    for (int s = 0; s < shards; ++s)
        total += leveledShardUnits(shards, s, tiered, chunk_units, units, tier);
    return total;
}

} // namespace pddl

#endif // PDDL_CORE_VOLUME_CAPACITY_HH
