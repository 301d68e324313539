/**
 * @file
 * Pluggable chunk-placement policies for the volume router.
 *
 * The VolumeManager stripes its address space over S shards in
 * chunks. Placement decides which shard serves each chunk -- but to
 * keep the routing a bijection (every volume address has exactly one
 * (shard, local unit) home and round-trips), a policy is not an
 * arbitrary chunk -> shard map: it is a *permutation development*,
 * exactly the trick the paper plays one level down. Chunks arrive in
 * periods of S; for period p the policy emits a permutation of
 * [0, S), and chunk p*S + i goes to shard perm_p[i]. Every shard
 * receives exactly one chunk per period, so the local chunk index is
 * simply p and the inverse route is a permutation lookup.
 *
 * Policies differ in how the permutation develops with p: static
 * round-robin (identity), rotation (spreads chunk-index hotspots),
 * or a seeded shuffle (decorrelates placement from any client stride
 * while staying fully deterministic).
 */

#ifndef PDDL_VOLUME_PLACEMENT_HH
#define PDDL_VOLUME_PLACEMENT_HH

#include <cstdint>

namespace pddl {

/** Develops one shard permutation per chunk period. */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy();

    /**
     * Write a permutation of [0, shards) into perm[0..shards) for
     * chunk period `period`. Must be a pure function of (period,
     * shards) -- the router calls it on both the forward and the
     * inverse path and relies on identical answers.
     */
    virtual void permutation(int64_t period, int shards,
                             int *perm) const = 0;
};

/** Round-robin striping: chunk c always lands on shard c mod S. */
class StaticPlacement final : public PlacementPolicy
{
  public:
    void permutation(int64_t period, int shards,
                     int *perm) const override;
};

/**
 * Rotated striping: the identity permutation shifted by the period,
 * so a client stride of S chunks still visits every shard.
 */
class RotatedPlacement final : public PlacementPolicy
{
  public:
    void permutation(int64_t period, int shards,
                     int *perm) const override;
};

/** Seeded Fisher-Yates shuffle per period (deterministic per seed). */
class ShuffledPlacement final : public PlacementPolicy
{
  public:
    explicit ShuffledPlacement(uint64_t seed = 0x9e3779b97f4a7c15ull)
        : seed_(seed)
    {
    }

    void permutation(int64_t period, int shards,
                     int *perm) const override;

  private:
    uint64_t seed_;
};

/** The default policy instance (round-robin striping). */
const PlacementPolicy &staticPlacement();

} // namespace pddl

#endif // PDDL_VOLUME_PLACEMENT_HH
