/**
 * @file
 * Offset distributions: where in the address space client accesses
 * land.
 *
 * The paper's clients draw start offsets uniformly; production
 * traffic is skewed -- a small set of hot blocks absorbs most of the
 * load, which is exactly what gives a cache tier something to do.
 * This module provides the pluggable distribution both workload
 * drivers sample from:
 *
 *  - Uniform: the paper's workload, byte-for-byte. The uniform
 *    sampler consumes exactly one Rng draw per sample and produces
 *    the identical value sequence the clients drew before this
 *    module existed, so every golden replay and BENCH file is
 *    unchanged by default.
 *  - Zipf: rank-frequency skew with exponent theta in (0, 1) (the
 *    YCSB convention; 0.99 is the classic "zipfian" workload),
 *    sampled with the Gray et al. closed-form generator -- one
 *    uniform draw per sample after a zeta precompute that is memoized
 *    per theta (zipfZeta): O(domain) once, with one pow() per 32
 *    terms past 2^16, then at most 4095 terms for each later sampler
 *    over a domain no larger.
 *    Ranks are scrambled across the address space with a stateless
 *    hash so the hot set is spread over the volume (and over its
 *    shards) instead of clustered at offset zero.
 *  - HotSpot: a contiguous hot region -- `hot_fraction` of the space
 *    receives `hot_weight` of the accesses (two draws per sample).
 *
 * Every sampler is deterministic per seed: sampling uses only the
 * caller's Rng, construction uses none.
 */

#ifndef PDDL_TRAFFIC_OFFSET_DIST_HH
#define PDDL_TRAFFIC_OFFSET_DIST_HH

#include <cstdint>
#include <string>

#include "util/rng.hh"

namespace pddl {
namespace traffic {

/** Which offset distribution a client samples from. */
struct OffsetSpec
{
    enum class Kind
    {
        Uniform,
        Zipf,
        HotSpot
    };

    Kind kind = Kind::Uniform;
    /** Zipf: skew exponent theta, 0 < theta < 1. */
    double theta = 0.99;
    /** HotSpot: fraction of the space that is hot, in (0, 1). */
    double hot_fraction = 0.1;
    /** HotSpot: probability an access targets the hot region. */
    double hot_weight = 0.9;
};

/**
 * Parse a spec string: "uniform", "zipf:<theta>" or
 * "hot:<fraction>,<weight>". @return true on success; on failure
 * `error` explains what was malformed (suitable for an ArgParser
 * validator message).
 */
bool parseOffsetSpec(const std::string &text, OffsetSpec &spec,
                     std::string &error);

/** Canonical spec label ("uniform", "zipf:0.99", "hot:0.1,0.9"). */
std::string offsetSpecName(const OffsetSpec &spec);

/**
 * The generalized harmonic number zeta(n, theta) = sum of 1 / i^theta
 * over i = 1..n, which every zipf sampler over n units needs.
 *
 * Memoized process-wide and bit-identical to zipfZetaReference(): the
 * memo keeps, per theta, the running sum every 4096 terms exactly as
 * the reference loop holds it there, and a lookup resumes the same
 * running sum from the checkpoint at or below n. Past term 2^16 the
 * sum calls pow() only for the first term of each block of 32 and for
 * the rare term whose rounding an estimate cannot certify, so a call
 * that extends the memo is O(n) at about a quarter of the reference's
 * cost per term; later calls, for any n up to the largest seen, add at
 * most 4095 terms. The first 16 distinct thetas are memoized; later
 * ones are summed directly, the same way. Thread-safe.
 */
double zipfZeta(int64_t n, double theta);

/** zeta(n, theta) by the plain loop over i = 1..n, in index order. */
double zipfZetaReference(int64_t n, double theta);

/**
 * Seeded sampler of start offsets over a fixed domain of
 * `domain_units` data units. The domain is fixed at construction
 * (the target's dataUnits) so the hot set is stable across access
 * sizes; per-sample the caller passes the valid start span, and
 * skewed draws landing past it are clamped to the edge.
 */
class OffsetSampler
{
  public:
    OffsetSampler(const OffsetSpec &spec, int64_t domain_units);

    /**
     * Draw one start offset in [0, span]. Uniform consumes exactly
     * one draw and equals rng.below(span + 1), preserving the
     * pre-traffic clients' histories bit-for-bit.
     */
    int64_t sample(Rng &rng, int64_t span) const;

    const OffsetSpec &spec() const { return spec_; }

  private:
    int64_t zipfRank(Rng &rng) const;

    OffsetSpec spec_;
    int64_t domain_;
    /** Gray et al. zipfian precompute (valid when kind == Zipf). */
    double zeta_n_ = 0.0;
    double alpha_ = 0.0;
    double eta_ = 0.0;
    double half_pow_theta_ = 0.0;
};

} // namespace traffic
} // namespace pddl

#endif // PDDL_TRAFFIC_OFFSET_DIST_HH
