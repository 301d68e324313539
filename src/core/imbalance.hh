/**
 * @file
 * Rebuild-imbalance evaluation for dRAID-scale layout search.
 *
 * ZFS dRAID abandons combinatorial constructions at hundreds of disks
 * and instead *scores* randomly permuted developed rows by the
 * worst/mean/RMS imbalance of per-surviving-disk rebuild reads across
 * fault cases. This module is that scorer, built for search:
 *
 *  - the sufficient statistic is the pair matrix A[f][d] = number of
 *    (row, group) stripes placing disks f and d in the same stripe
 *    group. Row f of A *is* the single-fault rebuild-read tally of
 *    failed disk f (each of f's stripes reads every surviving
 *    member once);
 *  - a candidate move is a transposition of two slots of one row.
 *    Only differences pairing a swapped disk with the rest of its
 *    group change, so the scalar cost is delta-updated in O(k) --
 *    the whole-map retally (O(rows * n * k)) exists only as the
 *    recomputeCost() audit path, mirroring GroupClimber;
 *  - worst/mean/RMS metrics for single- and double-fault cases are
 *    derived on demand: single-fault directly from A; double-fault
 *    (one joint reconstruction pass per damaged group) from A plus a
 *    triple-coverage scan, reads(f1,f2,d) = A[f1][d] + A[f2][d] -
 *    |groups containing all three|. The triple term is exactly what
 *    t-designs (arXiv:1209.6152) flatten: a 3-design scores a
 *    perfect 1.0 double-fault worst ratio.
 *
 * The search cost is integral and exact (no floating point), so the
 * incremental updates match the audit bit-for-bit:
 *
 *   cost() = sum A[f][d]^2  +  sum_d groups(d)^2
 *
 * Both sums have swap-invariant totals, so minimizing them flattens
 * (a) pair coverage -- single-fault balance, and via the identity
 * sum_pairs (A1+A2)^2 = (n-3) sum A^2 + (k-1)^2 sum groups(d)^2 also
 * the sequential double-fault tallies -- and (b) spare-slot duty
 * (groups(d) counts d's non-spare appearances).
 */

#ifndef PDDL_CORE_IMBALANCE_HH
#define PDDL_CORE_IMBALANCE_HH

#include <cstdint>
#include <vector>

#include "layout/developed_random.hh"
#include "layout/layout.hh"

namespace pddl {

/** Aggregate imbalance of per-surviving-disk rebuild reads. */
struct ImbalanceMetrics
{
    /** max over fault cases of (max survivor reads / mean). 1 = flat. */
    double worst = 0.0;
    /** mean over fault cases of that ratio. */
    double mean = 0.0;
    /** RMS over fault cases of that ratio. */
    double rms = 0.0;
    /** Fault cases evaluated (n singles, n(n-1)/2 pairs). */
    int64_t cases = 0;
};

/** Incremental rebuild-imbalance scorer over a developed-rows map. */
class ImbalanceEvaluator
{
  public:
    /** Build the tallies for `map` (validated: permutation rows,
     *  (n - spares) divisible by k). Keeps its own copy of the rows. */
    explicit ImbalanceEvaluator(DevelopedRows map);

    /**
     * Score an arbitrary layout: every stripe of one period becomes
     * one group. The returned evaluator supports cost(), tallies and
     * metrics, but not applySwap() (there is no row structure).
     */
    static ImbalanceEvaluator forLayout(const Layout &layout);

    const DevelopedRows &map() const { return map_; }

    /**
     * Scalar balance cost: sum of squared pair counts plus sum of
     * squared non-spare appearance counts (see file comment). Both
     * totals are swap-invariant, so lower always means flatter; a
     * BIBD-perfect map minimizes it.
     */
    int64_t cost() const { return pair_sq_ + group_sq_; }

    /** The pair-coverage term of cost() alone. */
    int64_t pairCost() const { return pair_sq_; }

    /**
     * Transpose slots a and b of row r, delta-updating the tallies
     * and cost in O(k). Self-inverse: applying the same swap again
     * restores the previous state exactly, which is what lets a
     * search evaluate a candidate by applying it and reverting on
     * rejection. Requires row structure (not forLayout()).
     */
    void applySwap(int row, int a, int b);

    /**
     * The cost retallied from scratch (no incremental state), the
     * O(rows * n * k) path every candidate evaluation used to pay.
     * Always equals cost(); exists as the audit for the O(k) deltas
     * and as the bench's full-recompute baseline.
     */
    int64_t recomputeCost() const;

    /**
     * Single-fault rebuild-read tally: reads each surviving disk
     * serves while rebuilding `failed` over one period (entry
     * [failed] is 0). This is row `failed` of the pair matrix.
     */
    std::vector<int64_t> singleFaultTally(int failed) const;

    /**
     * Double-fault rebuild-read tally for the concurrent-rebuild
     * model: one joint read pass per group intersecting {f1, f2}.
     * Entries [f1] and [f2] are 0.
     */
    std::vector<int64_t> doubleFaultTally(int f1, int f2) const;

    /**
     * Worst/mean/RMS imbalance over every fault case: `faults` == 1
     * sweeps all n single failures, 2 sweeps all n(n-1)/2 pairs
     * (computed on demand; O(n^2) resp. O(n^3 + groups * k^2)).
     */
    ImbalanceMetrics metrics(int faults) const;

    int disks() const { return map_.n; }

    /** Stripe groups tallied (rows * groupsPerRow, or the period). */
    int64_t groupCount() const
    {
        return static_cast<int64_t>(groups_.size()) / map_.k;
    }

  private:
    ImbalanceEvaluator() = default;

    /** Group slice [g*k, (g+1)*k) of the flattened group list. */
    const int *groupDisks(size_t g) const { return &groups_[g * map_.k]; }

    void rebuildFromGroups();

    /** Count one disk against the rest of a group slice, +/-1. */
    void accountAgainstGroup(int disk, const int *member, int sign);

    void bumpPair(int f, int d, int sign);

    DevelopedRows map_;
    /** Flattened stripe groups, k disks each (derived from rows, or
     *  the period of a wrapped layout). */
    std::vector<int> groups_;
    /** pair_[f * n + d]: stripes containing both f and d (ordered;
     *  symmetric). */
    std::vector<int32_t> pair_;
    /** Non-spare (group) appearances per disk. */
    std::vector<int64_t> group_count_;
    int64_t pair_sq_ = 0;  ///< sum of pair_^2
    int64_t group_sq_ = 0; ///< sum of group_count_^2
};

} // namespace pddl

#endif // PDDL_CORE_IMBALANCE_HH
