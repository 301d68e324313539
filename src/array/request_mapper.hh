/**
 * @file
 * Translation of logical accesses into physical stripe-unit I/O.
 *
 * Implements the array controller policies the paper simulates
 * (section 4):
 *
 *  - reads: data units directly; a unit on the failed disk is
 *    reconstructed by reading every surviving unit of its stripe;
 *  - writes: full-stripe writes when all data units are modified;
 *    otherwise read-modify-write ("small write": pre-read modified
 *    data + check, then overwrite) when at most half the stripe's
 *    data is modified, else reconstruct-write ("large write":
 *    pre-read the unmodified data, then write modified data + check);
 *  - degraded writes: a failed modified unit forces a large write, a
 *    failed unmodified unit forces a small write, and a failed check
 *    unit drops parity maintenance (section 4.2's discussion);
 *  - post-reconstruction (sparing layouts): fault-free policy with
 *    failed-disk addresses redirected to their spare homes.
 *
 * Writes are two-phase: every phase-0 pre-read must complete before
 * the phase-1 overwrites are issued (read-modify-write ordering).
 */

#ifndef PDDL_ARRAY_REQUEST_MAPPER_HH
#define PDDL_ARRAY_REQUEST_MAPPER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "layout/layout.hh"
#include "obs/probe.hh"

namespace pddl {

/** Logical access type. */
enum class AccessType
{
    Read,
    Write
};

/** Array operating mode. */
enum class ArrayMode
{
    FaultFree,
    /**
     * One disk lost, its contents not yet in spare space. For PDDL
     * this is the paper's "reconstruction mode".
     */
    Degraded,
    /**
     * One disk lost and rebuilt into distributed spare space
     * (sparing layouts only).
     */
    PostReconstruction
};

/** Stable lowercase name of a mode ("fault_free", ...). */
const char *arrayModeName(ArrayMode mode);

/** One physical stripe-unit operation. */
struct PhysOp
{
    PhysAddr addr;
    bool write = false;
    /** 0 = pre-read phase, 1 = overwrite phase. */
    int phase = 0;

    bool
    operator==(const PhysOp &o) const
    {
        return addr == o.addr && write == o.write && phase == o.phase;
    }
};

/** Expands logical accesses under a layout, mode and failed disk. */
class RequestMapper
{
  public:
    /**
     * @param layout the data layout (must outlive the mapper)
     * @param mode operating mode
     * @param failed_disk failed disk id; required (>= 0) unless mode
     *        is FaultFree
     */
    explicit RequestMapper(const Layout &layout,
                           ArrayMode mode = ArrayMode::FaultFree,
                           int failed_disk = -1);

    /**
     * Expand the aligned logical access [start_unit, start_unit +
     * count) of client data units into physical operations. Reads are
     * deduplicated; no operation ever targets the failed disk.
     */
    std::vector<PhysOp> expand(int64_t start_unit, int count,
                               AccessType type) const;

    /**
     * Same as expand(), but reuses the caller's vector (cleared
     * first). The steady-state controller path goes through this
     * overload so expansion allocates nothing once capacities warm up.
     */
    void expandInto(int64_t start_unit, int count, AccessType type,
                    std::vector<PhysOp> &ops) const;

    /**
     * Switch operating mode at runtime (live failure lifecycle).
     * Accesses expanded before the switch keep their old mapping;
     * the transition is atomic at expansion time.
     *
     * @param failed_disk required (>= 0) unless mode is FaultFree
     */
    void setMode(ArrayMode mode, int failed_disk = -1);

    const Layout &layout() const { return layout_; }
    ArrayMode mode() const { return mode_; }
    int failedDisk() const { return failed_disk_; }

    /** Attach instrumentation (mapping-decision counters). */
    void setProbe(obs::Probe probe) { probe_ = probe; }

    /**
     * Live queue depth of a disk (in-service + waiting), consulted by
     * the mirror shortest-queue replica scheduler. ArrayController
     * installs it; without a hook the scheduler falls back to the
     * primary copy.
     */
    void
    setQueueDepthHook(std::function<int(int disk)> hook)
    {
        queue_depth_hook_ = std::move(hook);
    }

  private:
    /** Surviving replica position serving a mirrored stripe read. */
    int pickReplica(int64_t stripe) const;
    /** Apply the post-reconstruction spare redirection. */
    PhysAddr resolve(PhysAddr addr) const;

    void expandStripeRead(int64_t stripe, int lo, int hi,
                          std::vector<PhysOp> &ops) const;
    void expandStripeWrite(int64_t stripe, int lo, int hi,
                           std::vector<PhysOp> &ops) const;

    const Layout &layout_;
    ArrayMode mode_;
    int failed_disk_;
    obs::Probe probe_;
    std::function<int(int)> queue_depth_hook_;
    /** Round-robin replica cursor; advanced per mirrored read. */
    mutable uint64_t replica_cursor_ = 0;
};

} // namespace pddl

#endif // PDDL_ARRAY_REQUEST_MAPPER_HH
