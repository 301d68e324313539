/**
 * @file
 * Simulated disk-array controller.
 *
 * Owns one simulated disk per array slot, translates logical accesses
 * through a RequestMapper and enforces read-modify-write ordering:
 * all phase-0 pre-reads of an access complete before its phase-1
 * overwrites are issued (parity computation itself is treated as
 * free, as in the paper's RAIDframe experiments). Completion of the
 * last physical operation completes the logical access.
 */

#ifndef PDDL_ARRAY_CONTROLLER_HH
#define PDDL_ARRAY_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "array/request_mapper.hh"
#include "array/target.hh"
#include "disk/disk.hh"
#include "layout/layout.hh"
#include "obs/probe.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"

namespace pddl {

/**
 * Failure-lifecycle state of the array. The legal transitions form
 * the lifecycle graph ArrayController::transition() enforces:
 *
 *   FaultFree -> Degraded            (disk failure)
 *   Degraded -> PostReconstruction   (rebuilt into spare space)
 *   Degraded -> FaultFree            (replaced without sparing)
 *   PostReconstruction -> FaultFree  (replaced and copied back)
 * arrayModeName() names a state.
 */
using ArrayState = ArrayMode;

/** Controller configuration (paper Table 2 defaults). */
struct ArrayConfig
{
    /** Sectors per stripe unit (16 x 512 B = the paper's 8 KB). */
    int unit_sectors = 16;
    ArrayMode mode = ArrayMode::FaultFree;
    int failed_disk = -1;
    /** SSTF scan window per disk. */
    int sstf_window = 20;
    /** Instrumentation sinks shared by controller and disks. */
    obs::Probe probe;
};

/**
 * The simulated array: disks + mapper + RMW sequencing. Implements
 * Target, so workload drivers address one array exactly as they
 * address a sharded volume.
 */
class ArrayController : public Target
{
  public:
    /**
     * @param events shared simulation event queue
     * @param layout data layout (must outlive the controller)
     * @param device mechanics of every (identical) drive; must
     *        outlive the controller
     * @param config controller configuration
     */
    ArrayController(EventQueue &events, const Layout &layout,
                    const DeviceModel &device,
                    const ArrayConfig &config);

    /** Client data units addressable (whole patterns on the media). */
    int64_t dataUnits() const override { return data_units_; }

    /**
     * Issue a logical access of `count` aligned data units.
     *
     * @param done fired when the last physical operation completes
     */
    void access(int64_t start_unit, int count, AccessType type,
                InlineCallback done) override;

    /**
     * Submit one raw stripe-unit operation outside the logical access
     * path (background rebuild traffic). Each call is tracked as its
     * own access for seek classification.
     */
    void submitUnit(int disk, int64_t unit, bool write,
                    InlineCallback done);

    /**
     * Drive the failure lifecycle one legal edge (see ArrayState).
     * Accesses expanded before the call keep their old mapping (their
     * in-flight operations complete as issued); everything expanded
     * afterwards sees the new state. A second concurrent failure is a
     * data-loss event the fault layer must detect, not a state this
     * controller can serve.
     *
     * @param next the state to enter
     * @param disk the disk the edge concerns: the failing disk when
     *        entering Degraded, the rebuilt/replaced disk otherwise
     *        (ignored when returning to FaultFree)
     * @throws std::logic_error on an illegal edge (self-transition,
     *         failure while degraded, sparing without spare space, a
     *         disk id out of range or naming the wrong disk)
     */
    void transition(ArrayState next, int disk = -1);

    ArrayMode mode() const { return mapper_.mode(); }
    int failedDisk() const { return mapper_.failedDisk(); }

    /** Plant a latent medium error under one stripe unit of a disk. */
    void injectLatentError(int disk, int64_t unit);

    /** Hook invoked whenever a read surfaces a latent error. */
    void setMediumErrorHook(
        std::function<void(int disk, int64_t lba)> hook);

    /** Sum of all disks' seek tallies. */
    SeekTally aggregateTally() const override;

    /** Logical accesses issued so far. */
    uint64_t accessesIssued() const override { return next_access_id_; }

    const Disk &disk(int i) const { return *disks_[i]; }
    const Layout &layout() const { return layout_; }
    const ArrayConfig &config() const { return config_; }

  private:
    /** Arena handle of one in-flight access (index into pending_). */
    using PendingHandle = uint32_t;
    static constexpr PendingHandle kNilPending = ~PendingHandle{0};

    /**
     * In-flight access bookkeeping, pooled in a free-list arena: op
     * callbacks carry {controller, handle} instead of a shared_ptr,
     * so the steady-state request path performs no reference-counted
     * allocation. Freed slots keep their phase1 capacity for reuse,
     * and a new slot starts with the largest phase1 seen so far.
     */
    struct Pending
    {
        int outstanding = 0;
        /** Overwrites gated on the pre-read phase completing. */
        std::vector<PhysOp> phase1;
        /** True once phase1 has been issued (guards re-issue). */
        bool phase1_issued = false;
        uint64_t id = 0;
        double start_ms = 0.0;
        InlineCallback done;
        PendingHandle next_free = kNilPending;
    };

    PendingHandle allocPending();
    void freePending(PendingHandle handle);

    void issueOps(const std::vector<PhysOp> &ops,
                  PendingHandle handle);
    void phaseComplete(PendingHandle handle);

    EventQueue &events_;
    const Layout &layout_;
    ArrayConfig config_;
    RequestMapper mapper_;
    std::vector<std::unique_ptr<Disk>> disks_;
    int64_t data_units_ = 0;
    uint64_t next_access_id_ = 0;

    /** Arena of in-flight accesses (see Pending). */
    std::vector<Pending> pending_;
    PendingHandle free_pending_ = kNilPending;
    /** Largest phase1 any access has had (a new slot's reserve). */
    size_t phase1_reserve_ = 0;
    /** Scratch for access(): expanded ops and the phase-0 slice. */
    std::vector<PhysOp> scratch_ops_;
    std::vector<PhysOp> scratch_phase0_;
};

} // namespace pddl

#endif // PDDL_ARRAY_CONTROLLER_HH
