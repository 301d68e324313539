/**
 * @file
 * Simulated disk drive with SSTF request scheduling.
 *
 * The drive mechanics (seek/rotation/transfer for rotating drives,
 * flat latency for flash) live behind the DeviceModel interface; the
 * Disk owns the queue, the SSTF scan window, and the per-drive
 * mechanical state the model advances. Each dispatched request is
 * classified the way the paper's Figures 4/7/15/16 tally operations:
 * *local* when the previous operation on this disk belonged to the
 * same logical access (further split into cylinder switch / track
 * switch / no-switch), *non-local* otherwise.
 */

#ifndef PDDL_DISK_DISK_HH
#define PDDL_DISK_DISK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "disk/device_model.hh"
#include "disk/geometry.hh"
#include "disk/seek_model.hh"
#include "obs/probe.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"

namespace pddl {

/** One physical I/O request handed to a disk. */
struct DiskRequest
{
    int64_t lba = 0;
    int sectors = 0;
    bool write = false;
    /** Identity of the logical access that generated this op. */
    uint64_t access_id = 0;
    /** Completion callback, fired at service completion time. */
    InlineCallback done;
};

/**
 * One simulated drive: a queue, an SSTF scan window, and a service
 * model driven by the event queue.
 */
class Disk
{
  public:
    /**
     * @param events shared simulation event queue
     * @param device drive mechanics; must outlive the Disk
     * @param sstf_window how many queued requests SSTF considers
     *        (1 degenerates to FCFS; the paper uses 20)
     * @param id array slot of this drive (selects its trace lane)
     * @param probe instrumentation sinks (default: none)
     */
    Disk(EventQueue &events, const DeviceModel &device,
         int sstf_window = 20, int id = 0, obs::Probe probe = {});

    /** Enqueue a request; service begins as the arm frees up. */
    void submit(DiskRequest &&request);

    /**
     * Mark one sector as a latent (undetected) medium error. The
     * error surfaces when a read next touches the sector -- counted
     * and reported through the medium-error hook -- and heals when a
     * write next covers it (the drive remaps the sector).
     */
    void injectLatentError(int64_t lba);

    /** Latent errors currently present on the media. */
    int64_t latentErrors() const
    {
        return static_cast<int64_t>(latent_lbas_.size());
    }

    /** True when [lba, lba+sectors) covers a latent error. */
    bool hasLatentErrorIn(int64_t lba, int sectors) const;

    /** Latent-error sectors healed by overwrites so far. */
    int64_t mediumErrorsRepaired() const { return errors_repaired_; }

    /**
     * Called at service completion for every latent sector a read
     * touches (fault layer uses it for data-loss accounting).
     */
    void
    setMediumErrorHook(std::function<void(int64_t lba)> hook)
    {
        medium_error_hook_ = std::move(hook);
    }

    /** Seek classification tallies since construction. */
    const SeekTally &tally() const { return tally_; }

    /** Busy time accumulated (for utilization metrics). */
    SimTime busyMs() const { return busy_ms_; }

    /** Requests waiting (excluding the one in service). */
    size_t queueDepth() const { return waiting_; }

    bool busy() const { return busy_; }

    const DeviceModel &device() const { return *device_; }

  private:
    static constexpr uint32_t kNoSlot = ~uint32_t{0};

    /**
     * One slab entry: a request and what the disk keeps beside it.
     * The SSTF scan reads only the position and the link, which lead
     * the slot, and no request bytes.
     */
    struct Slot
    {
        /**
         * Media position of the request's LBA, decoded once at
         * submit; the SSTF pick, classify() and serviceTime() read it.
         */
        DiskPosition position{};
        /** Next waiting slot in arrival order, or next free slot. */
        uint32_t next = kNoSlot;
        /** Arrival time (queue-wait metric). */
        double submit_ms = 0.0;
        DiskRequest request;
    };
    static_assert(sizeof(Slot) == 128, "a slab slot is 128 bytes");

    /** Waiting requests the slab holds before it must grow. */
    size_t
    capacity() const
    {
        return slab_.empty() ? 0 : slab_.size() - 1;
    }

    /** Double the waiting capacity (8 at first), keeping slot ids. */
    void grow();

    /** Pick the next request (SSTF within the window) and serve it. */
    void startNext();

    /** Service completion of `in_service_` (scheduled by startNext). */
    void completeService();

    /** Surface (reads) or heal (writes) latent errors under a span. */
    void touchLatentErrors(int64_t lba, int sectors, bool write);

    EventQueue &events_;
    const DeviceModel *device_ = nullptr;
    int window_;
    int id_;
    obs::Probe probe_;
    int lane_;

    /**
     * Requests stay in their slot from submit to completion. The slab
     * has one slot more than its waiting capacity, for the request in
     * service, and grows exactly when a ring of waiting requests
     * would: 8, 16, 32, ... waiting. Waiting slots form a singly
     * linked list in arrival order; free slots a stack.
     */
    std::vector<Slot> slab_;
    uint32_t head_ = kNoSlot; ///< earliest waiting arrival
    uint32_t tail_ = kNoSlot; ///< latest waiting arrival
    uint32_t free_ = kNoSlot; ///< top of the free-slot stack
    size_t waiting_ = 0;
    bool busy_ = false;
    /** Slot of the request the arm is serving; valid while busy_. */
    uint32_t in_service_ = kNoSlot;

    MechState mech_;
    uint64_t last_access_id_ = ~0ULL;
    bool has_last_ = false;

    SeekTally tally_;
    SimTime busy_ms_ = 0.0;

    std::set<int64_t> latent_lbas_;
    int64_t errors_repaired_ = 0;
    std::function<void(int64_t)> medium_error_hook_;
};

} // namespace pddl

#endif // PDDL_DISK_DISK_HH
