/**
 * @file
 * Conservative time-window simulation engine over per-shard lanes.
 *
 * A sharded volume's shards only couple at the VolumeManager, so the
 * engine gives each shard a private lane and synchronizes the lanes
 * the classic conservative-PDES way:
 *
 *  - Every shard owns a private "lane": its own EventQueue (event
 *    pool + indexed 4-ary heap), its own controller, disks and fault
 *    machinery. Lane events never touch another lane's state.
 *  - A "hub" lane holds everything cross-shard: workload clients and
 *    the VolumeManager's fan-out joins. Cross-lane interaction only
 *    happens through the hub, and always pays a simulated dispatch
 *    latency (VolumeConfig::dispatch_ms) on the way *into* a shard.
 *  - That dispatch latency is the lookahead: during a time window
 *    [W, W + lookahead) every lane can run independently, because
 *    any hub-side event inside the window can only schedule lane
 *    work at >= W + lookahead -- the *next* window.
 *
 * The run loop is a sequence of synchronous windows, all on the
 * calling thread:
 *
 *   1. window start = min next-event time over all lanes + hub
 *      (a pure function of simulation state);
 *   2. each lane runs EventQueue::runBefore(start + lookahead);
 *   3. barrier: every lane's mailbox of posted hub work (shard
 *      completion notifications) is replayed sorted by (time, lane,
 *      FIFO seq) -- a fixed order that no lane's position in the loop
 *      can perturb -- interleaved with the hub's own events via
 *      runUntil, then the remaining hub events run with runBefore.
 *
 * Every quantity that reaches an event callback (window edges,
 * mailbox order, lane clocks) is a function of simulation state
 * alone, which is what makes a volume run repeatable byte for byte.
 * DESIGN.md §10 says why the lanes share one thread.
 */

#ifndef PDDL_SIM_PARALLEL_ENGINE_HH
#define PDDL_SIM_PARALLEL_ENGINE_HH

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"

namespace pddl {

/** Windowed conservative-lookahead driver over per-shard lanes. */
class ParallelEngine
{
  public:
    struct Config
    {
        /** Ignored: the lanes always run on the calling thread. Kept
         *  only for callers that still set it. */
        int threads = 1;
        /**
         * Conservative window width in simulated ms. Must not exceed
         * the minimum cross-lane delay (the volume's dispatch_ms) or
         * a window could schedule into a lane's past -- producers
         * check this at construction.
         */
        SimTime lookahead = 0.5;
    };

    ParallelEngine(int shard_lanes, Config config);

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    int shardLanes() const { return static_cast<int>(lanes_.size()); }

    /** The private event queue of shard lane `lane`. */
    EventQueue &shardQueue(int lane) { return lanes_[lane].queue; }

    /** The cross-shard lane (clients, volume joins, global timers). */
    EventQueue &hubQueue() { return hub_; }

    SimTime lookahead() const { return config_.lookahead; }

    /**
     * Post hub work from inside lane `from_lane` at simulated time
     * `when` (>= the lane's clock). The closure runs at the next
     * barrier with the hub clock at `when`, after all posts with
     * earlier (when, lane, seq).
     */
    void post(int from_lane, SimTime when, EventQueue::Callback fn);

    /** Run windows until every lane and the hub are drained. */
    void run();

    /** Synchronous windows executed so far. */
    uint64_t windowsRun() const { return windows_; }

    /** Events fired across the hub and every lane. */
    uint64_t eventsFired() const;

    /** Latest clock over the hub and every lane. */
    SimTime now() const;

  private:
    /** One posted hub closure (mailbox entry). */
    struct Post
    {
        SimTime when;
        EventQueue::Callback fn;
    };

    /** A shard lane: queue plus its barrier mailbox. */
    struct Lane
    {
        EventQueue queue;
        std::vector<Post> mailbox;
    };

    SimTime minNextEventTime() const;
    void drainBarrier(SimTime window_end);

    Config config_;
    std::vector<Lane> lanes_;
    EventQueue hub_;
    uint64_t windows_ = 0;

    /** Barrier scratch: (when, lane, seq) references into mailboxes. */
    struct PostRef
    {
        SimTime when;
        int lane;
        uint32_t seq;
    };
    std::vector<PostRef> barrier_order_;
};

} // namespace pddl

#endif // PDDL_SIM_PARALLEL_ENGINE_HH
