#include "sim/parallel_engine.hh"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace pddl {

ParallelEngine::ParallelEngine(int shard_lanes, Config config)
    : config_(config), lanes_(static_cast<size_t>(
                           shard_lanes > 0 ? shard_lanes : 0))
{
    if (shard_lanes < 1)
        throw std::logic_error(
            "ParallelEngine needs at least one shard lane");
    if (!(config_.lookahead > 0.0))
        throw std::logic_error(
            "ParallelEngine lookahead must be > 0");
}

void
ParallelEngine::post(int from_lane, SimTime when,
                     EventQueue::Callback fn)
{
    assert(from_lane >= 0 && from_lane < shardLanes());
    lanes_[static_cast<size_t>(from_lane)].mailbox.push_back(
        Post{when, std::move(fn)});
}

SimTime
ParallelEngine::minNextEventTime() const
{
    SimTime earliest = hub_.nextEventTime();
    for (const Lane &lane : lanes_)
        earliest = std::min(earliest, lane.queue.nextEventTime());
    return earliest;
}

/**
 * Barrier step: replay every mailbox post in (when, lane, seq) order
 * -- a total order fixed by simulation state alone -- interleaved
 * with the hub's own events, then run the hub up to the window edge.
 * Posts execute with the hub clock at their post time, so a fan-out
 * join completing at t observes now() == t exactly as it would on a
 * single shared queue.
 */
void
ParallelEngine::drainBarrier(SimTime window_end)
{
    barrier_order_.clear();
    for (size_t l = 0; l < lanes_.size(); ++l) {
        const std::vector<Post> &mailbox = lanes_[l].mailbox;
        for (size_t i = 0; i < mailbox.size(); ++i) {
            barrier_order_.push_back(
                PostRef{mailbox[i].when, static_cast<int>(l),
                        static_cast<uint32_t>(i)});
        }
    }
    std::sort(barrier_order_.begin(), barrier_order_.end(),
              [](const PostRef &a, const PostRef &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.lane != b.lane)
                      return a.lane < b.lane;
                  return a.seq < b.seq;
              });
    for (const PostRef &ref : barrier_order_) {
        hub_.runUntil(ref.when);
        lanes_[static_cast<size_t>(ref.lane)]
            .mailbox[ref.seq]
            .fn();
    }
    for (Lane &lane : lanes_)
        lane.mailbox.clear();
    hub_.runBefore(window_end);
}

void
ParallelEngine::run()
{
    const SimTime inf = std::numeric_limits<SimTime>::infinity();
    for (;;) {
        // The window opens at the global next-event time: a pure
        // function of simulation state, so the window sequence (and
        // with it every barrier) is too.
        const SimTime start = minNextEventTime();
        if (start == inf)
            break;
        const SimTime window_end = start + config_.lookahead;
        for (Lane &lane : lanes_)
            lane.queue.runBefore(window_end);
        ++windows_;
        drainBarrier(window_end);
    }
}

uint64_t
ParallelEngine::eventsFired() const
{
    uint64_t fired = hub_.fired();
    for (const Lane &lane : lanes_)
        fired += lane.queue.fired();
    return fired;
}

SimTime
ParallelEngine::now() const
{
    SimTime latest = hub_.now();
    for (const Lane &lane : lanes_)
        latest = std::max(latest, lane.queue.now());
    return latest;
}

} // namespace pddl
