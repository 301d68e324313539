#include "sim/parallel_engine.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
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
ParallelEngine::post(SimTime when, EventQueue::Callback fn)
{
    assert(in_lanes_);
    mailbox_.push_back(Post{when, std::move(fn)});
}

SimTime
ParallelEngine::minNextEventTime() const
{
    SimTime earliest = hub_.nextEventTime();
    for (const EventQueue &lane : lanes_)
        earliest = std::min(earliest, lane.nextEventTime());
    return earliest;
}

/**
 * Barrier step: replay every mailbox post in (when, append index)
 * order -- the (when, lane, seq) order, fixed by simulation state
 * alone -- interleaved with the hub's own events, then run the hub up
 * to the window edge. Posts execute with the hub clock at their post
 * time, so a fan-out join completing at t observes now() == t exactly
 * as it would on a single shared queue.
 */
void
ParallelEngine::drainBarrier(SimTime window_end)
{
    barrier_order_.clear();
    for (size_t i = 0; i < mailbox_.size(); ++i) {
        barrier_order_.push_back(
            PostRef{mailbox_[i].when, static_cast<uint32_t>(i)});
    }
    std::sort(barrier_order_.begin(), barrier_order_.end(),
              [](const PostRef &a, const PostRef &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  return a.index < b.index;
              });
    for (const PostRef &ref : barrier_order_) {
        hub_.runUntil(ref.when);
        mailbox_[ref.index].fn();
    }
    mailbox_.clear();
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
        // A lookahead below half an ulp of `start` would round the
        // window to nothing and the loop would spin forever; every
        // window fires at least the events at `start`. That stays
        // safe: a hub event at t schedules lane work at
        // t + dispatch_ms, never below the lane clock.
        SimTime window_end = start + config_.lookahead;
        if (window_end == start)
            window_end = std::nextafter(start, inf);
        in_lanes_ = true;
        for (EventQueue &lane : lanes_)
            lane.runBefore(window_end);
        in_lanes_ = false;
        ++windows_;
        drainBarrier(window_end);
    }
}

uint64_t
ParallelEngine::eventsFired() const
{
    uint64_t fired = hub_.fired();
    for (const EventQueue &lane : lanes_)
        fired += lane.fired();
    return fired;
}

SimTime
ParallelEngine::now() const
{
    SimTime latest = hub_.now();
    for (const EventQueue &lane : lanes_)
        latest = std::max(latest, lane.now());
    return latest;
}

} // namespace pddl
