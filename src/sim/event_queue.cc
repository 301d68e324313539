#include "sim/event_queue.hh"

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

namespace pddl {

uint64_t
EventQueue::whenBits(SimTime when)
{
    // `when + 0.0` normalizes -0.0 to +0.0 so equal times get equal
    // bit images; schedule() rejects NaN and times before now(), so
    // every stored time is >= +0.0 and its bit pattern orders
    // correctly.
    return std::bit_cast<uint64_t>(when + 0.0);
}

SimTime
EventQueue::whenOf(Key key)
{
    return std::bit_cast<SimTime>(whenBitsOf(key));
}

void
EventQueue::throwPastSchedule(SimTime when) const
{
    // %.17g round-trips a double exactly: two timestamps closer than
    // std::to_string's fixed six decimals still print distinctly, so
    // the message always shows which time was asked for, where the
    // clock stood, and by how much the request landed in the past.
    char message[192];
    if (std::isnan(when)) {
        std::snprintf(message, sizeof(message),
                      "EventQueue::schedule: event time is NaN; the "
                      "current simulated time is %.17g ms",
                      now_);
    } else {
        std::snprintf(message, sizeof(message),
                      "EventQueue::schedule: event time %.17g ms is "
                      "%.17g ms before the current simulated time "
                      "%.17g ms",
                      when, now_ - when, now_);
    }
    throw std::logic_error(message);
}

/** Move the node at logical `index` up to its place (keys+handles). */
void
EventQueue::siftUp(size_t index)
{
    const Key moving_key = keys_[index + kPad];
    const Handle moving_handle = handles_[index + kPad];
    while (index > 0) {
        const size_t parent = (index - 1) / kArity;
        if (!(moving_key < keys_[parent + kPad]))
            break;
        keys_[index + kPad] = keys_[parent + kPad];
        handles_[index + kPad] = handles_[parent + kPad];
        index = parent;
    }
    keys_[index + kPad] = moving_key;
    handles_[index + kPad] = moving_handle;
}

void
EventQueue::enqueue(SimTime when, Handle handle)
{
    keys_.push_back(makeKey(whenBits(when), next_seq_++));
    handles_.push_back(handle);
    siftUp(keys_.size() - 1 - kPad);
}

bool
EventQueue::runOne()
{
    const size_t size = keys_.size() - kPad;
    if (size == 0)
        return false;
    const Key root_key = keys_[kPad];
    const Handle root_handle = handles_[kPad];
    const Key tail_key = keys_.back();
    const Handle tail_handle = handles_.back();
    keys_.pop_back();
    handles_.pop_back();
    if (size > 1) {
        // Percolate the root hole down to a leaf -- each level only
        // selects the earliest of (up to) four keys on one cache
        // line, with no compare against a moving element -- then
        // drop the old tail into the hole and let it sift up (the
        // tail came from a leaf, so it almost never rises). The
        // total key order makes any resulting arrangement pop the
        // same event sequence.
        const size_t remaining = size - 1;
        size_t hole = 0;
        for (;;) {
            const size_t first_child = hole * kArity + 1;
            if (first_child >= remaining)
                break;
            size_t last_child = first_child + kArity;
            if (last_child > remaining)
                last_child = remaining;
            // Conditional-move selection: these compares are
            // data-dependent and would mispredict as branches.
            size_t best = first_child;
            Key best_key = keys_[first_child + kPad];
            for (size_t child = first_child + 1; child < last_child;
                 ++child) {
                const Key key = keys_[child + kPad];
                const bool earlier = key < best_key;
                best = earlier ? child : best;
                best_key = earlier ? key : best_key;
            }
            keys_[hole + kPad] = best_key;
            handles_[hole + kPad] = handles_[best + kPad];
            hole = best;
        }
        keys_[hole + kPad] = tail_key;
        handles_[hole + kPad] = tail_handle;
        siftUp(hole);
    }
    now_ = whenOf(root_key);
    ++fired_;
    if (digest_on_) {
        // FNV-1a over (time bits, remaining count): the same fold the
        // replay-equivalence suite applies externally, so a digest
        // pins the full dispatch history, not just the final state.
        constexpr uint64_t kPrime = 1099511628211ULL;
        digest_ = (digest_ == 0 ? 1469598103934665603ULL : digest_);
        digest_ = (digest_ ^ whenBitsOf(root_key)) * kPrime;
        digest_ = (digest_ ^ (keys_.size() - kPad)) * kPrime;
    }
    probe_.count("sim.events");
    // Move the closure out and recycle the slot before dispatch: the
    // callback may schedule new events that reuse the slot at once,
    // or enough of them to reallocate the pool under it.
    Callback callback = std::move(pool_[root_handle]);
    free_list_.push_back(root_handle);
    callback();
    return true;
}

void
EventQueue::runUntilEmpty()
{
    while (runOne()) {
    }
}

void
EventQueue::runUntil(SimTime t)
{
    while (keys_.size() > kPad && whenOf(keys_[kPad]) <= t)
        runOne();
    if (t > now_)
        now_ = t;
}

void
EventQueue::runBefore(SimTime t)
{
    while (keys_.size() > kPad && whenOf(keys_[kPad]) < t)
        runOne();
}

SimTime
EventQueue::nextEventTime() const
{
    if (keys_.size() == kPad)
        return std::numeric_limits<SimTime>::infinity();
    return whenOf(keys_[kPad]);
}

} // namespace pddl
