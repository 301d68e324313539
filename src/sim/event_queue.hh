/**
 * @file
 * Discrete-event simulation engine.
 *
 * A minimal, deterministic event queue: events are callbacks scheduled
 * at a simulated time (milliseconds). Ties are broken by insertion
 * order so that repeated runs of the same configuration replay the
 * same history exactly.
 *
 * Engine internals (see DESIGN.md §7): events live in a slab pool
 * recycled through a free list, callbacks are small-buffer-optimized
 * InlineCallbacks (no heap traffic for the common captures), and the
 * ready queue is an indexed 4-ary min-heap. Each heap node's sort key
 * packs (when, seq) into one 128-bit integer -- non-negative doubles
 * order identically as doubles and as their bit patterns -- so a
 * comparison is a single branch-free integer compare with the exact
 * tie-break of the original std::priority_queue engine, and replays
 * are bit-identical. The keys live in their own cache-aligned array,
 * padded so every 4-child group occupies exactly one cache line (the
 * parallel handle array and the pool are only touched per promotion
 * and per dispatch, never per compare), and a pop percolates the root
 * hole to a leaf instead of re-sifting the tail from the top. Because
 * seq makes the key order total, the heap's internal arrangement can
 * never affect which event fires next.
 */

#ifndef PDDL_SIM_EVENT_QUEUE_HH
#define PDDL_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "obs/probe.hh"
#include "sim/callback.hh"

namespace pddl {

namespace detail {

/** Minimal allocator pinning vector storage to cache-line alignment. */
template <typename T>
struct CacheAlignedAllocator
{
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    CacheAlignedAllocator() = default;
    template <typename U>
    CacheAlignedAllocator(const CacheAlignedAllocator<U> &)
    {
    }

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
    }

    void
    deallocate(T *p, size_t) noexcept
    {
        ::operator delete(p, kAlign);
    }

    friend bool
    operator==(const CacheAlignedAllocator &,
               const CacheAlignedAllocator &)
    {
        return true;
    }
};

} // namespace detail

/** Simulated time in milliseconds. */
using SimTime = double;

/**
 * Deterministic discrete-event queue.
 *
 * Components schedule closures at absolute simulated times; the
 * driver advances time by firing events in (time, insertion) order.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    EventQueue()
    {
        keys_.resize(kPad);
        handles_.resize(kPad);
    }

    /** Current simulated time (time of the last fired event). */
    SimTime now() const { return now_; }

    /** Number of events not yet fired. */
    size_t pending() const { return keys_.size() - kPad; }

    /**
     * Schedule a callback at absolute time `when`. The closure is
     * built directly in its pool slot; an InlineCallback argument is
     * moved there.
     * @throws std::logic_error when `when` < now() or is NaN
     *         (scheduling into the past would silently reorder
     *         history; a NaN time would fire after +inf and set the
     *         clock to NaN, after which every past-time check passes)
     * @throws whatever building the closure throws, with the queue
     *         left as it was
     */
    template <typename F>
    void
    schedule(SimTime when, F &&callback)
    {
        if (!(when >= now_))
            throwPastSchedule(when);
        const Handle handle = allocEvent();
        try {
            pool_[handle].emplace(std::forward<F>(callback));
        } catch (...) {
            // A throwing closure leaves its slot empty; recycle it.
            free_list_.push_back(handle);
            throw;
        }
        enqueue(when, handle);
    }

    /** Schedule a callback `delay` milliseconds from now. */
    template <typename F>
    void
    scheduleAfter(SimTime delay, F &&callback)
    {
        schedule(now_ + delay, std::forward<F>(callback));
    }

    /**
     * Fire the earliest pending event.
     * @return false if the queue was empty.
     */
    bool runOne();

    /** Fire events until the queue is empty. */
    void runUntilEmpty();

    /**
     * Fire events with time <= t, then set the clock to t.
     * Events scheduled during the run are honored if they fall
     * within the horizon.
     */
    void runUntil(SimTime t);

    /**
     * Fire events with time strictly < t, leaving the clock at the
     * last fired event. This is the parallel engine's window step:
     * an event exactly at the window edge belongs to the next
     * window, and the clock must not be dragged forward past events
     * that a barrier may still deliver at >= now().
     */
    void runBefore(SimTime t);

    /** Fire time of the earliest pending event, +inf when empty. */
    SimTime nextEventTime() const;

    /** Attach instrumentation (scheduled/fired event counters). */
    void setProbe(obs::Probe probe) { probe_ = probe; }

    /** Events fired since construction. */
    uint64_t fired() const { return fired_; }

    /**
     * Opt-in replay digest: once enabled, every fired event folds
     * (time bits, pending count) into an FNV-1a hash, giving a cheap
     * fingerprint of the queue's whole dispatch history. The golden
     * replay tests pin per-lane digests.
     */
    void enableHistoryDigest() { digest_on_ = true; }

    /** Dispatch-history fingerprint (0 until enabled + first fire). */
    uint64_t historyDigest() const { return digest_; }

  private:
    using Handle = uint32_t;
    /** Heap fan-out; 4 children's keys fill one cache line. */
    static constexpr size_t kArity = 4;
    /**
     * Leading dummy slots: logical heap index i lives at physical
     * slot i + kPad, which puts every 4-child group (logical
     * 4i+1..4i+4, physical 4i+4..4i+7) on a single 64-byte line of
     * the cache-aligned key array.
     */
    static constexpr size_t kPad = 3;

    static_assert(__SIZEOF_INT128__ == 16,
                  "the event key needs unsigned __int128");

    /**
     * Sort key: (when, seq) packed into 128 bits. The high half is
     * the bit image of the fire time -- IEEE-754 doubles >= +0.0
     * compare identically as doubles and as uint64_t bit patterns --
     * and the low half is the insertion sequence, so one integer
     * compare implements the original engine's exact tie-break, and
     * seq uniqueness makes the order total.
     */
    using Key = unsigned __int128;
    static Key
    makeKey(uint64_t when_bits, uint64_t seq)
    {
        return (static_cast<Key>(when_bits) << 64) | seq;
    }
    static uint64_t
    whenBitsOf(Key key)
    {
        return static_cast<uint64_t>(key >> 64);
    }

    static uint64_t whenBits(SimTime when);
    static SimTime whenOf(Key key);

    /** An empty pool slot: the last one freed, or a new one. */
    Handle
    allocEvent()
    {
        if (!free_list_.empty()) {
            const Handle handle = free_list_.back();
            free_list_.pop_back();
            return handle;
        }
        pool_.emplace_back();
        return static_cast<Handle>(pool_.size() - 1);
    }

    /** Push the event in pool slot `handle` onto the heap at `when`. */
    void enqueue(SimTime when, Handle handle);
    void siftUp(size_t index);
    [[noreturn]] void throwPastSchedule(SimTime when) const;

    /**
     * Slab of pooled callbacks, one cache line each
     * (sizeof(InlineCallback) == 64): a dispatch touches exactly one
     * pool line. Recycled slots stack up in `free_list_`, so the slot
     * freed by the firing event is the slot its reschedule reuses,
     * still hot in L1. A slot on the free list holds an empty
     * callback: runOne() moves each closure out before dispatch.
     */
    std::vector<Callback, detail::CacheAlignedAllocator<Callback>>
        pool_;
    std::vector<Handle> free_list_;
    /** Heap keys, physically offset by kPad (see above). */
    std::vector<Key, detail::CacheAlignedAllocator<Key>> keys_;
    /** Pool handle of each heap node, same physical offset. */
    std::vector<Handle> handles_;
    SimTime now_ = 0.0;
    uint64_t next_seq_ = 0;
    uint64_t fired_ = 0;
    bool digest_on_ = false;
    uint64_t digest_ = 0;
    obs::Probe probe_;
};

} // namespace pddl

#endif // PDDL_SIM_EVENT_QUEUE_HH
