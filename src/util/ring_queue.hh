/**
 * @file
 * RingQueue: an order-preserving FIFO that keeps its capacity.
 *
 * std::deque allocates and frees a fixed-size chunk every few hundred
 * push/pop pairs even at a steady depth, which would put heap traffic
 * on the cache tier's stall queue. A ring over a power-of-two vector
 * grows to the queue's peak depth once and then recycles its slots.
 */

#ifndef PDDL_UTIL_RING_QUEUE_HH
#define PDDL_UTIL_RING_QUEUE_HH

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace pddl {

/** FIFO ring of default-constructible, movable elements. */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** Element `i` positions behind the head (0 = front). */
    T &
    operator[](size_t i)
    {
        assert(i < size_);
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }

    T &front() { return (*this)[0]; }

    void
    push_back(T value)
    {
        if (size_ == slots_.size())
            grow();
        slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
        ++size_;
    }

    void
    pop_front()
    {
        assert(size_ > 0);
        slots_[head_] = T();
        head_ = (head_ + 1) & (slots_.size() - 1);
        --size_;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
        for (size_t i = 0; i < size_; ++i)
            bigger[i] = std::move((*this)[i]);
        slots_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> slots_; ///< power-of-two sized (or empty)
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace pddl

#endif // PDDL_UTIL_RING_QUEUE_HH
