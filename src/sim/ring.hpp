/**
 * @file
 * Vector-backed FIFO ring for component queues on the event hot path.
 *
 * A `std::deque` allocates a block per few elements as it grows and
 * frees it as it drains, so a queue that fills and empties every
 * microsecond of simulated time keeps the allocator busy.  `tg::Ring`
 * keeps its elements in one power-of-two vector that doubles when full
 * and never shrinks: once it has reached its high-water mark, push and
 * pop never allocate.  Order is strict FIFO, like the deque it replaces.
 */

#ifndef TELEGRAPHOS_SIM_RING_HPP
#define TELEGRAPHOS_SIM_RING_HPP

#include <cstddef>
#include <utility>
#include <vector>

namespace tg {

/** Growable FIFO ring.  T must be default-constructible and movable. */
template <typename T>
class Ring
{
  public:
    bool empty() const { return _count == 0; }
    std::size_t size() const { return _count; }

    /** Oldest element; the ring must be non-empty. */
    T &front() { return _slots[_head]; }
    const T &front() const { return _slots[_head]; }

    /** Append @p v behind every element already queued. */
    void
    push(T &&v)
    {
        if (_count == _slots.size())
            grow();
        _slots[(_head + _count) & (_slots.size() - 1)] = std::move(v);
        ++_count;
    }

    /** Remove and return the oldest element; the ring must be
     *  non-empty. */
    T
    pop()
    {
        T v = std::move(_slots[_head]);
        _head = (_head + 1) & (_slots.size() - 1);
        --_count;
        return v;
    }

  private:
    static constexpr std::size_t kMinSlots = 8;

    /** Double the capacity, unwrapping the elements to start at 0. */
    void
    grow()
    {
        std::vector<T> next(_slots.empty() ? kMinSlots : 2 * _slots.size());
        for (std::size_t i = 0; i < _count; ++i)
            next[i] = std::move(_slots[(_head + i) & (_slots.size() - 1)]);
        _slots.swap(next);
        _head = 0;
    }

    std::vector<T> _slots; ///< size is zero or a power of two
    std::size_t _head = 0;
    std::size_t _count = 0;
};

} // namespace tg

#endif // TELEGRAPHOS_SIM_RING_HPP
