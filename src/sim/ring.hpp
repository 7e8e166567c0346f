/**
 * @file
 * Vector-backed FIFO ring: the one queue container of the model.
 *
 * Every buffering point is a FIFO — the switch and HIB packet queues
 * (net::BoundedQueue), a link's pending arrivals, the tracer's open-op
 * window, the TurboChannel and atomic-unit queues, the CPU write buffer
 * and the HIB's backlog and waiter lists — and every one of them is a
 * `tg::Ring`.  The elements live in one power-of-two vector that
 * doubles when full and never shrinks: once a ring has reached its
 * high-water mark, push and pop never allocate, and an idle queue holds
 * no storage at all.  Order is strict FIFO; operator[] reads the i-th
 * oldest element for the few owners that search their queue.
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

    /** Slots allocated (zero or a power of two, >= size()). */
    std::size_t capacity() const { return _slots.size(); }

    /** The @p i-th oldest element; requires i < size(). */
    T &operator[](std::size_t i) { return _slots[slot(i)]; }
    const T &operator[](std::size_t i) const { return _slots[slot(i)]; }

    /** Oldest element; the ring must be non-empty. */
    T &front() { return _slots[_head]; }
    const T &front() const { return _slots[_head]; }

    /** Newest element; the ring must be non-empty. */
    T &back() { return (*this)[_count - 1]; }
    const T &back() const { return (*this)[_count - 1]; }

    /** Append @p v behind every element already queued. */
    void
    push(T &&v)
    {
        if (_count == _slots.size())
            grow();
        _slots[slot(_count)] = std::move(v);
        ++_count;
    }

    /** Remove and return the oldest element; the ring must be
     *  non-empty. */
    T
    pop()
    {
        T v = std::move(_slots[_head]);
        _head = slot(1);
        --_count;
        return v;
    }

  private:
    static constexpr std::size_t kMinSlots = 8;

    /** Storage index of the element @p i positions from the oldest. */
    std::size_t
    slot(std::size_t i) const
    {
        return (_head + i) & (_slots.size() - 1);
    }

    /** Double the capacity, unwrapping the elements to start at 0. */
    void
    grow()
    {
        std::vector<T> next(_slots.empty() ? kMinSlots : 2 * _slots.size());
        for (std::size_t i = 0; i < _count; ++i)
            next[i] = std::move(_slots[slot(i)]);
        _slots.swap(next);
        _head = 0;
    }

    std::vector<T> _slots; ///< size is zero or a power of two
    std::size_t _head = 0;
    std::size_t _count = 0;
};

} // namespace tg

#endif // TELEGRAPHOS_SIM_RING_HPP
