/**
 * @file
 * Bounded FIFO packet queue with reservation-based back-pressure.
 *
 * Every buffering point in the model (HIB link FIFOs, switch shared-buffer
 * shares) is a BoundedQueue.  Producers *reserve* a slot before starting a
 * transfer so that back-pressure propagates correctly: a transfer only
 * starts when the downstream buffer is guaranteed to have room, exactly
 * like the credit-based flow control of the real Telegraphos links
 * (paper references [16, 17]).
 *
 * Storage is a tg::Ring of PacketArena handles, which grows to the
 * queue's high-water mark and then never reallocates; the credit
 * capacity is enforced here, not by the ring.  The datapath (links,
 * fault-free or reliable, and switches) moves 32-bit handles between
 * queues via the *Handle methods: a reserved slot is only ever filled
 * with a handle.  Endpoints keep the value-based push/pop API, which
 * moves packets into / out of the arena at the boundary; front() is the
 * head packet's arena slot itself, read in place.  DESIGN.md section 14.
 */

#ifndef TELEGRAPHOS_NET_QUEUE_HPP
#define TELEGRAPHOS_NET_QUEUE_HPP

#include "net/arena.hpp"
#include "net/packet.hpp"
#include "sim/event.hpp"
#include "sim/invariant.hpp"
#include "sim/log.hpp"
#include "sim/ring.hpp"

namespace tg::net {

/**
 * Bounded FIFO with slot reservation.
 *
 * Capacity counts both queued packets and outstanding reservations.
 * Each end has one listener (onData for the consumer, onSpace for the
 * producer); registering a second one panics.  Listeners are invoked
 * synchronously; they must be idempotent "pump" functions that re-check
 * state.  A failed reserve() has no side effects, so a producer refused
 * a slot may wait for this queue's next onSpace and retry then: nothing
 * else can make room.
 * The switch relies on this to wake only the inputs blocked on the
 * output that drained (net/switch.hpp).
 */
class BoundedQueue
{
  public:
    using Listener = Fn<void()>;

    BoundedQueue(PacketArena &arena, std::size_t capacity)
        : _arena(arena), _capacity(capacity)
    {
        if (capacity == 0)
            panic("BoundedQueue capacity must be > 0");
    }

    ~BoundedQueue()
    {
        // Recycle anything still queued so arena accounting stays exact
        // when a simulation is torn down mid-flight.
        while (!_ring.empty())
            (void)_arena.release(_ring.pop());
    }

    /** The arena this queue's handles live in. */
    PacketArena &arena() { return _arena; }

    std::size_t capacity() const { return _capacity; }
    std::size_t size() const { return _ring.size(); }
    bool empty() const { return _ring.empty(); }

    /** True if a new reservation would be refused. */
    bool full() const { return _ring.size() + _reserved >= _capacity; }

    /** Try to claim a slot ahead of a future pushReservedHandle(). */
    bool
    reserve()
    {
        if (full())
            return false;
        ++_reserved;
        TG_AUDIT(_ring.size() + _reserved <= _capacity,
                 "credit overcommit: %zu queued + %zu reserved > %zu slots",
                 _ring.size(), _reserved, _capacity);
        return true;
    }

    /** Release an unused reservation. */
    void
    cancelReservation()
    {
        if (_reserved == 0)
            panic("cancelReservation with no reservation");
        --_reserved;
        notify(_onSpace);
    }

    // ------------------------------------------------------------------
    // Handle API: the zero-copy datapath (links, switches)
    // ------------------------------------------------------------------

    /** Fill a previously reserved slot with an in-flight handle. */
    void
    pushReservedHandle(PacketHandle h)
    {
        if (_reserved == 0)
            panic("pushReserved with no reservation");
        --_reserved;
        putHandle(h);
        notify(_onData);
    }

    /** Head handle (queue must be non-empty). */
    PacketHandle
    frontHandle() const
    {
        if (_ring.empty())
            panic("front of empty queue");
        return _ring.front();
    }

    /** Dequeue the head handle; wakes space listeners. */
    PacketHandle
    popHandle()
    {
        if (_ring.empty())
            panic("pop of empty queue");
        const PacketHandle h = _ring.pop();
        notify(_onSpace);
        return h;
    }

    // ------------------------------------------------------------------
    // Value API: the endpoint boundary (HIB, protocols, tests)
    // ------------------------------------------------------------------

    /** Push without prior reservation (panics when full). */
    void
    push(Packet &&p)
    {
        if (full())
            panic("push into full queue");
        putHandle(_arena.acquire(std::move(p)));
        notify(_onData);
    }

    /** Front packet: its arena slot (queue must be non-empty). */
    const Packet &
    front() const
    {
        if (_ring.empty())
            panic("front of empty queue");
        return _arena.packet(_ring.front());
    }

    /** Remove and return the front packet; wakes space listeners. */
    Packet
    pop()
    {
        if (_ring.empty())
            panic("pop of empty queue");
        Packet p = _arena.release(_ring.pop());
        notify(_onSpace);
        return p;
    }

    /** Subscribe the consumer to "a packet was enqueued". */
    void onData(Listener l) { listen(_onData, std::move(l)); }

    /** Subscribe the producer to "a slot was freed". */
    void onSpace(Listener l) { listen(_onSpace, std::move(l)); }

  private:
    static void
    listen(Listener &slot, Listener l)
    {
        if (slot)
            panic("BoundedQueue: second listener on one queue end");
        slot = std::move(l);
    }

    static void
    notify(Listener &l)
    {
        if (l)
            l();
    }

    void
    putHandle(PacketHandle h)
    {
        _ring.push(std::move(h));
        TG_AUDIT(_ring.size() + _reserved <= _capacity,
                 "credit overcommit: %zu queued + %zu reserved > %zu slots",
                 _ring.size(), _reserved, _capacity);
    }

    PacketArena &_arena;
    Ring<PacketHandle> _ring;
    std::size_t _capacity;
    std::size_t _reserved = 0;
    Listener _onData;
    Listener _onSpace;
};

} // namespace tg::net

#endif // TELEGRAPHOS_NET_QUEUE_HPP
