/**
 * @file
 * Deterministic discrete-event queue: two-level ladder/calendar scheduler.
 *
 * Events scheduled for the same tick fire in scheduling order (a
 * monotonically increasing sequence number breaks ties), so a simulation
 * with a fixed seed is bit-for-bit reproducible.
 *
 * Structure (DESIGN.md section 9):
 *
 *  - a *timing wheel* of per-tick FIFO buckets covering the near-term
 *    window [now, now + kWheelTicks): O(1) schedule and pop for the
 *    short link / TurboChannel / HIB delays that dominate the event mix;
 *  - a sorted *overflow ladder* (binary min-heap on (when, seq)) for
 *    far-future events — retransmit timeouts, down-windows, OS costs,
 *    page-sized serializations — spilled into the wheel as the window
 *    advances over them.
 *
 * Every pending closure lives in a *slot* of one per-queue pool: slots
 * sit in fixed chunks that never move and recycle through a LIFO free
 * list.  A wheel bucket is an intrusive FIFO of slots, a ladder entry is
 * a 24-byte (when, seq, slot) record, so neither structure ever moves a
 * closure.  A closure is built in its slot on schedule; it fires in
 * place and is destroyed there.
 *
 * A component may reserve a place in the (when, seq) order without
 * scheduling anything (takeSeq), then arm an event at exactly that
 * place later, while the engine has not passed it (scheduleAbsSeq).
 * The link's wire-free is the one user (DESIGN.md section 14.2).
 *
 * The exact (when, seq) total order of the original binary-heap engine
 * is preserved, so same-seed trace hashes are byte-identical.  Slots
 * and closures recycle through free lists, so steady-state execution
 * performs zero heap allocations per event.
 */

#ifndef TELEGRAPHOS_SIM_EVENT_QUEUE_HPP
#define TELEGRAPHOS_SIM_EVENT_QUEUE_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/invariant.hpp"
#include "sim/types.hpp"

namespace tg {

/**
 * The global event queue driving the simulation.
 *
 * Components schedule closures at absolute or relative ticks; run() drains
 * the queue until it is empty or a limit is reached.  There is exactly one
 * EventQueue per System.
 */
class EventQueue
{
  public:
    using Callback = Event;

    /** Width of the near-term timing wheel, in ticks (one bucket each). */
    static constexpr std::size_t kWheelTicks = 4096;

    /** Slots per pool chunk; the pool grows a chunk at a time. */
    static constexpr std::size_t kChunkSlots = 256;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Destroys every closure still pending (the chunks own them). */
    ~EventQueue() = default;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Schedule @p f at absolute tick @p when (must be >= now()).  A
     *  callable is built in its pool slot (an Event is moved in) and
     *  fires there. */
    template <typename F>
    void
    scheduleAbs(Tick when, F &&f)
    {
        TG_AUDIT(when >= _now,
                 "event scheduled in the past: when=%llu now=%llu",
                 (unsigned long long)when, (unsigned long long)_now);
        Slot *s = acquire();
        s->cb.emplace(std::forward<F>(f));
        s->seq = _seq++;
        place(when, s);
    }

    /** Schedule @p f @p delta ticks from now. */
    template <typename F>
    void
    schedule(Tick delta, F &&f)
    {
        scheduleAbs(_now + delta, std::forward<F>(f));
    }

    /** Take the sequence number a schedule made now would get, without
     *  scheduling: it reserves a place (when, seq) for any when >=
     *  now(), which scheduleAbsSeq may arm later. */
    std::uint64_t takeSeq() { return _seq++; }

    /** Schedule @p f at the reserved place (@p when, @p seq), which the
     *  engine must not have passed: it fires exactly where an event
     *  scheduled when @p seq was taken would have. */
    template <typename F>
    void
    scheduleAbsSeq(Tick when, std::uint64_t seq, F &&f)
    {
        TG_AUDIT(!passed(when, seq) && seq < _seq,
                 "armed place (%llu, %llu) is passed or was never taken",
                 (unsigned long long)when, (unsigned long long)seq);
        Slot *s = acquire();
        s->cb.emplace(std::forward<F>(f));
        s->seq = seq;
        placeReserved(when, s);
    }

    /**
     * True once the engine is past the place (@p when, @p seq): an event
     * there would already have fired.  While an event fires, the cursor
     * is that event's (now, seq); between events it sits just before the
     * next pending event at now(), or after every place at now() when
     * none is pending there.
     */
    bool
    passed(Tick when, std::uint64_t seq) const
    {
        return when < _now || (when == _now && seq < _cursor);
    }

    /**
     * Run until the queue is empty or @p max_events have fired.
     * @return number of events executed.
     */
    std::uint64_t run(std::uint64_t max_events = ~std::uint64_t(0));

    /**
     * Run until simulated time reaches @p limit (events at exactly @p limit
     * still fire) or the queue drains.
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick limit);

    /** True when no event is pending. */
    bool empty() const { return _wheelCount == 0 && _ladder.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return _wheelCount + _ladder.size(); }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return _executed; }

    /** The sequence number the next schedule takes (checkpointing). */
    std::uint64_t nextSeq() const { return _seq; }

    /**
     * Trace-hash accumulator over the run: every fired event mixes
     * (when, seq); components mix packet fields at the HIB boundaries.
     * Comparing values across two same-seed runs proves/refutes
     * bit-for-bit determinism (DESIGN.md section 7).
     */
    audit::TraceHash &trace() { return _trace; }
    const audit::TraceHash &trace() const { return _trace; }

    /**
     * Restore the clock after a checkpoint (DESIGN.md section 14.5).
     * Only legal while the queue is empty: a quiescent checkpoint never
     * has pending events, so the clock, the tie-break sequence counter
     * and the executed count are the queue's entire surviving state.
     */
    void
    restoreClock(Tick now, std::uint64_t seq, std::uint64_t executed)
    {
        TG_AUDIT(empty(), "restoreClock with %zu pending events",
                 pending());
        _now = _base = now;
        _seq = seq;
        _cursor = kPastAll;
        _executed = executed;
    }

  private:
    static constexpr std::size_t kWheelMask = kWheelTicks - 1;
    static constexpr std::size_t kBitmapWords = kWheelTicks / 64;
    /** Cursor seq past every place at now(). */
    static constexpr std::uint64_t kPastAll = ~std::uint64_t(0);

    /** One pending event.  `next` links the slot into its wheel bucket
     *  while pending and into the free list while free; a free slot's
     *  closure is always empty. */
    struct Slot
    {
        Slot *next = nullptr;
        std::uint64_t seq = 0;
        Event cb;
    };

    /** One wheel tick: its slots in FIFO (= seq) order. */
    struct Bucket
    {
        Slot *head = nullptr;
        Slot *tail = nullptr;
    };

    /** Overflow entry: plain data, so heap sifts copy 24 bytes. */
    struct LadderEntry
    {
        Tick when;
        std::uint64_t seq;
        Slot *slot;
    };

    /** Heap comparator: true when @p a fires after @p b (min on top). */
    struct FiresLater
    {
        bool
        operator()(const LadderEntry &a, const LadderEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** True when @p when lands in the wheel window [base, base+W).
     *  Callers guarantee when >= _base, so the subtraction is safe. */
    bool inWheel(Tick when) const { return when - _base < kWheelTicks; }

    /** Take a free slot, growing the pool by one chunk when empty. */
    Slot *
    acquire()
    {
        if (_free == nullptr)
            grow();
        Slot *s = _free;
        _free = s->next;
        return s;
    }

    void grow();

    /** Link @p s (its seq the newest) into the wheel or the ladder. */
    void
    place(Tick when, Slot *s)
    {
        if (inWheel(when))
            pushWheel(when, s);
        else
            pushLadder(when, s);
    }

    /** Link @p s (an older, reserved seq) into the wheel, seq-sorted
     *  within its bucket, or into the ladder. */
    void placeReserved(Tick when, Slot *s);

    /** Append @p s (its seq already set) to the bucket of tick @p when. */
    void pushWheel(Tick when, Slot *s);

    /** Push @p s (its seq already set) onto the overflow ladder. */
    void pushLadder(Tick when, Slot *s);

    /** Set the between-events cursor once a run stops. */
    void settleCursor();

    /** Move ladder events now inside the wheel window into their buckets
     *  (in (when, seq) order, so bucket FIFO order stays correct). */
    void spill();

    /** Re-anchor the window at @p base (>= _now) and spill. */
    void advanceWindow(Tick base);

    /** Earliest pending tick; queue must be non-empty. */
    Tick nextWhen() const;

    /** Bitmap scan for the first occupied bucket at or after the window
     *  base; the wheel must be non-empty. */
    std::size_t firstOccupied() const;

    void pop_and_fire();

    std::vector<std::unique_ptr<Slot[]>> _chunks; // slot pool; never move
    Slot *_free = nullptr;
    std::array<Bucket, kWheelTicks> _wheel{};
    std::array<std::uint64_t, kBitmapWords> _occupied{};
    std::size_t _wheelCount = 0;
    std::vector<LadderEntry> _ladder; // binary min-heap via std::*_heap
    Tick _now = 0;
    Tick _base = 0; ///< wheel window start (== _now between events)
    std::uint64_t _seq = 0;
    std::uint64_t _cursor = kPastAll; ///< see passed()
    std::uint64_t _executed = 0;
    audit::TraceHash _trace;
};

#ifdef TG_REFERENCE_HEAP

/**
 * Reference implementation: the original single binary heap, kept for
 * differential tests only (compile with -DTG_REFERENCE_HEAP).  Pops by
 * value via std::pop_heap — no const_cast of a priority_queue top.
 * Must fire in exactly the same (when, seq) order as EventQueue.
 */
class ReferenceEventQueue
{
  public:
    using Callback = Event;

    ReferenceEventQueue() = default;
    ReferenceEventQueue(const ReferenceEventQueue &) = delete;
    ReferenceEventQueue &operator=(const ReferenceEventQueue &) = delete;

    Tick now() const { return _now; }

    void
    scheduleAbs(Tick when, Callback &&cb)
    {
        TG_AUDIT(when >= _now,
                 "event scheduled in the past: when=%llu now=%llu",
                 (unsigned long long)when, (unsigned long long)_now);
        push(when, _seq++, std::move(cb));
    }

    void schedule(Tick delta, Callback &&cb) { scheduleAbs(_now + delta, std::move(cb)); }

    std::uint64_t takeSeq() { return _seq++; }

    void
    scheduleAbsSeq(Tick when, std::uint64_t seq, Callback &&cb)
    {
        TG_AUDIT(!passed(when, seq) && seq < _seq,
                 "armed place (%llu, %llu) is passed or was never taken",
                 (unsigned long long)when, (unsigned long long)seq);
        push(when, seq, std::move(cb));
    }

    bool
    passed(Tick when, std::uint64_t seq) const
    {
        return when < _now || (when == _now && seq < _cursor);
    }

    std::uint64_t
    run(std::uint64_t max_events = ~std::uint64_t(0))
    {
        std::uint64_t n = 0;
        while (!_heap.empty() && n < max_events) {
            pop_and_fire();
            ++n;
        }
        settleCursor();
        return n;
    }

    std::uint64_t
    runUntil(Tick limit)
    {
        std::uint64_t n = 0;
        while (!_heap.empty() && _heap.front().when <= limit) {
            pop_and_fire();
            ++n;
        }
        if (_now < limit)
            _now = limit;
        settleCursor();
        return n;
    }

    bool empty() const { return _heap.empty(); }
    std::size_t pending() const { return _heap.size(); }
    std::uint64_t executed() const { return _executed; }

    audit::TraceHash &trace() { return _trace; }
    const audit::TraceHash &trace() const { return _trace; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event cb;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    void
    push(Tick when, std::uint64_t seq, Callback &&cb)
    {
        _heap.push_back(Entry{when, seq, std::move(cb)});
        std::push_heap(_heap.begin(), _heap.end(), Later{});
    }

    void
    settleCursor()
    {
        _cursor = !_heap.empty() && _heap.front().when == _now
                      ? _heap.front().seq
                      : ~std::uint64_t(0);
    }

    void
    pop_and_fire()
    {
        std::pop_heap(_heap.begin(), _heap.end(), Later{});
        Entry e = std::move(_heap.back());
        _heap.pop_back();
        TG_AUDIT(e.when >= _now,
                 "event queue time went backwards: firing %llu at now=%llu",
                 (unsigned long long)e.when, (unsigned long long)_now);
        _now = e.when;
        _cursor = e.seq;
        ++_executed;
        _trace.mix(e.when);
        _trace.mix(e.seq);
        e.cb();
    }

    std::vector<Entry> _heap;
    Tick _now = 0;
    std::uint64_t _seq = 0;
    std::uint64_t _cursor = ~std::uint64_t(0);
    std::uint64_t _executed = 0;
    audit::TraceHash _trace;
};

#endif // TG_REFERENCE_HEAP

} // namespace tg

#endif // TELEGRAPHOS_SIM_EVENT_QUEUE_HPP
