/**
 * @file
 * Ladder/calendar event queue implementation.
 *
 * Ordering invariant: the ladder never holds an event whose tick lies
 * inside the wheel window.  The window base only moves in spill-guarded
 * steps (advanceWindow), and it moves *before* any callback at the new
 * time runs, so every ladder entry for a tick reaches its bucket before
 * any direct schedule for that tick can append — per-bucket FIFO order
 * is therefore exactly (when, seq) order.
 *
 * Storage invariant: every slot is in exactly one place — a bucket, the
 * ladder, the free list, or (while its closure fires) none of them.
 */

#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/log.hpp"

namespace tg {

void
EventQueue::pushLadder(Tick when, Slot *s)
{
    _ladder.push_back(LadderEntry{when, s->seq, s});
    std::push_heap(_ladder.begin(), _ladder.end(), FiresLater{});
}

void
EventQueue::placeReserved(Tick when, Slot *s)
{
    if (!inWheel(when)) {
        pushLadder(when, s);
        return;
    }
    // Slots scheduled after the seq was taken sit behind it; walk past
    // the older ones.  A bucket holds the few events of one tick.
    const std::size_t idx = when & kWheelMask;
    Bucket &b = _wheel[idx];
    if (b.tail == nullptr || b.tail->seq < s->seq) {
        pushWheel(when, s);
        return;
    }
    Slot **link = &b.head;
    while ((*link)->seq < s->seq)
        link = &(*link)->next;
    s->next = *link;
    *link = s;
    ++_wheelCount;
}

void
EventQueue::grow()
{
    // Chunks are never freed or moved before the queue dies, so a slot
    // stays put while its closure fires and schedules more events.
    _chunks.push_back(std::make_unique<Slot[]>(kChunkSlots));
    Slot *chunk = _chunks.back().get();
    for (std::size_t i = kChunkSlots; i-- > 0;) {
        chunk[i].next = _free;
        _free = &chunk[i];
    }
}

void
EventQueue::pushWheel(Tick when, Slot *s)
{
    const std::size_t idx = when & kWheelMask;
    Bucket &b = _wheel[idx];
    s->next = nullptr;
    if (b.tail == nullptr) {
        b.head = s;
        _occupied[idx / 64] |= std::uint64_t(1) << (idx % 64);
    } else {
        b.tail->next = s;
    }
    b.tail = s;
    ++_wheelCount;
}

void
EventQueue::spill()
{
    while (!_ladder.empty() && inWheel(_ladder.front().when)) {
        std::pop_heap(_ladder.begin(), _ladder.end(), FiresLater{});
        const LadderEntry e = _ladder.back();
        _ladder.pop_back();
        pushWheel(e.when, e.slot);
    }
}

void
EventQueue::advanceWindow(Tick base)
{
    // Buckets index by absolute tick (when & mask), so events already in
    // the wheel stay valid across the move; only the containment window
    // shifts, admitting ladder entries that now fall inside it.
    _base = base;
    spill();
}

std::size_t
EventQueue::firstOccupied() const
{
    const std::size_t start = _base & kWheelMask;
    const std::size_t word0 = start / 64;
    const std::uint64_t high =
        _occupied[word0] & (~std::uint64_t(0) << (start % 64));
    if (high != 0)
        return word0 * 64 + std::size_t(std::countr_zero(high));
    for (std::size_t k = 1; k < kBitmapWords; ++k) {
        const std::size_t w = (word0 + k) & (kBitmapWords - 1);
        if (_occupied[w] != 0)
            return w * 64 + std::size_t(std::countr_zero(_occupied[w]));
    }
    const std::uint64_t low =
        _occupied[word0] & ~(~std::uint64_t(0) << (start % 64));
    return word0 * 64 + std::size_t(std::countr_zero(low));
}

Tick
EventQueue::nextWhen() const
{
    // Wheel events lie in [_base, _base + W), ladder events at or beyond
    // _base + W, so a non-empty wheel always holds the earliest event.
    if (_wheelCount != 0) {
        const std::size_t idx = firstOccupied();
        return _base + ((idx - (_base & kWheelMask)) & kWheelMask);
    }
    return _ladder.front().when;
}

void
EventQueue::pop_and_fire()
{
    if (_wheelCount == 0) {
        // Wheel drained: jump the window straight to the next ladder
        // tick instead of sweeping empty buckets one lap at a time.
        advanceWindow(_ladder.front().when);
    }

    const std::size_t idx = firstOccupied();
    const Tick when = _base + ((idx - (_base & kWheelMask)) & kWheelMask);

    // Advance the window *before* firing: callbacks at the new time may
    // schedule into ticks the old window did not cover, and any ladder
    // entries for those ticks (necessarily older seq) must reach their
    // buckets first to keep FIFO order == seq order.
    if (when > _now) {
        _now = when;
        advanceWindow(when);
    }

    // Unlink the head slot and drop the occupancy bit of a drained
    // bucket before the callback runs: it may schedule back into this
    // bucket.
    Bucket &b = _wheel[idx];
    Slot *s = b.head;
    b.head = s->next;
    if (b.head == nullptr) {
        b.tail = nullptr;
        _occupied[idx / 64] &= ~(std::uint64_t(1) << (idx % 64));
    }
    --_wheelCount;

    ++_executed;
    _cursor = s->seq;
    _trace.mix(when);
    _trace.mix(s->seq);
    // Fire in place.  The slot is off every list but not yet free, so
    // the callback's own schedules take other slots.
    s->cb();
    s->cb = nullptr;
    s->next = _free;
    _free = s;
}

void
EventQueue::settleCursor()
{
    // Between events the window starts at now(), so the bucket of now()
    // holds exactly the events pending at now(), least seq first.
    const Bucket &b = _wheel[_now & kWheelMask];
    _cursor = b.head != nullptr ? b.head->seq : kPastAll;
}

std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (!empty() && n < max_events) {
        pop_and_fire();
        ++n;
    }
    settleCursor();
    return n;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t n = 0;
    while (!empty() && nextWhen() <= limit) {
        pop_and_fire();
        ++n;
    }
    if (_now < limit) {
        _now = limit;
        advanceWindow(limit);
    }
    settleCursor();
    return n;
}

} // namespace tg
