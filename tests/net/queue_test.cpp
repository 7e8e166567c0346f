/**
 * @file
 * Unit tests of the bounded queue with reservations (back-pressure core),
 * including ring-buffer wraparound edge cases (ArenaQueue suite) for the
 * fixed-capacity handle ring that replaced the deque backing store.
 */

#include <gtest/gtest.h>

#include "net/arena.hpp"
#include "net/queue.hpp"

namespace tg::net {
namespace {

Packet
mkPkt(Word v)
{
    Packet p;
    p.value = v;
    return p;
}

TEST(BoundedQueue, FifoOrder)
{
    PacketArena arena;
    BoundedQueue q(arena, 4);
    q.push(mkPkt(1));
    q.push(mkPkt(2));
    q.push(mkPkt(3));
    EXPECT_EQ(q.pop().value, 1u);
    EXPECT_EQ(q.pop().value, 2u);
    EXPECT_EQ(q.pop().value, 3u);
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, ReservationsCountAgainstCapacity)
{
    PacketArena arena;
    BoundedQueue q(arena, 2);
    EXPECT_TRUE(q.reserve());
    EXPECT_TRUE(q.reserve());
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.reserve());
    q.pushReservedHandle(arena.acquire(mkPkt(1)));
    EXPECT_TRUE(q.full()); // 1 queued + 1 reserved
    q.cancelReservation();
    EXPECT_FALSE(q.full());
}

TEST(BoundedQueue, OnDataFires)
{
    PacketArena arena;
    BoundedQueue q(arena, 2);
    int fired = 0;
    q.onData([&] { ++fired; });
    q.push(mkPkt(1));
    EXPECT_EQ(fired, 1);
    ASSERT_TRUE(q.reserve());
    q.pushReservedHandle(arena.acquire(mkPkt(2)));
    EXPECT_EQ(fired, 2);
}

TEST(BoundedQueue, OnSpaceFiresOnPopAndCancel)
{
    PacketArena arena;
    BoundedQueue q(arena, 1);
    int fired = 0;
    q.onSpace([&] { ++fired; });
    q.push(mkPkt(1));
    q.pop();
    EXPECT_EQ(fired, 1);
    ASSERT_TRUE(q.reserve());
    q.cancelReservation();
    EXPECT_EQ(fired, 2);
}

TEST(BoundedQueueDeathTest, SecondListenerPanics)
{
    // One consumer and one producer per queue: a second subscription to
    // either end is a wiring bug (it would pump its owner twice).
    PacketArena arena;
    BoundedQueue q(arena, 2);
    q.onData([] {});
    q.onSpace([] {});
    EXPECT_DEATH(q.onData([] {}), "second listener");
    EXPECT_DEATH(q.onSpace([] {}), "second listener");
}

TEST(BoundedQueueDeathTest, OverflowPanics)
{
    PacketArena arena;
    BoundedQueue q(arena, 1);
    q.push(mkPkt(1));
    EXPECT_DEATH(q.push(mkPkt(2)), "full");
}

TEST(BoundedQueueDeathTest, PopEmptyPanics)
{
    PacketArena arena;
    BoundedQueue q(arena, 1);
    EXPECT_DEATH(q.pop(), "empty");
}

// ---------------------------------------------------------------------
// Ring-buffer wraparound edge cases (fixed-capacity handle ring)
// ---------------------------------------------------------------------

TEST(ArenaQueueWrap, FifoOrderSurvivesManyWraps)
{
    PacketArena arena;
    BoundedQueue q(arena, 3);
    Word next_in = 0, next_out = 0;
    // Keep the queue at mixed occupancy across > capacity cycles so the
    // head/tail indices wrap dozens of times.
    for (int round = 0; round < 50; ++round) {
        while (!q.full())
            q.push(mkPkt(next_in++));
        q.pop(); // leave occupancy 2 so indices drift, not reset
        EXPECT_EQ(q.pop().value, next_out + 1);
        next_out += 2;
        EXPECT_EQ(q.front().value, next_out);
    }
    while (!q.empty())
        EXPECT_EQ(q.pop().value, next_out++);
    EXPECT_EQ(next_in, next_out);
}

TEST(ArenaQueueWrap, ReserveCancelAcrossWrapBoundary)
{
    PacketArena arena;
    BoundedQueue q(arena, 2);
    // Drift the head to the last ring slot, then exercise reserve/
    // cancel/pushReservedHandle with the tail wrapped to slot 0.
    q.push(mkPkt(1));
    q.push(mkPkt(2));
    EXPECT_EQ(q.pop().value, 1u); // head -> slot 1
    ASSERT_TRUE(q.reserve());
    EXPECT_TRUE(q.full());
    q.cancelReservation();
    ASSERT_TRUE(q.reserve());
    q.pushReservedHandle(arena.acquire(mkPkt(3))); // lands in wrapped slot 0
    EXPECT_EQ(q.pop().value, 2u);
    EXPECT_EQ(q.pop().value, 3u);
    EXPECT_TRUE(q.empty());
}

TEST(ArenaQueueWrap, PushReservedInterleavedWithPopsWraps)
{
    PacketArena arena;
    BoundedQueue q(arena, 2);
    Word v = 10;
    q.push(mkPkt(v++));
    for (int i = 0; i < 7; ++i) {
        ASSERT_TRUE(q.reserve());
        q.pushReservedHandle(arena.acquire(mkPkt(v++)));
        EXPECT_TRUE(q.full());
        EXPECT_EQ(q.pop().value, v - 2 + 0);
    }
    EXPECT_EQ(q.pop().value, v - 1);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());
}

TEST(ArenaQueueWrap, HandlesRecycleThroughTheArena)
{
    PacketArena arena;
    BoundedQueue q(arena, 2);
    for (Word v = 0; v < 100; ++v) {
        q.push(mkPkt(v));
        EXPECT_EQ(q.pop().value, v);
    }
    // One chunk is enough for a single-occupancy cycle: the free list
    // recycles the same slot, so the arena never grows past warm-up.
    EXPECT_EQ(arena.chunkAllocs(), 1u);
    EXPECT_EQ(arena.live(), 0u);
    EXPECT_EQ(arena.highWater(), 1u);
}

TEST(ArenaQueueWrap, DestructorReleasesQueuedSlots)
{
    PacketArena arena;
    {
        BoundedQueue q(arena, 4);
        q.push(mkPkt(1));
        q.push(mkPkt(2));
        EXPECT_EQ(arena.live(), 2u);
    }
    EXPECT_EQ(arena.live(), 0u);
}

} // namespace
} // namespace tg::net
