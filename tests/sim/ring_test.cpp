/**
 * @file
 * Unit tests of tg::Ring, the one FIFO container of the model: packet
 * queues, link pending arrivals, the tracer's open-op window, the
 * TurboChannel, atomic-unit and HIB backlog queues, the CPU write buffer
 * and the waiter lists.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "sim/event.hpp"
#include "sim/ring.hpp"

namespace tg {
namespace {

TEST(Ring, KeepsFifoOrderWhileGrowingFromAWrappedState)
{
    Ring<int> r;
    std::vector<int> out;
    int next = 0;
    // Push 3, pop 2 per round: the head walks around the ring, so every
    // growth happens with the elements wrapped past the end.
    for (int round = 0; round < 40; ++round) {
        for (int i = 0; i < 3; ++i)
            r.push(next++);
        for (int i = 0; i < 2; ++i)
            out.push_back(r.pop());
    }
    EXPECT_EQ(r.size(), 40u);
    EXPECT_EQ(r.front(), 80);
    while (!r.empty())
        out.push_back(r.pop());
    ASSERT_EQ(out.size(), 120u);
    for (int i = 0; i < 120; ++i)
        EXPECT_EQ(out[i], i);
}

TEST(Ring, HoldsMoveOnlyClosures)
{
    Ring<Fn<int()>> r;
    for (int i = 0; i < 20; ++i)
        r.push([i] { return i * i; });
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(r.pop()(), i * i);
    EXPECT_TRUE(r.empty());
}

TEST(Ring, IndexesOldestFirstAcrossWrapAndGrowth)
{
    Ring<int> r;
    int next = 0, oldest = 0;
    // Fill the first 8 slots, then pop 5 and push 5: the head sits at
    // slot 5 and the newest elements wrap to slots 0-4.
    for (int i = 0; i < 8; ++i)
        r.push(next++);
    for (int i = 0; i < 5; ++i, ++oldest)
        EXPECT_EQ(r.pop(), oldest);
    for (int i = 0; i < 5; ++i)
        r.push(next++);
    ASSERT_EQ(r.capacity(), 8u);
    auto check = [&] {
        ASSERT_EQ(r.size(), std::size_t(next - oldest));
        for (std::size_t i = 0; i < r.size(); ++i)
            EXPECT_EQ(r[i], oldest + int(i));
        EXPECT_EQ(r.front(), oldest);
        EXPECT_EQ(r.back(), next - 1);
    };
    check();

    // The next push grows the wrapped ring; indexing still counts from
    // the oldest element.
    r.push(next++);
    EXPECT_EQ(r.capacity(), 16u);
    check();

    r[2] = -1; // writes through to the element popped third
    EXPECT_EQ(r.pop(), oldest++);
    EXPECT_EQ(r.pop(), oldest++);
    EXPECT_EQ(r.pop(), -1);
}

TEST(Ring, PoppingAPacketReleasesItsBulkPayload)
{
    Ring<net::Packet> r;
    auto words = std::make_shared<std::vector<Word>>(64, 7);
    const std::weak_ptr<std::vector<Word>> watch = words;
    net::Packet p;
    p.bulk = std::move(words);
    r.push(std::move(p));
    EXPECT_FALSE(watch.expired());
    {
        const net::Packet out = r.pop();
        ASSERT_TRUE(out.bulk);
        EXPECT_EQ(out.bulk->at(63), 7u);
    }
    // The vacated slot must not keep the payload alive.
    EXPECT_TRUE(watch.expired());
    EXPECT_TRUE(r.empty());
}

} // namespace
} // namespace tg
