/**
 * @file
 * Unit tests of tg::Ring, the vector-backed FIFO behind the TurboChannel
 * transaction queue and the CPU write buffer.
 */

#include <gtest/gtest.h>

#include <vector>

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

} // namespace
} // namespace tg
