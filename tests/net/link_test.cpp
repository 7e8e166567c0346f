/**
 * @file
 * Unit tests of the Channel (link) model: serialization, propagation,
 * back-pressure, in-order delivery, utilization accounting.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/link.hpp"
#include "sim/system.hpp"

namespace tg::net {
namespace {

class LinkTest : public ::testing::Test
{
  protected:
    LinkTest() : sys(Config{}), up(sys.arena(), 8), down(sys.arena(), 4) {}

    Packet
    mkPkt(Word v, std::uint32_t payload = 8)
    {
        Packet p;
        p.value = v;
        p.payloadBytes = payload;
        return p;
    }

    System sys;
    BoundedQueue up;
    BoundedQueue down;
};

TEST_F(LinkTest, DeliversWithSerializationPlusDelay)
{
    // bw 1 B/tick, delay 10: a (16+8)-byte packet lands at 24 + 10.
    Channel ch(sys, "ch", up, down, 1.0, 10);
    up.push(mkPkt(7));
    sys.events().run();
    ASSERT_EQ(down.size(), 1u);
    EXPECT_EQ(down.pop().value, 7u);
    EXPECT_EQ(sys.now(), 34u);
}

TEST_F(LinkTest, InOrderDelivery)
{
    Channel ch(sys, "ch", up, down, 1.0, 5);
    for (Word i = 0; i < 4; ++i)
        up.push(mkPkt(i));
    sys.events().run();
    for (Word i = 0; i < 4; ++i)
        EXPECT_EQ(down.pop().value, i);
}

TEST_F(LinkTest, BackPressureStallsWhenDownstreamFull)
{
    Channel ch(sys, "ch", up, down, 1.0, 0);
    for (Word i = 0; i < 8; ++i)
        up.push(mkPkt(i));
    sys.events().run();
    // Downstream capacity 4: only 4 packets crossed.
    EXPECT_EQ(down.size(), 4u);
    EXPECT_EQ(up.size(), 4u);

    // Draining downstream resumes the channel.
    down.pop();
    down.pop();
    sys.events().run();
    EXPECT_EQ(down.size(), 4u);
    EXPECT_EQ(up.size(), 2u);
}

TEST_F(LinkTest, SeveralPacketsInFlightLandInOrderAfterSerPlusDelay)
{
    // bw 1 B/tick, delay 100: each 24-byte packet frees the wire after 24
    // ticks, so the first four are in flight at once and hold all four
    // downstream slots.  The fifth and sixth wait for the credits the
    // first two return when they land and are popped.
    Channel ch(sys, "ch", up, down, 1.0, 100);
    std::vector<std::pair<Word, Tick>> landed;
    down.onData([&] {
        const Word v = down.front().value;
        down.pop();
        landed.emplace_back(v, sys.now());
    });
    for (Word i = 0; i < 6; ++i)
        up.push(mkPkt(i));
    sys.events().run();
    const std::vector<std::pair<Word, Tick>> want = {
        {0, 124}, {1, 148}, {2, 172}, {3, 196}, {4, 248}, {5, 272}};
    EXPECT_EQ(landed, want);
}

TEST_F(LinkTest, WireFreeFiresOnlyForAWaitingPacket)
{
    BoundedQueue src(sys.arena(), 12);
    Channel ch(sys, "ch", src, down, 1.0, 10);
    down.onData([&] { down.pop(); });

    // Isolated sends: nothing waits when the wire frees, so each send
    // fires its delivery alone.
    for (Word i = 0; i < 5; ++i) {
        src.push(mkPkt(i));
        sys.events().run();
    }
    EXPECT_EQ(ch.packets(), 5u);
    EXPECT_EQ(sys.events().executed(), 5u);

    // A back-to-back burst: every packet but the last frees the wire
    // with the next one waiting, so its wire-free fires and sends it.
    const std::uint64_t before = sys.events().executed();
    for (Word i = 0; i < 12; ++i)
        src.push(mkPkt(i));
    sys.events().run();
    EXPECT_EQ(ch.packets(), 17u);
    EXPECT_EQ(sys.events().executed() - before, 2u * 12 - 1);
}

TEST_F(LinkTest, PacketArrivingWhileTheWireIsHeldArmsItsWireFree)
{
    // The second packet arrives mid-send: the wire-free is armed then,
    // at the place it was reserved, and sends it when the first ends.
    Channel ch(sys, "ch", up, down, 1.0, 100);
    std::vector<std::pair<Word, Tick>> landed;
    down.onData([&] {
        landed.emplace_back(down.front().value, sys.now());
        down.pop();
    });
    up.push(mkPkt(0));
    sys.events().runUntil(10);
    up.push(mkPkt(1));
    sys.events().run();
    const std::vector<std::pair<Word, Tick>> want = {{0, 124}, {1, 148}};
    EXPECT_EQ(landed, want);
    EXPECT_EQ(sys.events().executed(), 3u);

    // Between runs: pushed after the wire freed (at 174), with the
    // previous send's delivery still pending, a packet starts at once.
    landed.clear();
    sys.events().runUntil(150);
    up.push(mkPkt(2));
    sys.events().runUntil(200);
    up.push(mkPkt(3));
    sys.events().run();
    EXPECT_EQ(landed, (std::vector<std::pair<Word, Tick>>{{2, 274},
                                                           {3, 324}}));
    EXPECT_EQ(sys.events().executed(), 5u);
}

TEST_F(LinkTest, ThroughputMatchesBandwidth)
{
    // 100 packets x 24 B at 0.5 B/tick => 4800 ticks of serialization.
    Channel ch(sys, "ch", up, down, 0.5, 0);
    Tick last = 0;
    int received = 0;
    down.onData([&] {
        last = sys.now();
        ++received;
        down.pop();
    });
    for (Word i = 0; i < 100; ++i) {
        if (!up.full())
            up.push(mkPkt(i));
        sys.events().run();
    }
    EXPECT_EQ(received, 100);
    EXPECT_EQ(last, 4800u);
    EXPECT_EQ(ch.packets(), 100u);
    EXPECT_EQ(ch.bytes(), 2400u);
}

TEST_F(LinkTest, UtilizationAccounting)
{
    Channel ch(sys, "ch", up, down, 1.0, 0);
    up.push(mkPkt(0)); // 24 ticks of busy
    sys.events().run();
    sys.events().runUntil(48);
    EXPECT_NEAR(ch.utilization(), 0.5, 0.01);
}

TEST_F(LinkTest, UtilizationNeverExceedsOneMidTransmission)
{
    // Halfway through a 24-tick send the wire has been busy for at most
    // the 12 ticks that have elapsed.
    Channel ch(sys, "ch", up, down, 1.0, 0);
    up.push(mkPkt(0));
    sys.events().runUntil(12);
    EXPECT_EQ(down.size(), 0u);
    EXPECT_LE(ch.utilization(), 1.0);
    sys.events().run();
    EXPECT_DOUBLE_EQ(ch.utilization(), 1.0);
}

} // namespace
} // namespace tg::net
