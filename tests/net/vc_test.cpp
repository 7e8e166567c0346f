/**
 * @file
 * Unit tests of virtual-channel machinery: multi-lane channels share
 * the wire fairly, a blocked lane never stalls the other, and the VC
 * half of the switch's routing hook moves packets between lanes (the
 * dateline mechanism of paper reference [17]).
 */

#include <gtest/gtest.h>

#include "net/link.hpp"
#include "net/switch.hpp"
#include "sim/system.hpp"

namespace tg::net {
namespace {

Packet
mkPkt(NodeId dst, Word v, std::uint8_t vc = 0)
{
    Packet p;
    p.dst = dst;
    p.value = v;
    p.vc = vc;
    return p;
}

/** Routing hook: out of the port numbered like the destination, on the
 *  VC it came in on. */
constexpr auto toDstPort = [](const Packet &p, std::size_t,
                              std::uint8_t vc) {
    return Switch::Hop{p.dst, vc};
};

TEST(MultiLaneChannel, RoundRobinSharesTheWire)
{
    System sys{Config{}};
    BoundedQueue up0(sys.arena(), 8), up1(sys.arena(), 8),
        down0(sys.arena(), 8), down1(sys.arena(), 8);
    Channel ch(sys, "ch",
               {Channel::Lane{&up0, &down0}, Channel::Lane{&up1, &down1}},
               1.0, 0);

    for (Word i = 0; i < 4; ++i) {
        up0.push(mkPkt(0, 100 + i));
        up1.push(mkPkt(0, 200 + i));
    }
    sys.events().run();
    EXPECT_EQ(down0.size(), 4u);
    EXPECT_EQ(down1.size(), 4u);
    // One wire: total time is the sum of all serializations.
    EXPECT_EQ(sys.now(), 8u * 24u);
}

TEST(MultiLaneChannel, BlockedLaneDoesNotStallTheOther)
{
    System sys{Config{}};
    BoundedQueue up0(sys.arena(), 8), up1(sys.arena(), 8),
        down0(sys.arena(), 1), down1(sys.arena(), 8);
    Channel ch(sys, "ch",
               {Channel::Lane{&up0, &down0}, Channel::Lane{&up1, &down1}},
               1.0, 0);

    // Lane 0's downstream can hold only one packet.
    for (Word i = 0; i < 3; ++i)
        up0.push(mkPkt(0, 100 + i));
    for (Word i = 0; i < 3; ++i)
        up1.push(mkPkt(0, 200 + i));
    sys.events().run();

    EXPECT_EQ(down0.size(), 1u); // lane 0 blocked after one
    EXPECT_EQ(down1.size(), 3u); // lane 1 flowed freely (escape property)
    EXPECT_EQ(up0.size(), 2u);

    down0.pop();
    sys.events().run();
    EXPECT_EQ(down0.size(), 1u);
    EXPECT_EQ(up0.size(), 1u);
}

TEST(SwitchVc, VcMapBumpsPacketsToEscapeLane)
{
    System sys{Config{}};
    SwitchTotals totals;
    Switch sw(sys, "sw", totals, 2, /*vcs=*/2,
              [](const Packet &p, std::size_t, std::uint8_t vc) {
                  const std::size_t out_port = p.dst;
                  return Switch::Hop{out_port,
                                     out_port == 1 ? std::uint8_t(1) : vc};
              });

    sw.inQueue(0, 0).push(mkPkt(1, 42, 0));
    sys.events().run();
    EXPECT_TRUE(sw.outQueue(1, 0).empty());
    ASSERT_EQ(sw.outQueue(1, 1).size(), 1u);
    const Packet p = sw.outQueue(1, 1).pop();
    EXPECT_EQ(p.value, 42u);
    EXPECT_EQ(p.vc, 1);
}

TEST(SwitchVc, VcsHaveIndependentBuffers)
{
    Config cfg;
    cfg.switchQueuePackets = 1;
    System sys{cfg};
    SwitchTotals totals;
    Switch sw(sys, "sw", totals, 2, 2, toDstPort);

    // Fill VC0's output; VC1 traffic must still flow.
    sw.inQueue(0, 0).push(mkPkt(1, 1, 0));
    sys.events().run();
    EXPECT_EQ(sw.outQueue(1, 0).size(), 1u);

    sw.inQueue(0, 1).push(mkPkt(1, 2, 1));
    sys.events().run();
    EXPECT_EQ(sw.outQueue(1, 1).size(), 1u); // not blocked by VC0
}

TEST(SwitchVcDeathTest, VcMapOutOfRangePanics)
{
    System sys{Config{}};
    SwitchTotals totals;
    Switch sw(sys, "sw", totals, 2, 2,
              [](const Packet &p, std::size_t, std::uint8_t) {
                  return Switch::Hop{p.dst, 7};
              });
    EXPECT_DEATH(
        {
            sw.inQueue(0, 0).push(mkPkt(1, 1));
            sys.events().run();
        },
        "VC map");
}

} // namespace
} // namespace tg::net
