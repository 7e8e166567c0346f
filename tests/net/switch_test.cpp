/**
 * @file
 * Unit tests of the shared-buffer switch: routing through its one
 * hook, forwarding latency, head-of-line back-pressure, the wake-up
 * order of inputs blocked on a drained output, re-evaluation after a
 * route change, and per-(src,dst) in-order delivery — the property the
 * coherence protocol relies on (paper section 2.3.1).  The "no route"
 * panic for a destination beyond the topology is the network's, and is
 * tested in network_test.cpp.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/switch.hpp"
#include "sim/random.hpp"
#include "sim/system.hpp"

namespace tg::net {
namespace {

Packet
mkPkt(NodeId src, NodeId dst, Word v)
{
    Packet p;
    p.src = src;
    p.dst = dst;
    p.value = v;
    return p;
}

/** Routing hook sending each packet out of the port numbered like its
 *  destination node, on the VC it came in on. */
constexpr auto toDstPort = [](const Packet &p, std::size_t,
                              std::uint8_t vc) {
    return Switch::Hop{p.dst, vc};
};

TEST(Switch, RoutesToConfiguredPort)
{
    System sys{Config{}};
    SwitchTotals totals;
    Switch sw(sys, "sw", totals, 3, 2, toDstPort);

    sw.inQueue(0).push(mkPkt(0, 2, 5));
    sys.events().run();
    ASSERT_EQ(sw.outQueue(2).size(), 1u);
    EXPECT_EQ(sw.outQueue(2).pop().value, 5u);
    EXPECT_EQ(totals.forwarded, 1u);
}

TEST(Switch, CutThroughLatency)
{
    System sys{Config{}};
    SwitchTotals totals;
    Switch sw(sys, "sw", totals, 2, 2, toDstPort);
    sw.inQueue(0).push(mkPkt(0, 1, 1));
    sys.events().run();
    EXPECT_EQ(sys.now(), sys.config().switchLatency);
}

TEST(Switch, HeadOfLineBlockingOnFullOutput)
{
    Config cfg;
    cfg.switchQueuePackets = 2;
    System sys{cfg};
    SwitchTotals totals;
    Switch sw(sys, "sw", totals, 2, 2, toDstPort);

    // Input capacity is also 2: fill in two rounds.
    sw.inQueue(0).push(mkPkt(0, 1, 0));
    sw.inQueue(0).push(mkPkt(0, 1, 1));
    sys.events().run();
    sw.inQueue(0).push(mkPkt(0, 1, 2));
    sw.inQueue(0).push(mkPkt(0, 1, 3));
    sys.events().run();
    // Output holds 2; the rest wait in the input queue.
    EXPECT_EQ(sw.outQueue(1).size(), 2u);
    EXPECT_EQ(sw.inQueue(0).size(), 2u);

    sw.outQueue(1).pop();
    sys.events().run();
    EXPECT_EQ(sw.outQueue(1).size(), 2u);
    EXPECT_EQ(sw.inQueue(0).size(), 1u);
}

TEST(Switch, PerSourceInOrderDelivery)
{
    System sys{Config{}};
    SwitchTotals totals;
    Switch sw(sys, "sw", totals, 4, 2, toDstPort);

    // Three sources interleave packets to the same destination; each
    // source's sequence must come out in order.
    Rng rng(99);
    std::map<NodeId, Word> next_seq;
    std::map<NodeId, Word> seen;
    for (int round = 0; round < 50; ++round) {
        for (NodeId src = 0; src < 3; ++src) {
            if (!sw.inQueue(src).full())
                sw.inQueue(src).push(mkPkt(src, 3, next_seq[src]++));
        }
        sys.events().run();
        while (!sw.outQueue(3).empty()) {
            const Packet p = sw.outQueue(3).pop();
            auto it = seen.find(p.src);
            if (it != seen.end()) {
                EXPECT_EQ(p.value, it->second + 1)
                    << "out-of-order from src " << p.src;
            }
            seen[p.src] = p.value;
        }
    }
}

TEST(Switch, DrainWakesWaitersInAscendingInputOrder)
{
    Config cfg;
    cfg.switchQueuePackets = 1;
    System sys{cfg};
    SwitchTotals totals;
    Switch sw(sys, "sw", totals, 6, 1, toDstPort);

    // Fill output 4 from input 0 and output 5 from input 5.
    sw.inQueue(0).push(mkPkt(0, 4, 0));
    sw.inQueue(5).push(mkPkt(5, 5, 5));
    sys.events().run();
    ASSERT_EQ(sw.outQueue(4).size(), 1u);
    ASSERT_EQ(sw.outQueue(5).size(), 1u);

    // Inputs 3, 2, 1 block on output 4 (arriving in descending order);
    // input 4 blocks on output 5.
    sw.inQueue(3).push(mkPkt(3, 4, 3));
    sw.inQueue(2).push(mkPkt(2, 4, 2));
    sw.inQueue(1).push(mkPkt(1, 4, 1));
    sw.inQueue(4).push(mkPkt(4, 5, 4));
    sys.events().run();

    // Each drain of output 4 forwards the lowest-index waiter on it
    // (packet values name their input).
    for (Word i = 0; i < 4; ++i) {
        ASSERT_EQ(sw.outQueue(4).size(), 1u) << "drain " << i;
        EXPECT_EQ(sw.outQueue(4).pop().value, i);
        sys.events().run();
        // The input blocked on output 5 never moves.
        EXPECT_EQ(sw.inQueue(4).size(), 1u);
        EXPECT_EQ(sw.outQueue(5).size(), 1u);
    }
    EXPECT_TRUE(sw.outQueue(4).empty());

    // Draining output 5 releases it.
    EXPECT_EQ(sw.outQueue(5).pop().value, 5u);
    sys.events().run();
    EXPECT_TRUE(sw.inQueue(4).empty());
    EXPECT_EQ(sw.outQueue(5).pop().value, 4u);
    EXPECT_EQ(totals.forwarded, 6u);
}

TEST(Switch, RefreshRoutesReevaluatesEveryStalledInput)
{
    Config cfg;
    cfg.switchQueuePackets = 1;
    System sys{cfg};
    SwitchTotals totals;
    std::vector<std::size_t> routes = {0, 1, 1}; // by destination
    Switch sw(sys, "sw", totals, 3, 1,
              [&routes](const Packet &p, std::size_t, std::uint8_t vc) {
                  return Switch::Hop{routes[p.dst], vc};
              });

    // Input 0 fills output 1; input 2's packet blocks behind it.
    sw.inQueue(0).push(mkPkt(0, 1, 10));
    sys.events().run();
    sw.inQueue(2).push(mkPkt(2, 2, 20));
    sys.events().run();
    ASSERT_EQ(sw.inQueue(2).size(), 1u);

    // Re-routing node 2 to the free output 2 forwards the stalled head
    // with output 1 still full: no drain is needed.
    routes[2] = 2;
    sw.refreshRoutes();
    sys.events().run();
    EXPECT_TRUE(sw.inQueue(2).empty());
    ASSERT_EQ(sw.outQueue(2).size(), 1u);
    EXPECT_EQ(sw.outQueue(2).pop().value, 20u);
    EXPECT_EQ(sw.outQueue(1).size(), 1u);

    // The stale mark on output 1 is harmless: draining it moves nothing.
    EXPECT_EQ(sw.outQueue(1).pop().value, 10u);
    sys.events().run();
    EXPECT_TRUE(sw.outQueue(1).empty());
    EXPECT_EQ(totals.forwarded, 2u);
}

} // namespace
} // namespace tg::net
