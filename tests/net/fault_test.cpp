/**
 * @file
 * Fault injection + link-level reliability tests: deterministic injector
 * streams, recovery from corruption/loss/duplication, administrative
 * link-down windows, retry-budget exhaustion, and the end-to-end error
 * path through the cluster (counter conservation, per-op Result errors,
 * one victim per lost packet).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include "net/fault.hpp"
#include "net/link.hpp"
#include "sim/system.hpp"
#include "workload/traffic.hpp"

namespace tg::net {
namespace {

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

TEST(FaultInjector, SameSeedSameLinkSameDecisions)
{
    FaultSpec spec;
    spec.dropRate = 0.3;
    spec.bitErrorRate = 0.2;
    FaultInjector a(spec, 42, "net.up0");
    FaultInjector b(spec, 42, "net.up0");
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.dropNow(), b.dropNow());
        EXPECT_EQ(a.corruptNow(), b.corruptNow());
    }
}

TEST(FaultInjector, DifferentLinksIndependentStreams)
{
    FaultSpec spec;
    spec.dropRate = 0.5;
    FaultInjector a(spec, 42, "net.up0");
    FaultInjector b(spec, 42, "net.up1");
    int differ = 0;
    for (int i = 0; i < 200; ++i) {
        if (a.dropNow() != b.dropNow())
            ++differ;
    }
    EXPECT_GT(differ, 0);
}

TEST(FaultInjector, LinkFilterRestrictsActivation)
{
    FaultSpec spec;
    spec.dropRate = 1.0;
    spec.linkFilter = "trunk";
    FaultInjector trunk(spec, 1, "net.trunk0to1");
    FaultInjector leaf(spec, 1, "net.up0");
    EXPECT_TRUE(trunk.active());
    EXPECT_FALSE(leaf.active());
}

TEST(FaultInjector, DownWindowsAndDeadline)
{
    FaultSpec spec;
    spec.downWindows = {{100, 200, ""}, {150, 300, ""}};
    spec.linkDownDeadline = 50;
    FaultInjector inj(spec, 1, "ch");
    EXPECT_FALSE(inj.isDown(99));
    EXPECT_TRUE(inj.isDown(100));
    EXPECT_TRUE(inj.isDown(250));
    EXPECT_FALSE(inj.isDown(300));
    // Overlapping windows merge into one outage [100, 300).
    EXPECT_EQ(inj.downUntil(120), 300u);
    EXPECT_EQ(inj.downStart(250), 100u);
    EXPECT_FALSE(inj.downPastDeadline(120));
    EXPECT_TRUE(inj.downPastDeadline(250));

    // Abutting windows are one outage as well: it starts at the first
    // window's start, so the deadline counts from 100 and the link
    // fails fast from 1101 — the tick FabricRerouter, planning from
    // mergedDownWindows(), flips its routes.
    FaultSpec abut;
    abut.downWindows = {{100, 600, ""}, {600, 5000, ""}};
    abut.linkDownDeadline = 1000;
    FaultInjector joined(abut, 1, "ch");
    ASSERT_EQ(joined.mergedDownWindows().size(), 1u);
    EXPECT_TRUE(joined.isDown(600));
    EXPECT_EQ(joined.downUntil(700), 5000u);
    EXPECT_EQ(joined.downStart(700), 100u);
    EXPECT_FALSE(joined.downPastDeadline(1100));
    EXPECT_TRUE(joined.downPastDeadline(1101));
    EXPECT_TRUE(joined.downPastDeadline(1600));
    EXPECT_FALSE(joined.isDown(5000));
}

// ---------------------------------------------------------------------
// Targeted down-windows (glob patterns on link names)
// ---------------------------------------------------------------------

TEST(FaultTargets, TargetedWindowDownsOnlyMatchingLinks)
{
    FaultSpec spec;
    spec.downLink("*.trunk3to4", 100, 200);
    FaultInjector hit(spec, 1, "net.trunk3to4");
    FaultInjector miss(spec, 1, "net.trunk4to3");
    EXPECT_TRUE(hit.isDown(150));
    EXPECT_FALSE(miss.isDown(150));
    EXPECT_FALSE(hit.isDown(200));
}

TEST(FaultTargets, TargetedWindowIgnoresLinkFilter)
{
    // The spec-wide random-fault filter confines rates to node links,
    // but a targeted window still downs the trunk it names.
    FaultSpec spec;
    spec.dropRate = 0.5;
    spec.linkFilter = "up";
    spec.downLink("*.trunk0to1", 10, 20);
    FaultInjector trunk(spec, 1, "net.trunk0to1");
    EXPECT_FALSE(trunk.active());
    EXPECT_TRUE(trunk.isDown(15));
}

TEST(FaultTargets, UntargetedWindowFollowsLinkFilter)
{
    FaultSpec spec;
    spec.linkFilter = "up";
    spec.downWindows = {{10, 20, ""}};
    FaultInjector up(spec, 1, "net.up0");
    FaultInjector trunk(spec, 1, "net.trunk0to1");
    EXPECT_TRUE(up.isDown(15));
    EXPECT_FALSE(trunk.isDown(15));
}

TEST(FaultTargets, DownTrunkCoversBothDirections)
{
    FaultSpec spec;
    spec.downTrunk(3, 4, 100, 200);
    ASSERT_EQ(spec.downWindows.size(), 2u);
    FaultInjector fwd(spec, 1, "net.trunk3to4");
    FaultInjector rev(spec, 1, "net.trunk4to3");
    FaultInjector other(spec, 1, "net.trunk3to2");
    EXPECT_TRUE(fwd.isDown(150));
    EXPECT_TRUE(rev.isDown(150));
    EXPECT_FALSE(other.isDown(150));
}

TEST(FaultTargets, MergedDownWindowsCoalescePerLink)
{
    FaultSpec spec;
    spec.downLink("*.trunk0to1", 100, 200);
    spec.downLink("*.trunk0to1", 150, 300); // overlaps the first
    spec.downLink("*.trunk0to1", 300, 400); // abuts the merged window
    spec.downLink("*.trunk9to9", 50, 60);   // different link
    FaultInjector inj(spec, 1, "net.trunk0to1");
    const auto merged = inj.mergedDownWindows();
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].from, 100u);
    EXPECT_EQ(merged[0].until, 400u);
}

TEST(FaultSpecValidate, RejectsMalformedTargetPattern)
{
    FaultSpec doubleStar;
    doubleStar.downLink("**trunk", 10, 20);
    EXPECT_DEATH(doubleStar.validate(), "pattern");

    FaultSpec charClass;
    charClass.downLink("*.trunk[01]to1", 10, 20);
    EXPECT_DEATH(charClass.validate(), "pattern");
}

TEST(FaultSpecValidate, AcceptsWellFormedTargetPattern)
{
    FaultSpec f;
    f.downLink("*.trunk3to4", 10, 20).downTrunk(1, 2, 30, 40);
    f.downLink("*.trunk?to1", 50, 60); // '?' is a supported wildcard
    f.validate(); // must not die
}

// ---------------------------------------------------------------------
// Channel reliability layer
// ---------------------------------------------------------------------

class FaultChannelTest : public ::testing::Test
{
  protected:
    Packet
    mkPkt(Word v, std::uint32_t payload = 8)
    {
        Packet p;
        p.value = v;
        p.payloadBytes = payload;
        return p;
    }

    Config
    cfg(const FaultSpec &f, std::uint64_t seed = 42)
    {
        Config c;
        c.fault = f;
        c.seed = seed;
        return c;
    }
};

TEST_F(FaultChannelTest, CrcDetectsCorruptionAndRetransmits)
{
    FaultSpec f;
    f.bitErrorRate = 0.2;
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 32), down(sys.arena(), 64);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    for (Word i = 0; i < 20; ++i)
        up.push(mkPkt(i));
    sys.events().run();

    // Every packet arrives exactly once, in order, with intact contents.
    ASSERT_EQ(down.size(), 20u);
    for (Word i = 0; i < 20; ++i)
        EXPECT_EQ(down.pop().value, i);
    EXPECT_GT(ch.corruptions(), 0u);
    EXPECT_GT(ch.retransmissions(), 0u);
    EXPECT_EQ(ch.wireFailures(), 0u);
}

TEST_F(FaultChannelTest, DropsAreRetransmitted)
{
    FaultSpec f;
    f.dropRate = 0.25;
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 32), down(sys.arena(), 64);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    for (Word i = 0; i < 20; ++i)
        up.push(mkPkt(i));
    sys.events().run();

    ASSERT_EQ(down.size(), 20u);
    for (Word i = 0; i < 20; ++i)
        EXPECT_EQ(down.pop().value, i);
    EXPECT_GT(ch.retransmissions(), 0u);
    EXPECT_EQ(ch.wireFailures(), 0u);
}

TEST_F(FaultChannelTest, DuplicatesAreDiscarded)
{
    FaultSpec f;
    f.duplicateRate = 1.0; // every transmission delivered twice
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 32), down(sys.arena(), 64);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    for (Word i = 0; i < 10; ++i)
        up.push(mkPkt(i));
    sys.events().run();

    ASSERT_EQ(down.size(), 10u);
    for (Word i = 0; i < 10; ++i)
        EXPECT_EQ(down.pop().value, i);
    EXPECT_GT(ch.duplicateDiscards(), 0u);
    EXPECT_EQ(ch.wireFailures(), 0u);
}

TEST_F(FaultChannelTest, LinkDownWindowDelaysDelivery)
{
    FaultSpec f;
    f.downWindows = {{0, 5000, ""}};
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 8), down(sys.arena(), 8);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    up.push(mkPkt(7));
    sys.events().run();

    ASSERT_EQ(down.size(), 1u);
    EXPECT_EQ(down.pop().value, 7u);
    EXPECT_GE(sys.now(), 5000u); // nothing crossed during the outage
    EXPECT_EQ(ch.wireFailures(), 0u);
}

TEST_F(FaultChannelTest, TargetedWindowDownsNamedChannelOutsideFilter)
{
    FaultSpec f;
    f.linkFilter = "somewhere-else"; // random faults confined elsewhere
    f.downLink("ch", 0, 5000);       // ...but this channel is named
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 8), down(sys.arena(), 8);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    up.push(mkPkt(7));
    sys.events().run();

    ASSERT_EQ(down.size(), 1u);
    EXPECT_EQ(down.pop().value, 7u);
    EXPECT_GE(sys.now(), 5000u); // held until the targeted outage ended
    EXPECT_EQ(ch.wireFailures(), 0u);
}

TEST_F(FaultChannelTest, DownPastDeadlineFailsOver)
{
    FaultSpec f;
    f.downWindows = {{0, 1'000'000, ""}};
    f.linkDownDeadline = 100;
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 8), down(sys.arena(), 8);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    std::vector<Packet> failed;
    ch.setFailureHandler([&](Packet &&p) { failed.push_back(std::move(p)); });

    up.push(mkPkt(1));
    up.push(mkPkt(2));
    sys.events().runUntil(10'000);

    ASSERT_EQ(failed.size(), 2u);
    EXPECT_EQ(failed[0].value, 1u);
    EXPECT_EQ(failed[1].value, 2u);
    EXPECT_EQ(down.size(), 0u);
    EXPECT_EQ(ch.wireFailures(), 2u);
}

TEST_F(FaultChannelTest, DeadlineFailoverNeverFailsADeliveredPacket)
{
    // With a short deadline the failover fires while packet 1 is still
    // on the wire (window from 1) or while its ACK is on the way back
    // (window from just after it landed).  Packet 2 arrives once the
    // failover is due.  Each packet is delivered or failed, never both.
    // At one byte per tick a transmission lasts its wire size.
    const Tick ser = mkPkt(0).wireBytes(Config{}.packetHeaderBytes);
    for (const Tick from : {Tick(1), ser + 11}) {
        FaultSpec f;
        f.downWindows = {{from, 1'000'000, ""}};
        f.linkDownDeadline = 1;
        System sys(cfg(f));
        BoundedQueue up(sys.arena(), 8), down(sys.arena(), 8);
        Channel ch(sys, "ch", up, down, 1.0, 10);

        std::vector<Packet> failed;
        ch.setFailureHandler(
            [&](Packet &&p) { failed.push_back(std::move(p)); });

        up.push(mkPkt(1));
        sys.events().schedule(ser + 15, [&] { up.push(mkPkt(2)); });
        sys.events().runUntil(10'000);

        EXPECT_EQ(down.size() + failed.size(), 2u) << "window from " << from;
        EXPECT_EQ(ch.wireFailures(), failed.size());
        ASSERT_FALSE(failed.empty());
        EXPECT_EQ(failed.back().value, 2u);
    }
}

TEST_F(FaultChannelTest, RetryBudgetExhaustionFailsPacket)
{
    FaultSpec f;
    f.dropRate = 1.0; // nothing ever arrives
    f.retryTimeout = 100;
    f.maxRetries = 3;
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 8), down(sys.arena(), 8);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    std::vector<Packet> failed;
    ch.setFailureHandler([&](Packet &&p) { failed.push_back(std::move(p)); });

    up.push(mkPkt(9));
    sys.events().run();

    ASSERT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed[0].value, 9u);
    EXPECT_EQ(ch.wireFailures(), 1u);
    EXPECT_EQ(down.size(), 0u);
}

TEST_F(FaultChannelTest, StatsAreDeterministic)
{
    FaultSpec f;
    f.bitErrorRate = 0.1;
    f.dropRate = 0.1;
    f.duplicateRate = 0.1;

    auto runOnce = [&](std::uint64_t seed) {
        System sys(cfg(f, seed));
        BoundedQueue up(sys.arena(), 32), down(sys.arena(), 64);
        Channel ch(sys, "ch", up, down, 1.0, 10);
        for (Word i = 0; i < 30; ++i)
            up.push(mkPkt(i));
        sys.events().run();
        return std::tuple{ch.corruptions(), ch.retransmissions(),
                          ch.duplicateDiscards(), sys.now(), down.size()};
    };

    EXPECT_EQ(runOnce(7), runOnce(7));
    EXPECT_NE(runOnce(7), runOnce(8));
}

// ---------------------------------------------------------------------
// End-to-end error path through the cluster
// ---------------------------------------------------------------------

TEST(FaultCluster, LossyLinkStillCompletesAllOps)
{
    ClusterSpec spec = ClusterSpec::star(2);
    spec.config.fault.dropRate = 0.05;
    spec.config.fault.bitErrorRate = 0.05;
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);

    bool finished = false;
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        for (Word i = 0; i < 50; ++i)
            co_await ctx.write(seg.word(i % 8), i);
        co_await ctx.fence();
        finished = true;
    });
    c.run(10'000'000'000ULL);

    EXPECT_TRUE(finished);
    EXPECT_TRUE(c.allDone());
    // Conservation: the fence drained, so nothing is outstanding.
    EXPECT_EQ(c.hibOf(1).outstanding().current(), 0u);
    EXPECT_GT(c.network().retransmissions(), 0u);
}

TEST(FaultCluster, BudgetExhaustionSurfacesAsCtxError)
{
    ClusterSpec spec = ClusterSpec::star(2);
    spec.config.fault.dropRate = 1.0; // every transfer lost
    spec.config.fault.linkFilter = "up1"; // only node 1's egress link
    spec.config.fault.retryTimeout = 1000;
    spec.config.fault.maxRetries = 2;
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);

    OpError err = OpError::None;
    bool finished = false;
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(seg.word(0), 1);
        Result<void> f = co_await ctx.fence();
        err = f.error();
        finished = true;
    });
    c.run(10'000'000'000ULL);

    // The write was lost for good — but the fence still drained and the
    // failure is visible on the fence's own Result.
    EXPECT_TRUE(finished);
    EXPECT_EQ(err, OpError::LinkFailure);
    EXPECT_EQ(c.hibOf(1).outstanding().current(), 0u);
    EXPECT_GT(c.network().wireFailures(), 0u);
    EXPECT_GT(c.hibOf(1).wireFailures(), 0u);
}

TEST(FaultCluster, LostReadUnblocksWithError)
{
    ClusterSpec spec = ClusterSpec::star(2);
    spec.config.fault.dropRate = 1.0;
    spec.config.fault.linkFilter = "down0"; // replies towards node 0 die
    spec.config.fault.retryTimeout = 1000;
    spec.config.fault.maxRetries = 2;
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 1);

    bool finished = false;
    bool flagged = false;
    Word got = 1234;
    c.spawn(0, [&](Ctx &ctx) -> Task<void> {
        Result<Word> r = co_await ctx.read(seg.word(0));
        flagged = !r.ok() && r.error() == OpError::LinkFailure;
        got = r.value();
        finished = true;
    });
    c.run(10'000'000'000ULL);

    // The blocked CPU unblocked (with the error value 0 and the loss
    // flagged on the Result) instead of hanging forever on a reply that
    // will never come.
    EXPECT_TRUE(finished);
    EXPECT_TRUE(flagged);
    EXPECT_EQ(got, 0u);
}

TEST(FaultCluster, EveryLostPacketHasOneVictim)
{
    // A one-retry budget exhausts mid-window: a stale NACK rewinds the
    // lane while the head's resent copy is still on the wire.  That copy
    // must land as a duplicate, not be delivered as well as failed, so
    // every loss the links report is charged to exactly one HIB.
    for (ClusterSpec spec :
         {ClusterSpec::star(8), ClusterSpec::torus(2, 2, 2),
          ClusterSpec::fatTree(8, 2, 2)}) {
        spec.config.seed = 3;
        spec.config.fault.dropRate = 0.02;
        spec.config.fault.maxRetries = 1;
        spec.config.fault.retryTimeout = 2000;
        Cluster c(spec);
        const auto nodes = NodeId(spec.topology().nodes);
        std::vector<Segment *> segs;
        for (NodeId n = 0; n < nodes; ++n)
            segs.push_back(
                &c.allocShared("s" + std::to_string(n), 8192, n));
        workload::TrafficConfig cfg;
        cfg.ops = 200;
        for (NodeId n = 0; n < nodes; ++n)
            c.spawn(n, workload::randomTraffic(segs, cfg));
        c.run(10'000'000'000ULL);

        ASSERT_TRUE(c.allDone());
        std::string why;
        EXPECT_TRUE(c.auditQuiescent(&why)) << why;
        std::uint64_t charged = 0;
        for (NodeId n = 0; n < nodes; ++n)
            charged += c.hibOf(n).wireFailures();
        EXPECT_GT(c.network().wireFailures(), 0u);
        EXPECT_EQ(charged, c.network().wireFailures());
    }
}

TEST(FaultCluster, LinkRecoversAfterRetryBudgetExhaustion)
{
    // A packet the sender gives up on must not wedge its lane: the
    // receiver moves past it, so later writes land and later fences
    // succeed.
    ClusterSpec spec = ClusterSpec::star(2);
    spec.config.seed = 1;
    spec.config.fault.dropRate = 0.05;
    spec.config.fault.linkFilter = "up1";
    spec.config.fault.maxRetries = 1;
    spec.config.fault.retryTimeout = 2000;
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);

    int failed = 0;
    bool recovered = false;
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        for (Word i = 0; i < 1000; ++i) {
            co_await ctx.write(seg.word(i % 8), i);
            Result<void> f = co_await ctx.fence();
            if (!f.ok())
                ++failed;
            else if (failed > 0)
                recovered = true;
        }
    });
    c.run(10'000'000'000ULL);

    ASSERT_TRUE(c.allDone());
    EXPECT_GT(failed, 0);
    EXPECT_TRUE(recovered);
    EXPECT_LT(failed, 50);
}

TEST(FaultCluster, InertSpecKeepsFastPath)
{
    ClusterSpec spec = ClusterSpec::star(2);
    // All-zero FaultSpec: enabled() is false, stats stay unregistered.
    ASSERT_FALSE(spec.config.fault.enabled());
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(seg.word(0), 1);
        co_await ctx.fence();
    });
    c.run(10'000'000'000ULL);
    EXPECT_EQ(c.network().retransmissions(), 0u);
    EXPECT_EQ(c.network().wireFailures(), 0u);
}

TEST(FaultSpecValidate, RejectsBadRates)
{
    FaultSpec f;
    f.dropRate = 1.5;
    EXPECT_DEATH(f.validate(), "probability");
}

TEST(FaultSpecValidate, RejectsBackoffCapOf64OrMore)
{
    FaultSpec f;
    f.backoffCap = 64;
    EXPECT_DEATH(f.validate(), "backoffCap must be < 64");
}

TEST(FaultSpecValidate, RejectsBackoffThatOverflowsATick)
{
    FaultSpec f;
    f.retryTimeout = Tick(1) << 40;
    f.backoffCap = 24;
    EXPECT_DEATH(f.validate(), "overflows a Tick");
    // The largest timeout that still fits is accepted.
    f.retryTimeout = kMaxTick >> 24;
    f.validate();
}

} // namespace
} // namespace tg::net
