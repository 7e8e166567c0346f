/**
 * @file
 * Tests of Segment configuration: replication bookkeeping, eager
 * mappings, counters, peek/poke oracles.
 */

#include <gtest/gtest.h>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"

namespace tg {
namespace {

using coherence::ProtocolKind;

TEST(Segment, GeometryHelpers)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 3 * 8192, 1);

    EXPECT_EQ(seg.pages(), 3u);
    EXPECT_EQ(seg.bytes(), 3u * 8192);
    EXPECT_EQ(seg.word(5), seg.base() + 40);
    EXPECT_EQ(seg.shadowWord(5), shadowOf(seg.base() + 40));
    EXPECT_EQ(seg.homeWord(1024), seg.homeFrame() + 8192);
    EXPECT_EQ(seg.homePage(2), seg.homeFrame() + 2 * 8192);
    EXPECT_EQ(node::nodeOf(seg.homeFrame()), 1u);
}

TEST(Segment, PokeThenPeekRoundTrip)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);
    seg.poke(3, 333);
    EXPECT_EQ(seg.peek(3), 333u);
}

TEST(Segment, ReplicationCopiesContentAndRemaps)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 2 * 8192, 0);
    seg.poke(0, 5);
    seg.poke(1024, 6); // second page

    seg.replicate(1, ProtocolKind::OwnerCounter);

    // Directory has entries for both pages with node 1 copies.
    for (std::size_t p = 0; p < 2; ++p) {
        auto *e = c.directory().byHome(seg.homePage(p));
        ASSERT_NE(e, nullptr);
        EXPECT_TRUE(e->hasCopy(1));
        EXPECT_EQ(e->owner, 0u);
    }
    // Content was copied.
    EXPECT_EQ(seg.peekCopy(1, 0), 5u);
    EXPECT_EQ(seg.peekCopy(1, 1024), 6u);

    // Node 1's mapping is now local.
    EXPECT_EQ(c.node(1).defaultAddressSpace().lookup(seg.base()).mode,
              node::PageMode::SharedLocal);
}

TEST(Segment, ReplicatedReadsAreLocalFast)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);
    seg.poke(0, 9);
    seg.replicate(1, ProtocolKind::OwnerCounter);

    Tick dur = 0;
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        (void)co_await ctx.read(seg.word(0)); // warm TLB
        const Tick t0 = ctx.now();
        const Word v = co_await ctx.read(seg.word(0));
        dur = ctx.now() - t0;
        EXPECT_EQ(v, 9u);
    });
    c.run(10'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_LT(dur, 500u); // local uncached, not ~7000 ns remote
}

TEST(Segment, MixedProtocolReplicationIsFatal)
{
    ClusterSpec spec = ClusterSpec::star(3);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);
    seg.replicate(1, ProtocolKind::OwnerCounter);
    EXPECT_DEATH(seg.replicate(2, ProtocolKind::Naive), "already");
}

TEST(Segment, EagerMappingUsesMulticastEntries)
{
    ClusterSpec spec = ClusterSpec::star(3);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 2 * 8192, 0);
    seg.poke(1024 + 3, 42); // second page
    seg.eagerTo(1);
    seg.eagerTo(2);
    // 2 pages x 2 readers = 4 multicast entries on the owner HIB.
    EXPECT_EQ(c.hibOf(0).multicast().used(), 4u);

    // Each reader's local receive copy starts with the owner's content.
    for (NodeId r : {NodeId(1), NodeId(2)}) {
        const node::Pte pte =
            c.node(r).defaultAddressSpace().lookup(seg.base() + 8192);
        EXPECT_EQ(pte.mode, node::PageMode::SharedLocal);
        EXPECT_EQ(node::nodeOf(pte.frame), r);
        EXPECT_EQ(c.memOf(r).read(node::offsetOf(pte.frame) + 3 * 8), 42u);
        EXPECT_EQ(c.memOf(r).read(node::offsetOf(pte.frame)), 0u);
    }
}

TEST(Segment, CountersOnlyMeterRemoteNodes)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);
    EXPECT_DEATH(seg.armCounters(0, 4, 4), "remote");
}

} // namespace
} // namespace tg
