/**
 * @file
 * Tests of the Cluster facade: segment allocation and mapping, private
 * memory, VA uniqueness, run semantics, live replication.
 */

#include <gtest/gtest.h>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"

namespace tg {
namespace {

TEST(Cluster, SegmentsShareOneVaAcrossNodes)
{
    ClusterSpec spec = ClusterSpec::star(3);
    Cluster c(spec);
    Segment &a = c.allocShared("a", 100, 0);
    Segment &b = c.allocShared("b", 100, 1);

    EXPECT_NE(a.base(), b.base());
    EXPECT_EQ(a.pages(), 1u);
    EXPECT_EQ(b.owner(), 1u);

    // Every node translates the same VA; only the access mode differs.
    for (NodeId n = 0; n < 3; ++n) {
        auto pte = c.node(n).defaultAddressSpace().lookup(a.base());
        EXPECT_EQ(pte.frame, a.homeFrame());
        EXPECT_EQ(pte.mode, n == 0 ? node::PageMode::SharedLocal
                                   : node::PageMode::SharedRemote);
    }
}

TEST(Cluster, PrivateMemoryIsNodeLocalAndCacheable)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    const VAddr va = c.allocPrivate(0, 4096);

    auto pte = c.node(0).defaultAddressSpace().lookup(va);
    EXPECT_EQ(pte.mode, node::PageMode::Private);
    // Unmapped on the other node.
    EXPECT_EQ(c.node(1).defaultAddressSpace().lookup(va).mode,
              node::PageMode::Invalid);

    Word sum = 0;
    c.spawn(0, [&](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < 16; ++i)
            co_await ctx.write(va + i * 8, Word(i));
        for (int i = 0; i < 16; ++i)
            sum += co_await ctx.read(va + i * 8);
    });
    c.run(10'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_EQ(sum, 120u);
    EXPECT_GT(c.node(0).cache().hits(), 0u);
}

TEST(Cluster, RunReturnsWhenProgramsFinish)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 100, 0);
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(seg.word(0), 1);
        co_await ctx.fence();
    });
    const Tick end = c.run(1'000'000'000ULL);
    EXPECT_TRUE(c.allDone());
    EXPECT_GT(end, 0u);
    EXPECT_LT(end, 1'000'000'000ULL);
}

TEST(Cluster, RunLimitStopsSpinners)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 100, 0);
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        // Spins forever: the flag never arrives.
        while (co_await ctx.read(seg.word(0)) == 0)
            co_await ctx.compute(1000);
    });
    c.run(/*limit=*/50'000'000);
    EXPECT_FALSE(c.allDone());
}

TEST(Cluster, LiveReplicationMakesAccessesLocal)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);
    seg.poke(0, 31);

    Tick before = 0, after = 0;
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        Tick t0 = ctx.now();
        (void)co_await ctx.read(seg.word(0));
        before = ctx.now() - t0;

        // OS replicates the page at runtime (charged path).
        bool done = false;
        c.replicatePageLive(1, seg.homePage(0), [&] { done = true; });
        while (!done)
            co_await ctx.compute(10'000);

        t0 = ctx.now();
        const Word v = co_await ctx.read(seg.word(0));
        after = ctx.now() - t0;
        EXPECT_EQ(v, 31u);
    });
    c.run(100'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_GT(before, after * 5); // remote ~7 us vs local access
}

TEST(Cluster, ManyNodesOnChainTopology)
{
    ClusterSpec spec = ClusterSpec::chain(8, 3);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);

    for (NodeId n = 1; n < 8; ++n) {
        c.spawn(n, [&, n](Ctx &ctx) -> Task<void> {
            co_await ctx.write(seg.word(n), Word(n) * 11);
            co_await ctx.fence();
        });
    }
    c.run(100'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    for (NodeId n = 1; n < 8; ++n)
        EXPECT_EQ(seg.peek(n), Word(n) * 11);
}

TEST(Cluster, AuditQuiescentRejectsHeldPendingWriteCounters)
{
    // Every packet is accounted for, but a HIB still holds a counter
    // that nothing left in the run will release: not quiescent.
    Cluster c(ClusterSpec::star(2));
    std::string why;
    ASSERT_TRUE(c.auditQuiescent(&why)) << why;

    // A counter-cache slot with no reflected write to free it.
    const PAddr word = 0x40;
    c.hibOf(1).counterCache().increment(word, [] {});
    c.system().events().run();
    EXPECT_FALSE(c.auditQuiescent(&why));
    EXPECT_NE(why.find("node 1"), std::string::npos) << why;
    EXPECT_NE(why.find("counter-cache"), std::string::npos) << why;
    c.hibOf(1).counterCache().decrement(word);
    EXPECT_TRUE(c.auditQuiescent(&why)) << why;

    // An outstanding operation with no completion.
    c.hibOf(0).outstanding().add();
    EXPECT_FALSE(c.auditQuiescent(&why));
    EXPECT_NE(why.find("node 0"), std::string::npos) << why;
    EXPECT_NE(why.find("outstanding"), std::string::npos) << why;
    c.hibOf(0).outstanding().complete();
    EXPECT_TRUE(c.auditQuiescent(&why)) << why;
}

} // namespace
} // namespace tg
