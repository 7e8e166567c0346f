/**
 * @file
 * Tests of the VSM (software DSM) baseline: fault-driven replication,
 * write invalidation, coherence of the final contents, and the cost gap
 * against Telegraphos remote operations.
 */

#include <string>

#include <gtest/gtest.h>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include "baseline/vsm.hpp"

namespace tg {
namespace {

TEST(Vsm, ReadFaultReplicatesPage)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    baseline::VsmDsm vsm(c);
    const VAddr base = vsm.alloc("v", 8192, /*home=*/0);

    // Seed through a program on the home node (pages are Private there).
    Word got = 0;
    c.spawn(0, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(base, 55);
    });
    c.run(1'000'000'000ULL);

    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        got = co_await ctx.read(base); // faults, fetches the page
    });
    c.run(10'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_EQ(got, 55u);
    EXPECT_EQ(vsm.readFaults(), 1u);
    EXPECT_GE(vsm.pageTransfers(), 1u);
}

TEST(Vsm, WriteFaultInvalidatesReaders)
{
    ClusterSpec spec = ClusterSpec::star(3);
    Cluster c(spec);
    baseline::VsmDsm vsm(c);
    const VAddr base = vsm.alloc("v", 8192, 0);

    // Nodes 1 and 2 read (both get copies)...
    for (NodeId n = 1; n <= 2; ++n) {
        c.spawn(n, [&](Ctx &ctx) -> Task<void> {
            (void)co_await ctx.read(base);
        });
    }
    c.run(20'000'000'000ULL);
    ASSERT_TRUE(c.allDone());

    // ...then node 1 writes: node 0 and node 2 must lose their copies.
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(base, 77);
    });
    c.run(40'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_GE(vsm.invalidations(), 1u);

    // A subsequent read elsewhere re-faults and sees the new value.
    Word got = 0;
    c.spawn(2, [&](Ctx &ctx) -> Task<void> {
        got = co_await ctx.read(base);
    });
    c.run(80'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_EQ(got, 77u);
}

TEST(Vsm, SequentialCountingThroughSharedPage)
{
    // Ping-pong increments: the page migrates back and forth; the final
    // count must be exact (coherence under write faults).
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    baseline::VsmDsm vsm(c);
    const VAddr base = vsm.alloc("v", 8192, 0);

    // Interleave via generation words: node 0 writes even, node 1 odd.
    for (NodeId n = 0; n < 2; ++n) {
        c.spawn(n, [&, n](Ctx &ctx) -> Task<void> {
            for (int k = 0; k < 6; ++k) {
                for (;;) {
                    const Word v = co_await ctx.read(base);
                    if (v % 2 == n)
                        break;
                    co_await ctx.compute(50'000);
                }
                const Word v = co_await ctx.read(base);
                co_await ctx.write(base, v + 1);
            }
        });
    }
    c.run(4'000'000'000'000ULL);
    ASSERT_TRUE(c.allDone());

    Word final = 0;
    c.spawn(0, [&](Ctx &ctx) -> Task<void> {
        final = co_await ctx.read(base);
    });
    c.run(4'000'000'000'000ULL);
    EXPECT_EQ(final, 12u);
}

TEST(Vsm, FaultCostDwarfsTelegraphosRemoteAccess)
{
    // The motivating comparison of paper section 2.1.
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    baseline::VsmDsm vsm(c);
    const VAddr vsm_base = vsm.alloc("v", 8192, 0);
    Segment &tg_seg = c.allocShared("t", 8192, 0);

    Tick vsm_cost = 0, tg_cost = 0;
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        Tick t0 = ctx.now();
        (void)co_await ctx.read(vsm_base); // cold: page fault + transfer
        vsm_cost = ctx.now() - t0;

        t0 = ctx.now();
        (void)co_await ctx.read(tg_seg.word(0)); // hardware remote read
        tg_cost = ctx.now() - t0;
    });
    c.run(100'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_GT(vsm_cost, tg_cost * 20);
}

TEST(Vsm, LostPacketKillsTheFaultingThread)
{
    // The VSM layer never resends: on a lossy fabric with a one-retry
    // budget the network loses some of its page requests, pages or
    // invalidation messages.  The fault waiting for a lost packet must
    // fail visibly (its thread killed) and free the page, so the
    // other nodes' faults on it are still served and the run ends.
    ClusterSpec spec = ClusterSpec::star(4);
    spec.config.seed = 3;
    spec.config.fault.dropRate = 0.1;
    spec.config.fault.maxRetries = 1;
    spec.config.fault.retryTimeout = 2000;
    Cluster c(spec);
    baseline::VsmDsm vsm(c);
    const VAddr base = vsm.alloc("v", 8 * 8192, 0);

    for (NodeId n = 1; n <= 3; ++n) {
        c.spawn(n, [&vsm, base, n](Ctx &ctx) -> Task<void> {
            for (std::size_t i = 0; i < 40; ++i) {
                const VAddr va = vsm.word(base, i % 8 * 1024 + n);
                const Word v = co_await ctx.read(va);
                co_await ctx.write(va, v + 1);
            }
        });
    }
    constexpr Tick kLimit = 50'000'000'000ULL;
    const Tick end = c.run(kLimit);
    EXPECT_LT(end, kLimit);
    EXPECT_GT(c.network().wireFailures(), 0u);
    EXPECT_TRUE(c.anyKilled());
    EXPECT_TRUE(c.allDone());
    std::string why;
    EXPECT_TRUE(c.auditQuiescent(&why)) << why;
}

} // namespace
} // namespace tg
