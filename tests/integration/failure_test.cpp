/**
 * @file
 * Failure injection and extreme-configuration tests:
 *
 *  - a thread killed by a protection fault must not corrupt shared
 *    state or wedge the hardware (its in-flight traffic still drains);
 *  - a victim dying while holding a lock starves the others (a real
 *    liveness property of spin locks: documented, detected by run
 *    limits, never misreported as success);
 *  - minimal-resource configurations (1-entry queues/buffers/TLB) must
 *    still be correct, only slower;
 *  - invalid configurations, zero-sized resources included, die loudly
 *    at construction.
 */

#include <gtest/gtest.h>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"

namespace tg {
namespace {

TEST(Failure, KilledThreadLeavesHardwareClean)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);

    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        // Launch a burst of valid traffic, then crash on a wild store.
        for (int i = 0; i < 20; ++i)
            co_await ctx.write(seg.word(i), Word(100 + i));
        co_await ctx.write(0xdead'beef'0000, 1); // kills the thread
        // never reached:
        co_await ctx.write(seg.word(0), 0);
    });
    c.run(100'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_TRUE(c.anyKilled());

    // The writes issued before the crash still completed; nothing is
    // stuck in the HIB.
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(seg.peek(i), Word(100 + i));
    // Give in-flight acks time to drain, then check conservation.
    c.spawn(0, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.compute(1'000'000);
    });
    c.run(200'000'000'000ULL);
    EXPECT_EQ(c.hibOf(1).outstanding().current(), 0u);
}

TEST(Failure, LockHolderDeathStarvesOthersDetectably)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);

    c.spawn(0, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.lock(seg.word(0));
        co_await ctx.write(0xdead'0000, 1); // dies holding the lock
    });
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.compute(1'000'000); // let the victim die first
        co_await ctx.lock(seg.word(0));  // spins forever
        co_await ctx.unlock(seg.word(0));
    });
    c.run(/*limit=*/100'000'000);
    EXPECT_TRUE(c.anyKilled());
    EXPECT_FALSE(c.allDone()); // starvation is visible, not silent
}

TEST(Failure, MinimalResourcesStillCorrect)
{
    ClusterSpec spec = ClusterSpec::star(2);
    spec.config.writeBufferEntries = 1;
    spec.config.hibFifoPackets = 1;
    spec.config.switchQueuePackets = 1;
    spec.config.tlbEntries = 1;
    spec.config.hibBacklogPackets = 1;
    spec.config.counterCacheEntries = 1;
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);
    seg.replicate(1, coherence::ProtocolKind::OwnerCounter);
    // Synchronization variables stay unreplicated (atomics act on the
    // page their VA maps to, as on the real hardware).
    Segment &sync = c.allocShared("sync", 8192, 0);

    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < 30; ++i)
            co_await ctx.write(seg.word(i % 8), Word(i));
        co_await ctx.fence();
        EXPECT_EQ(co_await ctx.fetchAdd(sync.word(0), 5), 0u);
    });
    c.run(400'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_FALSE(c.anyKilled());
    EXPECT_EQ(sync.peek(0), 5u);
    EXPECT_EQ(seg.peekCopy(1, 0), seg.peek(0)); // copies coherent
}

TEST(Failure, SlowLinksOnlySlowThingsDown)
{
    ClusterSpec spec = ClusterSpec::star(2);
    spec.config.linkBytesPerTick = 0.001; // 1 MB/s: ~24 us per packet
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);

    Tick read_lat = 0;
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        const Tick t0 = ctx.now();
        (void)co_await ctx.read(seg.word(0));
        read_lat = ctx.now() - t0;
    });
    c.run(400'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_GT(read_lat, 40'000u); // two >20 us serializations
}

TEST(FailureDeathTest, InvalidConfigurationsDieLoudly)
{
    ClusterSpec spec = ClusterSpec::star(2);
    spec.config.pageBytes = 1000; // not a power of two
    EXPECT_DEATH({ Cluster c(spec); }, "power of two");

    ClusterSpec spec2 = ClusterSpec::star(2);
    spec2.config.linkBytesPerTick = 0;
    EXPECT_DEATH({ Cluster c(spec2); }, "positive");
}

// Sizes of zero that would otherwise wedge or crash a run instead of
// failing at construction: a zero backlog blocks the first remote store
// forever, a zero fan-out never finishes building a collective tree, and
// a zero read window panics on the first remote read.
TEST(ConfigValidate, RejectsZeroHibBacklog)
{
    Config cfg;
    cfg.hibBacklogPackets = 0;
    EXPECT_DEATH(cfg.validate(), "hibBacklogPackets");
}

TEST(ConfigValidate, RejectsZeroCollFanout)
{
    Config cfg;
    cfg.collFanout = 0;
    EXPECT_DEATH(cfg.validate(), "collFanout");
}

TEST(ConfigValidate, RejectsZeroOutstandingReads)
{
    Config cfg;
    cfg.maxOutstandingReads = 0;
    EXPECT_DEATH(cfg.validate(), "maxOutstandingReads");
}

} // namespace
} // namespace tg
