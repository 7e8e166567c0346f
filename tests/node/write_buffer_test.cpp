/**
 * @file
 * Tests of the CPU write buffer: uncached stores complete into it, the
 * drain preserves program order, uncached loads and fences drain first,
 * and a full buffer stalls the processor.
 */

#include <gtest/gtest.h>

#include <vector>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"

namespace tg {
namespace {

TEST(WriteBuffer, StoresCompleteFasterThanTheBus)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);

    Tick store_time = 0;
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(seg.word(0), 0); // warm the TLB
        co_await ctx.fence();
        const Tick t0 = ctx.now();
        co_await ctx.write(seg.word(1), 1);
        store_time = ctx.now() - t0;
        co_await ctx.fence();
    });
    c.run(10'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    // Buffer insert (~35 ns) vs a full TC transaction (400 ns).
    EXPECT_LT(store_time, 100u);
}

TEST(WriteBuffer, FullBufferStallsUntilDrain)
{
    static_assert(Config::writeBufferEntries == 4);
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);

    std::vector<Tick> store_times;
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(seg.word(0), 0);
        co_await ctx.fence();
        for (int i = 0; i < 8; ++i) {
            const Tick t0 = ctx.now();
            co_await ctx.write(seg.word(i), Word(i));
            store_times.push_back(ctx.now() - t0);
        }
        co_await ctx.fence();
    });
    c.run(10'000'000'000ULL);
    ASSERT_TRUE(c.allDone());

    // The first four fit in the buffer; later ones stall at the TC
    // drain rate.
    for (int i = 0; i < 4; ++i)
        EXPECT_LT(store_times[i], 100u) << "store " << i;
    EXPECT_GT(store_times[6], 200u);
    EXPECT_GT(store_times[7], 200u);
}

TEST(WriteBuffer, ProgramOrderOfStoresIsPreserved)
{
    // Two stores to the SAME remote word must land in program order,
    // even through the buffer and the network.
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);

    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < 50; ++i)
            co_await ctx.write(seg.word(0), Word(i));
        co_await ctx.fence();
    });
    c.run(10'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_EQ(seg.peek(0), 49u);
}

TEST(WriteBuffer, UncachedReadDrainsBufferedStores)
{
    // A read that follows buffered stores to the same device must see
    // their effect (launch sequences depend on this ordering).
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);

    Word read_back = 0;
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(seg.word(2), 777); // buffered
        read_back = co_await ctx.read(seg.word(2)); // drains first
    });
    c.run(10'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_EQ(read_back, 777u);
}

TEST(WriteBuffer, FenceDrainsBufferBeforeCountingOutstanding)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);

    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < 10; ++i)
            co_await ctx.write(seg.word(i), Word(i + 1));
        co_await ctx.fence();
        // Everything must be globally visible now.
        for (int i = 0; i < 10; ++i)
            EXPECT_EQ(seg.peek(i), Word(i + 1));
    });
    c.run(10'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
}

/** Events fired when node 1 posts @p n remote writes to node 0's page
 *  and then fences. */
std::uint64_t
postedWriteEvents(int n)
{
    Cluster c(ClusterSpec::star(2));
    Segment &seg = c.allocShared("s", 8192, 0);
    c.spawn(1, [&seg, n](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < n; ++i)
            co_await ctx.write(seg.word(i), Word(i + 1));
        EXPECT_TRUE((co_await ctx.fence()).ok());
    });
    c.run(10'000'000'000ULL);
    EXPECT_TRUE(c.allDone());
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(seg.peek(i), Word(i + 1));
    return c.system().events().executed();
}

TEST(WriteBuffer, DrainedStoresScheduleNoCompletionEvent)
{
    // The processor left each store in the buffer, so nothing waits on
    // the HIB latching a drained one and no event is scheduled for it:
    // one event per write fewer than a scheduled no-op latch would fire.
    // A write and its ack cross four links.  The writes leave node 1
    // back to back, so each first hop but the last frees its wire with
    // the next write waiting and fires a wire-free event; the other
    // three hops of every write find nothing waiting and fire none
    // (DESIGN.md section 14.2): 3n + 1 fewer than two per transmission.
    EXPECT_EQ(postedWriteEvents(8), 104u);
    EXPECT_EQ(postedWriteEvents(32), 416u);
}

TEST(WriteBuffer, PrivateStoresBypassTheBuffer)
{
    // Cacheable local stores never enter the uncached write buffer.
    ClusterSpec spec = ClusterSpec::star(1);
    Cluster c(spec);
    const VAddr priv = c.allocPrivate(0, 8192);

    c.spawn(0, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(priv, 5);
        // An immediate read hits the cache, no drain needed.
        EXPECT_EQ(co_await ctx.read(priv), 5u);
    });
    c.run(1'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_EQ(c.hibOf(0).outstanding().total(), 0u);
}

} // namespace
} // namespace tg
