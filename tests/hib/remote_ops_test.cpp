/**
 * @file
 * Tests of the HIB's remote operation paths through the full cluster:
 * fence semantics, outstanding tracking, page-counter alarms, eager
 * multicast, and write-queue back-pressure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"

namespace tg {
namespace {

ClusterSpec
spec(std::size_t nodes)
{
    ClusterSpec s = ClusterSpec::star(nodes);
    return s;
}

TEST(RemoteOps, FenceWaitsForAllOutstandingWrites)
{
    Cluster c(spec(2));
    Segment &seg = c.allocShared("s", 8192, 0);

    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < 50; ++i)
            co_await ctx.write(seg.word(i), Word(i));
        co_await ctx.fence();
        // After the fence every write must be globally performed.
        EXPECT_EQ(c.hibOf(1).outstanding().current(), 0u);
        for (int i = 0; i < 50; ++i)
            EXPECT_EQ(seg.peek(i), Word(i));
    });
    c.run(100'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
}

TEST(RemoteOps, WritesAreAckedAndTracked)
{
    Cluster c(spec(2));
    Segment &seg = c.allocShared("s", 8192, 0);

    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(seg.word(0), 1);
        co_await ctx.fence();
    });
    c.run(10'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_EQ(c.hibOf(1).outstanding().total(), 1u);
    EXPECT_EQ(c.hibOf(1).outstanding().current(), 0u);
}

TEST(RemoteOps, PageCounterAlarmReachesTheOs)
{
    Cluster c(spec(2));
    Segment &seg = c.allocShared("s", 8192, 0);
    seg.armCounters(1, /*reads=*/3, /*writes=*/1000);

    std::vector<PAddr> alarms;
    c.os(1).setAlarmPolicy([&](PAddr page, bool is_write) {
        alarms.push_back(page);
        EXPECT_FALSE(is_write);
    });

    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < 5; ++i)
            (void)co_await ctx.read(seg.word(0));
    });
    c.run(10'000'000'000ULL);
    ASSERT_TRUE(c.allDone());

    // Exactly one alarm (the 3 -> 0 transition), for the right page.
    ASSERT_EQ(alarms.size(), 1u);
    EXPECT_EQ(alarms[0], seg.homePage(0));
    EXPECT_EQ(c.system().stats().find(c.hibOf(1).pageCounters().name() +
                                      ".alarms"),
              1.0);
}

TEST(RemoteOps, EagerMulticastDeliversToReaderCopies)
{
    Cluster c(spec(3));
    Segment &seg = c.allocShared("s", 8192, 0);
    seg.eagerTo(1);
    seg.eagerTo(2);

    c.spawn(0, [&](Ctx &ctx) -> Task<void> {
        // Owner's local writes are transparently multicast (2.2.7).
        for (int i = 0; i < 4; ++i)
            co_await ctx.write(seg.word(i), Word(40 + i));
        co_await ctx.fence();
    });
    c.run(10'000'000'000ULL);
    ASSERT_TRUE(c.allDone());

    // Readers' local receive copies got every update.  (Accumulators
    // must outlive the loop: the coroutines run after it exits.)
    std::vector<Word> local0(3, 0), local3(3, 0);
    for (NodeId n = 1; n <= 2; ++n) {
        // Read through the reader's own mapping (local copy).
        c.spawn(n, [&, n](Ctx &ctx) -> Task<void> {
            local0[n] = co_await ctx.read(seg.word(0));
            local3[n] = co_await ctx.read(seg.word(3));
        });
    }
    c.run(20'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    for (NodeId n = 1; n <= 2; ++n) {
        EXPECT_EQ(local0[n], 40u);
        EXPECT_EQ(local3[n], 43u);
    }
}

TEST(RemoteOps, ReaderSpinsOnLocalCopyNotNetwork)
{
    // With an eager mapping the reader's accesses are local: no network
    // packets are generated by its reads.
    Cluster c(spec(2));
    Segment &seg = c.allocShared("s", 8192, 0);
    seg.eagerTo(1);

    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < 100; ++i)
            (void)co_await ctx.read(seg.word(0));
    });
    const std::uint64_t before = c.network().switchForwarded();
    c.run(10'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_EQ(c.network().switchForwarded(), before);
}

TEST(RemoteOps, BackPressureNeverLosesWrites)
{
    // A burst far beyond every queue in the system: all writes must
    // still land exactly once.
    Cluster c(spec(2));
    Segment &seg = c.allocShared("s", 4 * 8192, 0);

    constexpr int kWrites = 2000;
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < kWrites; ++i)
            co_await ctx.write(seg.word(i % 4096), Word(i));
        co_await ctx.fence();
    });
    c.run(100'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_EQ(c.hibOf(1).outstanding().total(), std::uint64_t(kWrites));
    EXPECT_EQ(c.hibOf(1).outstanding().current(), 0u);
}

TEST(RemoteOps, EveryInFlightPacketIsOneArenaSlot)
{
    // A multicast burst queues far beyond the 16-packet link FIFO; from
    // inject to ingress pop each packet is still exactly one arena slot,
    // on fault-free links and on reliable links that corrupt, drop and
    // duplicate (the retransmit buffer holds the slot, not a copy).
    FaultSpec noisy;
    noisy.bitErrorRate = 0.05;
    noisy.dropRate = 0.05;
    noisy.duplicateRate = 0.05;
    for (const ClusterSpec &sp : {spec(4), spec(4).faults(noisy)}) {
        SCOPED_TRACE(sp.config.fault.enabled() ? "noisy" : "fault-free");
        Cluster c(sp);
        Segment &seg = c.allocShared("s", 8192, 0);
        for (NodeId n = 1; n <= 3; ++n)
            seg.eagerTo(n);
        c.spawn(0, [&](Ctx &ctx) -> Task<void> {
            for (int i = 0; i < 60; ++i)
                co_await ctx.write(seg.word(i), Word(i));
            co_await ctx.fence();
        });
        c.run(0); // start the CPUs, fire nothing

        System &sys = c.system();
        std::uint64_t peak = 0;
        int mismatches = 0;
        std::string first;
        for (Tick t = 500; !sys.events().empty(); t += 500) {
            ASSERT_LT(t, 100'000'000ULL) << "the burst never drained";
            sys.events().runUntil(t);
            const std::uint64_t in_flight = sys.ledger().inFlight();
            peak = std::max(peak, in_flight);
            if (sys.arena().live() != in_flight && mismatches++ == 0)
                first = "tick " + std::to_string(t) + ": " +
                        std::to_string(sys.arena().live()) +
                        " slots for " + std::to_string(in_flight) +
                        " in flight";
        }
        ASSERT_TRUE(c.allDone());
        EXPECT_EQ(mismatches, 0) << first;
        EXPECT_GT(peak, sys.config().hibFifoPackets);
        if (sp.config.fault.enabled()) {
            EXPECT_GT(c.network().corruptions(), 0u);
            EXPECT_GT(c.network().duplicateDiscards(), 0u);
            EXPECT_GT(c.network().retransmissions(), 0u);
            EXPECT_EQ(c.network().wireFailures(), 0u);
        }
    }
}

TEST(RemoteOps, ProtectionViolationKillsThread)
{
    Cluster c(spec(2));
    c.allocShared("s", 8192, 0);

    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        // Store to an unmapped address: the TLB catches it and the OS
        // kills the process (mapping-based protection, section 2.1).
        co_await ctx.write(0xdead'0000, 1);
    });
    c.run(10'000'000'000ULL);
    EXPECT_TRUE(c.allDone());
    EXPECT_TRUE(c.anyKilled());
}

TEST(RemoteOps, CopyEngineMovesBulkData)
{
    Cluster c(spec(2));
    Segment &src = c.allocShared("src", 2 * 8192, 0);
    Segment &dst = c.allocShared("dst", 2 * 8192, 1);
    for (std::size_t i = 0; i < 1024; ++i)
        src.poke(i, 7000 + i);

    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.copy(src.word(0), dst.word(0), 8192);
        co_await ctx.fence();
    });
    c.run(100'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    for (std::size_t i = 0; i < 1024; ++i)
        ASSERT_EQ(dst.peek(i), 7000 + i) << "word " << i;
}

} // namespace
} // namespace tg
