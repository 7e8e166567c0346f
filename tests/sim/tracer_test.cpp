/**
 * @file
 * Packet-lifecycle tracer tests (DESIGN.md section 8).
 *
 * Two contracts are on trial here:
 *
 *  1. The tracer itself is deterministic: two same-seed runs of the same
 *     workload record the same number of events and export
 *     byte-identical latency-breakdown JSON.
 *
 *  2. The tracer is *passive*: recording must not perturb the simulated
 *     schedule, so the audit trace hash of a run is the same with
 *     tracing enabled and disabled, and a disabled tracer records
 *     nothing at all.
 */

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/measure.hpp"
#include "api/segment.hpp"

namespace {

using namespace tg;

struct RunResult
{
    std::uint64_t hash = 0;
    Tick end = 0;
    std::string breakdownJson;
    std::uint64_t events = 0;
    std::uint64_t opsBegun = 0;
    trace::Breakdown breakdown;
};

/** A small mixed workload: streamed writes, blocking reads, one atomic
 *  and a fence — enough to exercise every span boundary. */
RunResult
runWorkload(std::uint64_t seed, bool traced)
{
    ClusterSpec spec = ClusterSpec::star(2);
    spec.config.seed = seed;
    spec.config.tracePackets = traced;
    Cluster c(spec);
    Segment &seg = c.allocShared("data", 8192, 0);

    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < 32; ++i)
            co_await ctx.write(seg.word(i % 16), Word(i));
        co_await ctx.fence();
        for (int i = 0; i < 8; ++i)
            (void)co_await ctx.read(seg.word(i));
        (void)co_await ctx.fetchAdd(seg.word(20), 1);
        co_await ctx.fence();
    });

    RunResult r;
    r.end = c.run(4'000'000'000'000ULL);
    EXPECT_TRUE(c.allDone());
    r.hash = c.traceHash();
    r.events = c.tracer().recordedEvents();
    r.opsBegun = c.tracer().opsBegun();
    r.breakdown = c.latencyBreakdown();
    r.breakdownJson = r.breakdown.toJson();
    return r;
}

TEST(TracerTest, SameSeedByteIdenticalExports)
{
    const RunResult a = runWorkload(11, /*traced=*/true);
    const RunResult b = runWorkload(11, /*traced=*/true);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.opsBegun, b.opsBegun);
    EXPECT_EQ(a.breakdownJson, b.breakdownJson);
    EXPECT_GT(a.events, 0u);
}

TEST(TracerTest, TracingDoesNotPerturbTheSchedule)
{
    const RunResult off = runWorkload(11, /*traced=*/false);
    const RunResult on = runWorkload(11, /*traced=*/true);
    EXPECT_EQ(off.hash, on.hash)
        << "recording must be passive: same seed, same schedule";
    EXPECT_EQ(off.end, on.end);
}

TEST(TracerTest, DisabledTracerRecordsNothing)
{
    const RunResult off = runWorkload(11, /*traced=*/false);
    EXPECT_EQ(off.events, 0u);
    EXPECT_EQ(off.opsBegun, 0u);
    EXPECT_TRUE(off.breakdown.ops.empty());

    trace::Tracer t;
    EXPECT_EQ(t.beginOp(trace::OpKind::RemoteWrite), 0u)
        << "disabled beginOp returns the null id";
    t.record(1, trace::Span::CpuIssue, 5);
    EXPECT_EQ(t.recordedEvents(), 0u);
}

TEST(TracerTest, BreakdownComponentsSumToTotals)
{
    const RunResult r = runWorkload(3, /*traced=*/true);
    ASSERT_FALSE(r.breakdown.ops.empty());
    bool saw_write = false, saw_read = false;
    for (const trace::OpBreakdown &op : r.breakdown.ops) {
        EXPECT_GT(op.ops, 0u);
        EXPECT_NEAR(op.rowSumTicks(), op.totalTicks,
                    1e-9 * std::max(1.0, op.totalTicks))
            << opKindName(op.kind);
        saw_write |= op.kind == trace::OpKind::RemoteWrite;
        saw_read |= op.kind == trace::OpKind::RemoteRead;
    }
    EXPECT_TRUE(saw_write);
    EXPECT_TRUE(saw_read);

    // A blocking remote read crosses every hardware boundary.
    const trace::OpBreakdown *rd =
        r.breakdown.of(trace::OpKind::RemoteRead);
    ASSERT_NE(rd, nullptr);
    EXPECT_EQ(rd->ops, 8u);
    EXPECT_GT(rd->totalTicks, 0.0);
}

TEST(TracerTest, CoherenceAcksBeginNoOp)
{
    // An ack carries its request's op id, so it closes that op instead
    // of beginning one.  Node 1 stores one word of a page homed at node
    // 0 and replicated on every node under OwnerCounter, then fences.
    // The fence opens one op (the store hits the local copy and opens
    // none), and the HIBs begin one for the WriteOwner and one for each
    // of the owner's three reflected Updates.  The UpdateAcks from
    // nodes 2 and 3 begin none.  Tracing stays passive.
    std::uint64_t hash[2] = {};
    for (const bool traced : {false, true}) {
        ClusterSpec spec = ClusterSpec::star(4);
        spec.config.tracePackets = traced;
        Cluster c(spec);
        Segment &page = c.allocShared("rep", 8192, 0);
        for (NodeId n = 1; n < 4; ++n)
            page.replicate(n, coherence::ProtocolKind::OwnerCounter);
        c.spawn(1, [&](Ctx &ctx) -> Task<void> {
            co_await ctx.write(page.word(0), 42);
            EXPECT_TRUE((co_await ctx.fence()).ok());
        });
        c.run(4'000'000'000'000ULL);
        ASSERT_TRUE(c.allDone());
        EXPECT_EQ(c.tracer().opsBegun(), traced ? 5u : 0u);
        hash[traced] = c.traceHash();
    }
    EXPECT_EQ(hash[0], hash[1]);
}

TEST(TracerTest, StatsReportShowsNetCountersWithoutFaults)
{
    // Regression: statsReport() hid the reliability counters behind
    // fault.enabled(), so a healthy run reported nothing about the
    // link layer it always exercises.
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("data", 4096, 0);
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < 4; ++i)
            co_await ctx.write(seg.word(i), Word(i));
        co_await ctx.fence();
    });
    c.run(4'000'000'000'000ULL);
    ASSERT_TRUE(c.allDone());

    std::ostringstream os;
    c.statsReport(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("net.corrupt_discards"), std::string::npos) << out;
    EXPECT_NE(out.find("net.retransmissions"), std::string::npos);
    EXPECT_NE(out.find("net.dup_discards"), std::string::npos);
    EXPECT_NE(out.find("net.wire_failures"), std::string::npos);
}

TEST(TracerTest, TurboChannelWaitHistogramIsRegistered)
{
    // Regression: the TurboChannel tracked wait time only as a Scalar;
    // the Histogram type existed but nothing registered one.
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("data", 4096, 0);
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < 16; ++i)
            co_await ctx.write(seg.word(i), Word(i));
        co_await ctx.fence();
    });
    c.run(4'000'000'000'000ULL);
    ASSERT_TRUE(c.allDone());

    std::ostringstream os;
    c.statsJson(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("tc.wait_hist"), std::string::npos) << out;
}

} // namespace
