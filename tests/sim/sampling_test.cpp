/**
 * @file
 * Bounded-memory observability tests (DESIGN.md section 14.4): the
 * tracer's footprint is set by its caps, never by run length or node
 * count; eviction retires the oldest open op first; and the Sampler's
 * quantiles are exact.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace {

using namespace tg;

TEST(Sampling, TracerMemoryStaysBoundedUnderCaps)
{
    ClusterSpec spec = ClusterSpec::star(3).seed(5).trace(true);
    Cluster c(spec);
    Segment &seg = c.allocShared("data", 65536, 0);
    // Tiny caps so a modest workload overflows every bound.
    c.tracer().setOpenOpCap(32);
    c.tracer().setLifetimeSampleCap(16);

    for (NodeId n = 1; n <= 2; ++n) {
        c.spawn(n, [&seg, n](Ctx &ctx) -> Task<void> {
            for (int i = 0; i < 400; ++i)
                co_await ctx.write(seg.word(std::size_t(n) * 512 + i),
                                   Word(i));
            co_await ctx.fence();
        });
    }
    c.run();

    // Far more operations were traced than the open-op cap holds, and
    // the breakdown still aggregates every retired operation.
    EXPECT_GT(c.tracer().evictedOps(), 0u);
    const trace::Breakdown b = c.tracer().breakdown();
    std::uint64_t ops = 0;
    for (const auto &k : b.ops)
        ops += k.ops;
    EXPECT_GT(ops, 700u);
    // The whole structure stays small despite ~800 traced operations.
    EXPECT_LT(c.tracer().approxBytes(), 256u * 1024u);
}

/** Operation-level fingerprint of one tightly capped traced run. */
struct EvictionRun
{
    std::uint64_t evicted = 0;
    std::string breakdownJson;
    std::vector<Tick> writeLifetimes;
    trace::OpKind nullKind = trace::OpKind::Other;
    trace::OpKind oldestKind = trace::OpKind::Other;
    trace::OpKind newestKind = trace::OpKind::Other;
    trace::OpKind belowNewestKind = trace::OpKind::Other;
    trace::OpKind pastNewestKind = trace::OpKind::Other;
};

/** Writes, reads, atomics and fences from two nodes under a 32-op
 *  open table, so eviction runs from early in the run to its end. */
EvictionRun
runEvicting()
{
    Cluster c(ClusterSpec::star(3).seed(21).trace(true));
    Segment &seg = c.allocShared("data", 65536, 0);
    c.tracer().setOpenOpCap(32);
    c.tracer().setLifetimeSampleCap(8);

    for (NodeId n = 1; n <= 2; ++n) {
        c.spawn(n, [&seg, n](Ctx &ctx) -> Task<void> {
            const std::size_t base = std::size_t(n) * 512;
            for (int i = 0; i < 250; ++i)
                co_await ctx.write(seg.word(base + i), Word(i));
            co_await ctx.fence();
            for (int i = 0; i < 5; ++i)
                (void)co_await ctx.read(seg.word(base + i));
            co_await ctx.fetchAdd(seg.word(0), 1);
            for (int i = 0; i < 50; ++i)
                co_await ctx.write(seg.word(base + 300 + i), Word(i));
            co_await ctx.fence();
        });
    }
    c.run();

    // The oldest op was evicted long ago; the newest and the op just
    // below it are open.  Id 0 (the null id) and the id after the newest
    // lie outside the ring on either side.
    const trace::Tracer &t = c.tracer();
    const std::uint64_t newest = t.opsBegun();

    EvictionRun r;
    r.evicted = t.evictedOps();
    r.breakdownJson = t.breakdown().toJson();
    r.writeLifetimes = t.opLifetimes(trace::OpKind::RemoteWrite);
    r.nullKind = t.kindOf(0);
    r.oldestKind = t.kindOf(1);
    r.newestKind = t.kindOf(newest);
    r.belowNewestKind = t.kindOf(newest - 1);
    r.pastNewestKind = t.kindOf(newest + 1);
    return r;
}

TEST(Sampling, OpenOpRingEvictsLikeOrderedTable)
{
    // Golden values recorded from the ordered (std::map) open-op table
    // the id-indexed ring replaced: oldest-id-first eviction must retire
    // the same ops in the same order, and the direct index must find
    // exactly the open ones.
    const EvictionRun full = runEvicting();
    EXPECT_EQ(full.evicted, 584u);
    EXPECT_EQ(full.breakdownJson,
          "{\"schema\":\"tg-breakdown-v1\",\"ops\":[{\"kind\":\"write\","
          "\"ops\":595,\"total_us\":15.6971495798,"
          "\"mean_hops\":0.521008403361,"
          "\"components\":[{\"span\":\"tc_grant\",\"count\":727,"
          "\"mean_us\":1.6711092437},{\"span\":\"hib_launch\","
          "\"count\":726,\"mean_us\":0.488067226891},"
          "{\"span\":\"link_tx\",\"count\":615,"
          "\"mean_us\":11.2077848739},{\"span\":\"link_rx\","
          "\"count\":573,\"mean_us\":0.658840336134},"
          "{\"span\":\"switch_fwd\",\"count\":310,"
          "\"mean_us\":1.17400336134},{\"span\":\"hib_handle\","
          "\"count\":257,\"mean_us\":0.497344537815},"
          "{\"span\":\"completion\",\"count\":125,\"mean_us\":0}]},"
          "{\"kind\":\"read\",\"ops\":10,\"total_us\":19.2092,"
          "\"mean_hops\":2,\"components\":[{\"span\":\"tc_grant\","
          "\"count\":30,\"mean_us\":0},{\"span\":\"hib_launch\","
          "\"count\":20,\"mean_us\":2.19},{\"span\":\"link_tx\","
          "\"count\":40,\"mean_us\":9.3686},{\"span\":\"link_rx\","
          "\"count\":40,\"mean_us\":3.144},{\"span\":\"switch_fwd\","
          "\"count\":20,\"mean_us\":0.8616},{\"span\":\"hib_handle\","
          "\"count\":20,\"mean_us\":3.645},{\"span\":\"completion\","
          "\"count\":10,\"mean_us\":0}]},{\"kind\":\"atomic\",\"ops\":2,"
          "\"total_us\":6.877,\"mean_hops\":2,"
          "\"components\":[{\"span\":\"hib_launch\",\"count\":2,"
          "\"mean_us\":0.3},{\"span\":\"link_tx\",\"count\":8,"
          "\"mean_us\":1.0975},{\"span\":\"link_rx\",\"count\":8,"
          "\"mean_us\":4.058},{\"span\":\"switch_fwd\",\"count\":4,"
          "\"mean_us\":0.7},{\"span\":\"hib_handle\",\"count\":4,"
          "\"mean_us\":0.7215},{\"span\":\"completion\",\"count\":2,"
          "\"mean_us\":0}]},{\"kind\":\"fence\",\"ops\":4,"
          "\"total_us\":47.86025,\"mean_hops\":0,"
          "\"components\":[{\"span\":\"fence_start\",\"count\":4,"
          "\"mean_us\":1.852},{\"span\":\"fence_wake\",\"count\":3,"
          "\"mean_us\":46.00825}]}]}");
    EXPECT_EQ(full.writeLifetimes, (std::vector<Tick>{
        3492, 4630, 4788, 4898, 4946, 5088, 5354, 5550, 12054, 12354,
        12654, 12954, 13254, 13554, 13854, 14154, 14454, 14754, 15054,
        15354, 15654, 15954, 16254, 16554, 16854, 17154, 17454, 17754,
        18054, 18354, 18654, 18954, 19254, 19554, 19854, 20154, 20454,
        20754, 21054}));
    EXPECT_EQ(full.oldestKind, trace::OpKind::Other); // evicted
    EXPECT_EQ(full.newestKind, trace::OpKind::Fence);
    EXPECT_EQ(full.belowNewestKind, trace::OpKind::RemoteWrite);

    EXPECT_EQ(full.nullKind, trace::OpKind::Other);
    EXPECT_EQ(full.pastNewestKind, trace::OpKind::Other);
}

TEST(Sampling, SamplerExactBelowCap)
{
    Sampler s;
    for (int i = 1; i <= 100; ++i)
        s.sample(double(i));
    // Exact interpolated quantiles, identical to the pre-overhaul
    // behaviour for small experiments.
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 50.5);
    EXPECT_NEAR(s.quantile(0.99), 99.01, 1e-9);
}

TEST(Sampling, ThousandNodeTracedRunStaysBounded)
{
    // The scale target from the roadmap: a 1024-node traced run whose
    // tracer footprint is bounded by its caps, not by traffic volume.
    ClusterSpec spec = ClusterSpec::fatTree(1024, 8).seed(11).trace(true);
    Cluster c(spec);
    Segment &seg = c.allocShared("data", 1 << 20, 0);

    // 64 writers spread across the tree, 8 writes + fence each.
    for (NodeId n = 1; n <= 64; ++n) {
        const NodeId src = NodeId((std::size_t(n) * 16) % 1024);
        if (src == 0)
            continue;
        c.spawn(src, [&seg, n](Ctx &ctx) -> Task<void> {
            for (int i = 0; i < 8; ++i)
                co_await ctx.write(seg.word(std::size_t(n) * 16 + i),
                                   Word(i));
            co_await ctx.fence();
        });
    }
    c.run();
    ASSERT_TRUE(c.allDone());
    ASSERT_TRUE(c.auditQuiescent());

    EXPECT_GT(c.tracer().recordedEvents(), 0u);
    // Hard bound: the default caps keep the tracer under 2 MB however
    // large the run is.
    EXPECT_LT(c.tracer().approxBytes(), 2u * 1024u * 1024u);
}

TEST(Sampling, LongTracedRunStaysUnderTwoMiBAtDefaultCaps)
{
    // The aggregates are the only recording: a run that crosses far more
    // boundaries than any window would hold keeps a footprint set by the
    // default caps (open-op ring, per-kind lifetime samples) alone.
    Cluster c(ClusterSpec::star(2).seed(7).trace(true));
    Segment &seg = c.allocShared("data", 8192, 0);
    c.spawn(1, [&seg](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < 24000; ++i)
            co_await ctx.write(seg.word(std::size_t(i) % 64), Word(i));
        co_await ctx.fence();
    });
    c.run();
    ASSERT_TRUE(c.allDone());

    EXPECT_GT(c.tracer().recordedEvents(), std::uint64_t(1) << 18);
    const trace::Breakdown b = c.tracer().breakdown();
    const trace::OpBreakdown *w = b.of(trace::OpKind::RemoteWrite);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->ops, 24000u);
    EXPECT_LT(c.tracer().approxBytes(), 2u * 1024u * 1024u);
}

} // namespace
