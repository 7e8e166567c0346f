/**
 * @file
 * Scale-proof observability tests (DESIGN.md section 14.4): deterministic
 * 1-in-N trace sampling, bounded tracer memory, and the sampler's
 * spill-to-sketch quantiles.
 *
 * The sampling contract: the sampled subset is a pure function of the
 * operation id (hashed, not modulo), operation ids are consumed whether
 * or not an operation is sampled, and recording never perturbs the
 * simulated schedule — so the audit trace hash is invariant across
 * tracing off / full tracing / any sampling shift.
 */

#include <cstdint>
#include <set>
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

struct SampledRun
{
    std::uint64_t hash = 0;
    Tick end = 0;
    std::uint64_t opsBegun = 0;
    std::uint64_t events = 0;
};

/** Mixed workload at a given sampling shift (shift 0 = trace all,
 *  tracing off when @p traced is false). */
SampledRun
runWorkload(std::uint64_t seed, bool traced, std::uint32_t shift)
{
    ClusterSpec spec = ClusterSpec::star(3)
                           .seed(seed)
                           .trace(traced)
                           .traceSample(shift);
    Cluster c(spec);
    Segment &seg = c.allocShared("data", 8192, 0);

    for (NodeId n = 1; n <= 2; ++n) {
        c.spawn(n, [&seg, n](Ctx &ctx) -> Task<void> {
            for (int i = 0; i < 24; ++i)
                co_await ctx.write(seg.word(std::size_t(n) * 24 + i),
                                   Word(i));
            co_await ctx.fence();
            for (int i = 0; i < 6; ++i)
                (void)co_await ctx.read(seg.word(std::size_t(n) * 24 + i));
            co_await ctx.fetchAdd(seg.word(0), 1);
            co_await ctx.fence();
        });
    }

    SampledRun r;
    r.end = c.run();
    r.hash = c.traceHash();
    r.opsBegun = c.tracer().opsBegun();
    r.events = c.tracer().recordedEvents();
    return r;
}

TEST(Sampling, TraceHashInvariantAcrossShiftsAndTracingOff)
{
    const SampledRun off = runWorkload(99, false, 0);
    const SampledRun full = runWorkload(99, true, 0);
    const SampledRun half = runWorkload(99, true, 1);
    const SampledRun eighth = runWorkload(99, true, 3);

    EXPECT_EQ(full.hash, off.hash);
    EXPECT_EQ(half.hash, off.hash);
    EXPECT_EQ(eighth.hash, off.hash);
    EXPECT_EQ(full.end, off.end);
    EXPECT_EQ(half.end, off.end);
    EXPECT_EQ(eighth.end, off.end);
}

TEST(Sampling, OpIdsConsumedIndependentOfShift)
{
    const SampledRun full = runWorkload(7, true, 0);
    const SampledRun sampled = runWorkload(7, true, 2);

    // Numbering is schedule-coupled, not sampling-coupled: every op
    // consumes an id whether or not it is recorded.
    EXPECT_EQ(sampled.opsBegun, full.opsBegun);
    EXPECT_GT(full.opsBegun, 0u);
    // The sampled run records strictly fewer boundary crossings.
    EXPECT_LT(sampled.events, full.events);
}

TEST(Sampling, SubsetIsPureFunctionOfId)
{
    // sampled() is static and seed-free: the kept subset for a given
    // shift is identical no matter who asks, which makes it seed- and
    // run-invariant by construction.
    std::set<std::uint64_t> kept2;
    for (std::uint64_t id = 1; id <= 4096; ++id) {
        if (trace::Tracer::sampled(id, 2))
            kept2.insert(id);
    }
    // Roughly 1 in 4 (hashed, so not exact), and never empty.
    EXPECT_GT(kept2.size(), 4096u / 8);
    EXPECT_LT(kept2.size(), 4096u / 2);
    // Shift 0 keeps everything; deeper shifts keep nested subsets of
    // measure 2^-shift on average.
    EXPECT_TRUE(trace::Tracer::sampled(12345, 0));
    std::size_t kept4 = 0;
    for (std::uint64_t id = 1; id <= 4096; ++id)
        kept4 += trace::Tracer::sampled(id, 4);
    EXPECT_GT(kept4, 0u);
    EXPECT_LT(kept4, kept2.size());
}

TEST(SamplingDeathTest, ShiftAbove63IsRejected)
{
    // sampled() builds a (1 << shift) mask, so 63 is the widest legal
    // shift; 64 would be an undefined full-width shift.
    Cluster ok(ClusterSpec::star(2).trace(true).traceSample(63));
    EXPECT_EQ(ok.tracer().sampleShift(), 63u);
    EXPECT_DEATH(Cluster(ClusterSpec::star(2).trace(true).traceSample(64)),
                 "traceSampleShift must be <= 63");
}

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
    trace::OpKind oldestKind = trace::OpKind::Other;
    trace::OpKind newestKind = trace::OpKind::Other;
    trace::OpKind belowNewestKind = trace::OpKind::Other;
};

/** Writes, reads, atomics and fences from two nodes under a 32-op
 *  open table, so eviction runs from early in the run to its end. */
EvictionRun
runEvicting(std::uint32_t shift)
{
    ClusterSpec spec =
        ClusterSpec::star(3).seed(21).trace(true).traceSample(shift);
    Cluster c(spec);
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

    // The oldest sampled op was evicted long ago; the newest is open,
    // and so is the op just below it unless sampling skipped its id.
    const trace::Tracer &t = c.tracer();
    std::uint64_t oldest = 1;
    while (!trace::Tracer::sampled(oldest, shift))
        ++oldest;
    std::uint64_t newest = t.opsBegun();
    while (!trace::Tracer::sampled(newest, shift))
        --newest;

    EvictionRun r;
    r.evicted = t.evictedOps();
    r.breakdownJson = t.breakdown().toJson();
    r.writeLifetimes = t.opLifetimes(trace::OpKind::RemoteWrite);
    r.oldestKind = t.kindOf(oldest);
    r.newestKind = t.kindOf(newest);
    r.belowNewestKind = t.kindOf(newest - 1);
    return r;
}

TEST(Sampling, OpenOpRingEvictsLikeOrderedTable)
{
    // Golden values recorded from the ordered (std::map) open-op table
    // the id-ordered ring replaced: oldest-id-first eviction must retire
    // the same ops in the same order, with full tracing and 1-in-8
    // sampling alike.
    const EvictionRun full = runEvicting(0);
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

    const EvictionRun eighth = runEvicting(3);
    EXPECT_EQ(eighth.evicted, 40u);
    EXPECT_EQ(eighth.breakdownJson,
          "{\"schema\":\"tg-breakdown-v1\",\"ops\":[{\"kind\":\"write\","
          "\"ops\":72,\"total_us\":74.2629027778,"
          "\"mean_hops\":1.63888888889,"
          "\"components\":[{\"span\":\"tc_grant\",\"count\":131,"
          "\"mean_us\":1.65372222222},{\"span\":\"hib_launch\","
          "\"count\":130,\"mean_us\":0.722222222222},"
          "{\"span\":\"link_tx\",\"count\":236,"
          "\"mean_us\":61.7959583333},{\"span\":\"link_rx\","
          "\"count\":234,\"mean_us\":2.19983333333},"
          "{\"span\":\"switch_fwd\",\"count\":118,"
          "\"mean_us\":5.15119444444},{\"span\":\"hib_handle\","
          "\"count\":115,\"mean_us\":2.73997222222},"
          "{\"span\":\"completion\",\"count\":56,\"mean_us\":0}]}]}");
    EXPECT_EQ(eighth.writeLifetimes, (std::vector<Tick>{
        8220, 9054, 9354, 9454, 9654, 11554, 12954, 13754, 14654,
        15054, 15254, 18354, 20354, 22354, 23297, 25054, 27354, 30354,
        31354, 41354, 80354, 83054, 84554, 84854, 86054, 88154, 91454,
        92054, 94754, 95654, 98054, 100154, 146248, 146346, 146626,
        147116, 147158, 236254, 238354, 238654}));
    EXPECT_EQ(eighth.oldestKind, trace::OpKind::Other); // evicted
    EXPECT_EQ(eighth.newestKind, trace::OpKind::RemoteWrite);
    EXPECT_EQ(eighth.belowNewestKind, trace::OpKind::Other); // unsampled
}

TEST(Sampling, SamplerSpillsToSketchWithExactMoments)
{
    Sampler s;
    s.setSampleCap(128);
    const std::size_t n = 10'000;
    double sum = 0;
    for (std::size_t i = 1; i <= n; ++i) {
        s.sample(double(i));
        sum += double(i);
    }
    EXPECT_TRUE(s.spilled());
    // Streaming moments are exact regardless of the spill.
    EXPECT_EQ(s.count(), n);
    EXPECT_DOUBLE_EQ(s.mean(), sum / double(n));
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), double(n));
    // Quantiles are approximate but rank-correct within a power-of-two
    // bucket: p50 of 1..10000 lies in [4096, 8192), p99 in [8192, 10000].
    const double p50 = s.quantile(0.5);
    EXPECT_GE(p50, 4096.0);
    EXPECT_LE(p50, 8192.0);
    const double p99 = s.quantile(0.99);
    EXPECT_GE(p99, 8192.0);
    EXPECT_LE(p99, double(n));
    // Extremes are exact.
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), double(n));
    // Memory stays with the cap, not the sample count.
    EXPECT_LT(s.approxBytes(), 16u * 1024u);
}

TEST(Sampling, SamplerExactBelowCap)
{
    Sampler s;
    for (int i = 1; i <= 100; ++i)
        s.sample(double(i));
    EXPECT_FALSE(s.spilled());
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
