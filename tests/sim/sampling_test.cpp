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
    r.events = c.tracer().events().size();
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
    // The sampled run records strictly less raw event data.
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
    c.tracer().setRetainedEventCap(256);
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

    // Far more events were recorded than retained...
    EXPECT_GT(c.tracer().recordedEvents(), 256u);
    EXPECT_LE(c.tracer().events().size(), 256u);
    EXPECT_GT(c.tracer().droppedEvents(), 0u);
    // ...and the breakdown still aggregates every retired operation.
    const trace::Breakdown b = c.tracer().breakdown();
    std::uint64_t ops = 0;
    for (const auto &k : b.ops)
        ops += k.ops;
    EXPECT_GT(ops, 700u);
    // The whole structure stays small despite ~800 traced operations.
    EXPECT_LT(c.tracer().approxBytes(), 256u * 1024u);
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
    c.tracer().setRetainedEventCap(1 << 12);
    c.tracer().setOpenOpCap(1 << 10);
    c.tracer().setLifetimeSampleCap(512);

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
    // Hard bound: caps (4096 events * 32B, 1024 open ops, 512 lifetimes
    // per kind) keep the tracer under 2 MB however large the run is.
    EXPECT_LT(c.tracer().approxBytes(), 2u * 1024u * 1024u);
}

} // namespace
