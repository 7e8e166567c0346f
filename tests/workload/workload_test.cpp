/**
 * @file
 * Tests of the workload library: each generator runs to completion and
 * produces the behaviour it advertises.
 */

#include <gtest/gtest.h>

#include "api/cluster.hpp"
#include "api/collectives.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include <set>

#include "workload/chaotic.hpp"
#include "workload/hotspot.hpp"
#include "workload/remote_paging.hpp"
#include "workload/stencil.hpp"
#include "workload/traffic.hpp"
#include "workload/trace_replay.hpp"

namespace tg {
namespace {

TEST(Workloads, HotspotCountsExactly)
{
    ClusterSpec spec = ClusterSpec::star(3);
    Cluster c(spec);
    Segment &ctr = c.allocShared("ctr", 8192, 0);

    workload::HotspotConfig cfg;
    cfg.increments = 15;
    cfg.thinkTime = 500;
    for (NodeId n = 0; n < 3; ++n)
        c.spawn(n, workload::hotspotWorker(ctr, cfg));
    c.run(2'000'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_EQ(ctr.peek(0), Word(3 * 15));
}

TEST(Workloads, StencilConvergesTowardsMean)
{
    ClusterSpec spec = ClusterSpec::star(3);
    Cluster c(spec);
    std::vector<Segment *> blocks;
    for (NodeId n = 0; n < 3; ++n)
        blocks.push_back(&c.allocShared("b" + std::to_string(n), 8192, n));
    Communicator &comm = c.communicator("sync", {0, 1, 2});

    workload::StencilConfig cfg;
    cfg.cellsPerNode = 8;
    cfg.iterations = 12;
    for (NodeId n = 0; n < 3; ++n)
        c.spawn(n, workload::stencilWorker(blocks, comm, n, cfg));
    c.run(8'000'000'000'000ULL);
    ASSERT_TRUE(c.allDone());

    // Initial values are 0, 100, 200; smoothing pulls everything into
    // (0, 200) and shrinks the spread.
    Word lo = ~Word(0), hi = 0;
    for (NodeId n = 0; n < 3; ++n) {
        for (std::size_t i = 0; i < cfg.cellsPerNode; ++i) {
            const Word v = blocks[n]->peek(i);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    }
    EXPECT_GT(lo, 0u);
    EXPECT_LT(hi, 200u);
    EXPECT_LT(hi - lo, 200u);
}

TEST(Workloads, ChaoticWritersDrainCompletely)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);
    seg.replicate(1, coherence::ProtocolKind::OwnerCounter);

    workload::ChaoticConfig cfg;
    cfg.writes = 40;
    cfg.words = 8;
    cfg.burst = true;
    c.spawn(0, workload::chaoticWriter(seg, cfg));
    c.spawn(1, workload::chaoticWriter(seg, cfg));
    c.run(2'000'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    for (NodeId n = 0; n < 2; ++n)
        EXPECT_EQ(c.hibOf(n).outstanding().current(), 0u);
}

TEST(Workloads, TrafficRespectsReadFraction)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    std::vector<Segment *> segs{&c.allocShared("a", 8192, 0),
                                &c.allocShared("b", 8192, 1)};

    workload::TrafficConfig cfg;
    cfg.ops = 200;
    cfg.readFraction = 0.0; // writes only
    c.spawn(0, workload::randomTraffic(segs, cfg));
    c.run(2'000'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    // Every op was a tracked write.
    EXPECT_EQ(c.hibOf(0).outstanding().total(), 200u);
}

TEST(Workloads, TraceGeneratorIsDeterministicAndLayoutAware)
{
    workload::TraceConfig cfg;
    cfg.accesses = 50;
    cfg.aligned = true;
    const auto a = workload::generateTrace(cfg, 1, 3);
    const auto b = workload::generateTrace(cfg, 1, 3);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].word, b[i].word);
        EXPECT_EQ(a[i].isWrite, b[i].isWrite);
    }

    // Aligned: all writes of node 1 land in page 1.
    for (const auto &op : a) {
        if (op.isWrite) {
            EXPECT_GE(op.word, 1024u);
            EXPECT_LT(op.word, 2048u);
        }
    }

    // Interleaved: node 1's writes span several pages.
    cfg.aligned = false;
    const auto c = workload::generateTrace(cfg, 1, 3);
    std::set<std::size_t> pages;
    for (const auto &op : c) {
        if (op.isWrite)
            pages.insert(op.word / 1024);
    }
    EXPECT_GT(pages.size(), 1u);
}

TEST(Workloads, TraceReplayRunsCleanly)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("t", 2 * 8192, 0);
    seg.replicate(1, coherence::ProtocolKind::OwnerCounter);

    workload::TraceConfig cfg;
    cfg.accesses = 60;
    cfg.gap = 300;
    for (NodeId n = 0; n < 2; ++n)
        c.spawn(n, workload::traceReplayer(
                       seg, workload::generateTrace(cfg, n, 2), cfg.gap));
    c.run(2'000'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    for (NodeId n = 0; n < 2; ++n)
        EXPECT_EQ(c.hibOf(n).outstanding().current(), 0u);
}

TEST(Workloads, PagingMissRateTracksLocality)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &backing = c.allocShared("back", 8 * 8192, 0);
    Segment &buf = c.allocShared("buf", 4 * 8192, 1);

    workload::PagingConfig cfg;
    cfg.pages = 8;
    cfg.residentPages = 4;
    cfg.accesses = 80;
    cfg.locality = 0.9;
    workload::PagingStats high_loc;
    c.spawn(1, workload::pagingApp(backing, buf, cfg, &high_loc));
    c.run(800'000'000'000'000ULL);
    ASSERT_TRUE(c.allDone());

    EXPECT_EQ(high_loc.touches, 80u);
    EXPECT_GT(high_loc.misses, 0u);
    EXPECT_LT(high_loc.misses, 40u); // locality keeps it well under 50%
}

} // namespace
} // namespace tg
