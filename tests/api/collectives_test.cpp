/**
 * @file
 * Tests of the collective operations library: semantics on both
 * backends, host-vs-NIC differential equivalence, trace-hash
 * determinism, fault behaviour and the stats surface.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/cluster.hpp"
#include "api/collectives.hpp"
#include "api/context.hpp"

namespace tg {
namespace {

const CollectiveBackend kBackends[] = {CollectiveBackend::Host,
                                       CollectiveBackend::Nic};

const char *
backendName(CollectiveBackend b)
{
    return b == CollectiveBackend::Host ? "host" : "nic";
}

TEST(Collectives, BroadcastDeliversPayloadToAllMembers)
{
    for (const CollectiveBackend b : kBackends) {
        ClusterSpec spec = ClusterSpec::star(4).collectives(b);
        Cluster c(spec);
        Communicator &comm = c.communicator("comm", {0, 1, 2, 3}, 8);

        std::vector<std::vector<Word>> got(4);
        for (NodeId n = 0; n < 4; ++n) {
            c.spawn(n, [&, n](Ctx &ctx) -> Task<void> {
                std::vector<Word> io;
                if (n == 2)
                    io = {7, 8, 9};
                co_await comm.broadcast(ctx, io, /*root=*/2);
                got[n] = io;
            });
        }
        c.run(400'000'000'000ULL);
        ASSERT_TRUE(c.allDone()) << backendName(b);
        for (NodeId n = 0; n < 4; ++n) {
            ASSERT_EQ(got[n].size(), 3u)
                << backendName(b) << " node " << n;
            EXPECT_EQ(got[n][0], 7u);
            EXPECT_EQ(got[n][1], 8u);
            EXPECT_EQ(got[n][2], 9u);
        }
    }
}

TEST(Collectives, RepeatedBroadcastsStaySequenced)
{
    for (const CollectiveBackend b : kBackends) {
        ClusterSpec spec = ClusterSpec::star(3).collectives(b);
        Cluster c(spec);
        Communicator &comm = c.communicator("comm", {0, 1, 2}, 4);

        bool ok = true;
        for (NodeId n = 0; n < 3; ++n) {
            c.spawn(n, [&, n](Ctx &ctx) -> Task<void> {
                for (int round = 1; round <= 5; ++round) {
                    std::vector<Word> io;
                    if (n == 0)
                        io = {Word(round) * 11};
                    co_await comm.broadcast(ctx, io, 0);
                    if (io.size() != 1 || io[0] != Word(round) * 11)
                        ok = false;
                }
            });
        }
        c.run(800'000'000'000ULL);
        ASSERT_TRUE(c.allDone()) << backendName(b);
        EXPECT_TRUE(ok) << backendName(b);
    }
}

TEST(Collectives, ReduceSumsContributionsAtRootOnly)
{
    for (const CollectiveBackend b : kBackends) {
        ClusterSpec spec = ClusterSpec::star(4).collectives(b);
        Cluster c(spec);
        Communicator &comm = c.communicator("comm", {0, 1, 2, 3});

        Word root_sum = 0;
        int at_root_count = 0;
        for (NodeId n = 0; n < 4; ++n) {
            c.spawn(n, [&, n](Ctx &ctx) -> Task<void> {
                const ReduceOut r =
                    co_await comm.reduceSum(ctx, Word(n) + 1, /*root=*/1);
                if (r.atRoot) {
                    ++at_root_count;
                    root_sum = r.value;
                    EXPECT_EQ(n, 1u) << backendName(b);
                }
            });
        }
        c.run(400'000'000'000ULL);
        ASSERT_TRUE(c.allDone()) << backendName(b);
        EXPECT_EQ(at_root_count, 1) << backendName(b);
        EXPECT_EQ(root_sum, 1u + 2 + 3 + 4) << backendName(b);
    }
}

TEST(Collectives, AllReduceGivesEveryoneTheSum)
{
    for (const CollectiveBackend b : kBackends) {
        ClusterSpec spec = ClusterSpec::star(3).collectives(b);
        Cluster c(spec);
        Communicator &comm = c.communicator("comm", {0, 1, 2});

        std::vector<Word> sums(3, 0);
        for (NodeId n = 0; n < 3; ++n) {
            c.spawn(n, [&, n](Ctx &ctx) -> Task<void> {
                sums[n] = co_await comm.allReduceSum(ctx, Word(n) * 10);
            });
        }
        c.run(400'000'000'000ULL);
        ASSERT_TRUE(c.allDone()) << backendName(b);
        for (NodeId n = 0; n < 3; ++n)
            EXPECT_EQ(sums[n], 30u) << backendName(b);
    }
}

TEST(Collectives, ManyRoundsOfAllReduceRotateSlotsSafely)
{
    // More rounds than the host backend's slot rotation (and than any
    // NIC descriptor ever outstanding): exercises reuse.
    for (const CollectiveBackend b : kBackends) {
        ClusterSpec spec = ClusterSpec::star(3).collectives(b);
        Cluster c(spec);
        Communicator &comm = c.communicator("comm", {0, 1, 2});

        bool ok = true;
        for (NodeId n = 0; n < 3; ++n) {
            c.spawn(n, [&, n](Ctx &ctx) -> Task<void> {
                for (int round = 1; round <= 10; ++round) {
                    const Word s = co_await comm.allReduceSum(
                        ctx, Word(round) * (Word(n) + 1));
                    if (s != Word(round) * 6) // (1+2+3) * round
                        ok = false;
                }
            });
        }
        c.run(4'000'000'000'000ULL);
        ASSERT_TRUE(c.allDone()) << backendName(b);
        EXPECT_TRUE(ok) << backendName(b);
    }
}

TEST(Collectives, BarrierSynchronizesMembers)
{
    for (const CollectiveBackend b : kBackends) {
        ClusterSpec spec = ClusterSpec::star(3).collectives(b);
        Cluster c(spec);
        Communicator &comm = c.communicator("comm", {0, 1, 2});

        std::vector<Tick> after(3, 0);
        for (NodeId n = 0; n < 3; ++n) {
            c.spawn(n, [&, n](Ctx &ctx) -> Task<void> {
                co_await ctx.compute(Tick(n) * 200'000); // staggered
                co_await comm.barrier(ctx);
                after[n] = ctx.now();
            });
        }
        c.run(400'000'000'000ULL);
        ASSERT_TRUE(c.allDone()) << backendName(b);
        // Nobody passes the barrier before the last arrival (~400 us).
        for (NodeId n = 0; n < 3; ++n)
            EXPECT_GE(after[n], 400'000u) << backendName(b);
    }
}

// ---------------------------------------------------------------------
// Differential: both backends implement identical semantics
// ---------------------------------------------------------------------

/** One mixed collective workload; returns a value signature capturing
 *  everything every member observed. */
std::vector<Word>
runMixedWorkload(ClusterSpec spec, std::uint64_t seed)
{
    Cluster c(spec);
    const std::size_t n_nodes = c.numNodes();
    std::vector<NodeId> members;
    for (NodeId n = 0; n < NodeId(n_nodes); ++n)
        members.push_back(n);
    Communicator &comm = c.communicator("comm", members, 8);

    std::vector<std::vector<Word>> per_node(n_nodes);
    for (NodeId n = 0; n < NodeId(n_nodes); ++n) {
        c.spawn(n, [&, n, seed](Ctx &ctx) -> Task<void> {
            std::vector<Word> &out = per_node[n];

            co_await comm.barrier(ctx);

            const Word all =
                co_await comm.allReduceSum(ctx, seed * (Word(n) + 1));
            out.push_back(all);

            std::vector<Word> io;
            if (n == 2)
                io = {seed, seed + 1, seed + 2};
            co_await comm.broadcast(ctx, io, /*root=*/2);
            out.insert(out.end(), io.begin(), io.end());

            const ReduceOut red =
                co_await comm.reduceSum(ctx, Word(n) + seed, /*root=*/1);
            out.push_back(red.atRoot ? 1 : 0);
            out.push_back(red.value);

            co_await comm.barrier(ctx);
        });
    }
    c.run(8'000'000'000'000ULL);
    EXPECT_TRUE(c.allDone());
    std::string why;
    EXPECT_TRUE(c.auditQuiescent(&why)) << why;

    std::vector<Word> signature;
    for (const auto &v : per_node)
        signature.insert(signature.end(), v.begin(), v.end());
    return signature;
}

TEST(Collectives, HostAndNicAgreeAcrossFabricsAndSeeds)
{
    const ClusterSpec fabrics[] = {
        ClusterSpec::torus(2, 2, 2),     // 8 nodes, 2-D torus
        ClusterSpec::torus3d(2, 2, 2, 1), // 8 nodes, 3-D torus
        ClusterSpec::fatTree(8, 4),      // 8 nodes, 2 leaves + spines
    };
    for (std::size_t f = 0; f < 3; ++f) {
        for (const std::uint64_t seed : {1ULL, 7ULL, 13ULL}) {
            ClusterSpec host = fabrics[f];
            host.seed(seed).collectives(CollectiveBackend::Host);
            ClusterSpec nic = fabrics[f];
            nic.seed(seed).collectives(CollectiveBackend::Nic);

            const auto a = runMixedWorkload(host, seed);
            const auto b = runMixedWorkload(nic, seed);
            EXPECT_EQ(a, b) << "fabric " << f << " seed " << seed;
        }
    }
}

// ---------------------------------------------------------------------
// Determinism: same seed, same backend -> byte-identical audit hash
// ---------------------------------------------------------------------

std::uint64_t
hashOfCollectiveRun(CollectiveBackend b)
{
    ClusterSpec spec = ClusterSpec::torus(2, 2, 2).seed(99).collectives(b);
    Cluster c(spec);
    Communicator &comm =
        c.communicator("comm", {0, 1, 2, 3, 4, 5, 6, 7}, 8);
    for (NodeId n = 0; n < 8; ++n) {
        c.spawn(n, [&, n](Ctx &ctx) -> Task<void> {
            co_await comm.barrier(ctx);
            co_await comm.allReduceSum(ctx, Word(n) * 3 + 1);
            std::vector<Word> io;
            if (n == 0)
                io = {41, 42};
            co_await comm.broadcast(ctx, io, 0);
        });
    }
    c.run(8'000'000'000'000ULL);
    EXPECT_TRUE(c.allDone());
    EXPECT_GT(c.traceLength(), 0u);
    return c.traceHash();
}

TEST(Collectives, SameSeedRunsHashIdenticallyPerBackend)
{
    for (const CollectiveBackend b : kBackends) {
        const std::uint64_t h1 = hashOfCollectiveRun(b);
        const std::uint64_t h2 = hashOfCollectiveRun(b);
        EXPECT_EQ(h1, h2) << backendName(b);
    }
}

// ---------------------------------------------------------------------
// Fault behaviour: a dropped tree link surfaces, never hangs
// ---------------------------------------------------------------------

TEST(Collectives, NicBarrierCompletesThroughDroppedTreeLink)
{
    // Every packet on one of node 2's links is lost, so its collective
    // packet exhausts the retry budget and dies: the CollUp towards the
    // tree parent (up2) or the CollDown release (down2).  The receiving
    // NIC is the victim and synthesizes the arrival with the error flag
    // set, so the barrier completes on every member and the loss
    // surfaces as OpError::LinkFailure.
    struct Case
    {
        const char *link;
        NodeId victim; ///< the NIC the lost packet was addressed to
    };
    for (const Case k : {Case{"up2", 0}, Case{"down2", 2}}) {
        SCOPED_TRACE(k.link);
        FaultSpec fault;
        fault.dropRate = 1.0;
        fault.linkFilter = k.link;
        fault.retryTimeout = 1000;
        fault.maxRetries = 2;
        ClusterSpec spec = ClusterSpec::star(4)
                               .seed(5)
                               .faults(fault)
                               .collectives(CollectiveBackend::Nic);
        Cluster c(spec);
        Communicator &comm = c.communicator("comm", {0, 1, 2, 3});

        int completed = 0;
        int errors = 0;
        for (NodeId n = 0; n < 4; ++n) {
            c.spawn(n, [&](Ctx &ctx) -> Task<void> {
                const Result<void> r = co_await comm.barrier(ctx);
                ++completed;
                if (!r.ok())
                    ++errors;
            });
        }
        c.run(400'000'000'000ULL);
        ASSERT_TRUE(c.allDone()); // completes: nobody hangs on the loss
        EXPECT_EQ(completed, 4);
        EXPECT_GT(errors, 0); // ...and the failure is visible, not silent
        std::uint64_t engine_errors = 0;
        for (NodeId n = 0; n < 4; ++n) {
            engine_errors += c.hibOf(n).collectives().errors();
            EXPECT_EQ(c.hibOf(n).wireFailures(), n == k.victim ? 1u : 0u)
                << "node " << n;
        }
        EXPECT_GT(engine_errors, 0u);
        std::string why;
        EXPECT_TRUE(c.auditQuiescent(&why)) << why;
    }
}

// ---------------------------------------------------------------------
// Stats surface: collective counters are always registered
// ---------------------------------------------------------------------

TEST(Collectives, CollCountersAlwaysOnStatsSurface)
{
    // No communicator is ever built: the counters must still exist,
    // zero-valued, in both the JSON dump and the text report.
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    c.spawn(0, [](Ctx &ctx) -> Task<void> { co_await ctx.compute(10); });
    c.run(1'000'000'000ULL);

    std::ostringstream json;
    c.statsJson(json);
    EXPECT_NE(json.str().find("node0.hib.coll_barriers"),
              std::string::npos);
    EXPECT_NE(json.str().find("node1.hib.coll_errors"), std::string::npos);

    std::ostringstream report;
    c.statsReport(report);
    EXPECT_NE(report.str().find("hib.coll_barriers"), std::string::npos);
    EXPECT_NE(report.str().find("hib.coll_desc_peak"), std::string::npos);
}

TEST(Collectives, HostSetupMaterialisesNoZeroPages)
{
    // Regression: the Host backend once mapped every root's broadcast
    // page out to every other member at set-up, and while reads of
    // untouched memory allocated, that materialised 64 x 63 zero pages
    // (~33 MB) before any collective ran.  Set-up now only reserves the
    // pages (a root's page is mapped on its first broadcast), and absent
    // memory reads as zero; the bound keeps set-up to the few chunks it
    // actually writes.
    constexpr std::size_t kNodes = 64;
    ClusterSpec spec =
        ClusterSpec::forKind(net::TopologyKind::Torus2D, kNodes, 4)
            .collectives(CollectiveBackend::Host);
    Cluster c(spec);
    std::vector<NodeId> members;
    for (NodeId n = 0; n < NodeId(kNodes); ++n)
        members.push_back(n);
    c.communicator("comm", members, 8);

    double touched = 0;
    for (NodeId n = 0; n < NodeId(kNodes); ++n)
        touched += c.system()
                       .stats()
                       .find("node" + std::to_string(n) + ".mem.touched_bytes")
                       .value();
    EXPECT_LE(touched, double(kNodes) * 4 * 8192) << touched;
}

TEST(Collectives, HostSetupIsLinearAndMapsARootOnItsFirstBroadcast)
{
    // Set-up reserves every root's broadcast page and maps none of them:
    // no multicast entry exists until a root broadcasts, and then only
    // that root's page is mapped out, to each other member.
    for (const std::size_t nodes : {64, 256}) {
        SCOPED_TRACE(nodes);
        ClusterSpec spec =
            ClusterSpec::forKind(net::TopologyKind::Torus2D, nodes, 4)
                .collectives(CollectiveBackend::Host);
        Cluster c(spec);
        std::vector<NodeId> members;
        for (NodeId n = 0; n < NodeId(nodes); ++n)
            members.push_back(n);
        // A payload over one page wide: every page of the root's slot
        // is mapped out.
        constexpr std::size_t kMaxWords = 1100;
        const std::size_t page_bytes = c.config().pageBytes;
        const std::size_t pages =
            ((8 + kMaxWords) * 8 + page_bytes - 1) / page_bytes;
        ASSERT_EQ(pages, 2u);
        Communicator &comm = c.communicator("comm", members, kMaxWords);

        auto multicastEntries = [&c, nodes] {
            std::size_t used = 0;
            for (NodeId n = 0; n < NodeId(nodes); ++n)
                used += c.hibOf(n).multicast().used();
            return used;
        };
        EXPECT_EQ(multicastEntries(), 0u);

        std::size_t delivered = 0;
        for (NodeId n = 0; n < NodeId(nodes); ++n) {
            c.spawn(n, [&comm, &delivered, n](Ctx &ctx) -> Task<void> {
                std::vector<Word> io;
                if (n == 0)
                    io = {11, 12};
                const Result<void> r = co_await comm.broadcast(ctx, io, 0);
                if (r.ok() && io == std::vector<Word>{11, 12})
                    ++delivered;
            });
        }
        c.run(400'000'000'000ULL);
        ASSERT_TRUE(c.allDone());
        EXPECT_EQ(delivered, nodes);
        EXPECT_EQ(c.hibOf(0).multicast().used(), (nodes - 1) * pages);
        EXPECT_EQ(multicastEntries(), (nodes - 1) * pages);
    }
}

} // namespace
} // namespace tg
