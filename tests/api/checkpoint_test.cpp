/**
 * @file
 * Cluster checkpoint/restore round-trip tests (DESIGN.md section 14.5).
 *
 * The contract under test: checkpoint a quiescent cluster, rebuild a
 * fresh cluster from the same spec + setup calls, restore, continue the
 * workload — and the trace hash and the full statistics dump evolve
 * bit-identically to the run that never checkpointed.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/cluster.hpp"
#include "api/collectives.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"

namespace tg {
namespace {

ClusterSpec
specUnderTest(ClusterSpec topology = ClusterSpec::star(4))
{
    return topology.protocol(coherence::ProtocolKind::OwnerCounter)
        .trace(true)
        .seed(1234);
}

/** Setup replay: everything the restore contract requires to happen
 *  identically before restore() — allocation and replication. */
Segment &
setUp(Cluster &c)
{
    Segment &seg = c.allocShared("data", 4096, 0);
    seg.replicate(1, coherence::ProtocolKind::OwnerCounter);
    seg.replicate(2, coherence::ProtocolKind::OwnerCounter);
    return seg;
}

/** First half of the workload: concurrent writers + an atomic. */
void
phase1(Cluster &c, Segment &seg)
{
    for (NodeId n = 1; n <= 3; ++n) {
        c.spawn(n, [&seg, n](Ctx &ctx) -> Task<void> {
            for (int i = 0; i < 8; ++i)
                co_await ctx.write(seg.word(std::size_t(n) * 8 + i),
                                   Word(100 * n + i));
            co_await ctx.fetchAdd(seg.word(0), 1);
            co_await ctx.fence();
        });
    }
}

/** Second half: reads of phase-1 data, more writes, another atomic. */
void
phase2(Cluster &c, Segment &seg, std::vector<Word> &read_back)
{
    c.spawn(2, [&seg, &read_back](Ctx &ctx) -> Task<void> {
        for (int i = 8; i < 32; ++i)
            read_back.push_back(co_await ctx.read(seg.word(i)));
        co_await ctx.fence();
    });
    c.spawn(1, [&seg](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < 8; ++i)
            co_await ctx.write(seg.word(40 + i), Word(7000 + i));
        co_await ctx.fetchAdd(seg.word(0), 10);
        co_await ctx.fence();
    });
}

std::string
statsJson(const Cluster &c)
{
    std::ostringstream os;
    c.statsJson(os);
    return os.str();
}

/** Both phases unsplit, then phase 1 / checkpoint / restore / phase 2:
 *  same trace, same reads, same statistics. */
void
expectRoundTrip(const ClusterSpec &spec)
{
    // Reference: run both phases without ever checkpointing.
    Cluster ref(spec);
    Segment &ref_seg = setUp(ref);
    phase1(ref, ref_seg);
    ref.run();
    ASSERT_TRUE(ref.allDone());
    ASSERT_TRUE(ref.auditQuiescent());
    std::vector<Word> ref_reads;
    phase2(ref, ref_seg, ref_reads);
    ref.run();
    ASSERT_TRUE(ref.allDone());
    const std::uint64_t ref_hash = ref.traceHash();
    const std::uint64_t ref_len = ref.traceLength();
    const std::uint64_t ref_model = ref.modelHash();
    const std::uint64_t ref_model_len = ref.modelLength();

    // Checkpointed: identical phase 1, snapshot at quiescence.
    std::string blob;
    {
        Cluster a(spec);
        Segment &seg = setUp(a);
        phase1(a, seg);
        a.run();
        ASSERT_TRUE(a.allDone());
        blob = a.checkpoint();
    }
    ASSERT_FALSE(blob.empty());

    // Restored: fresh cluster, replayed setup, restore, phase 2 only.
    Cluster b(spec);
    Segment &b_seg = setUp(b);
    b.restore(blob);
    std::vector<Word> b_reads;
    phase2(b, b_seg, b_reads);
    b.run();
    ASSERT_TRUE(b.allDone());
    ASSERT_TRUE(b.auditQuiescent());

    EXPECT_EQ(b.traceHash(), ref_hash);
    EXPECT_EQ(b.traceLength(), ref_len);
    EXPECT_EQ(b.modelHash(), ref_model);
    EXPECT_EQ(b.modelLength(), ref_model_len);
    EXPECT_EQ(b_reads, ref_reads);
    EXPECT_EQ(statsJson(b), statsJson(ref));
}

TEST(Checkpoint, RoundTripContinuesBitIdentically)
{
    {
        SCOPED_TRACE("star(4)");
        expectRoundTrip(specUnderTest(ClusterSpec::star(4)));
    }
    {
        // Four switches: the network-owned switch totals round-trip.
        SCOPED_TRACE("torus(2, 2, 1)");
        expectRoundTrip(specUnderTest(ClusterSpec::torus(2, 2, 1)));
    }
}

/** The `events <seq> <executed>` line of @p blob. */
std::pair<std::uint64_t, std::uint64_t>
eventCounters(const std::string &blob)
{
    std::istringstream in(blob.substr(blob.find("\nevents ") + 8));
    std::uint64_t seq = 0, executed = 0;
    in >> seq >> executed;
    return {seq, executed};
}

TEST(Checkpoint, ContinuesAfterElidedWireFrees)
{
    // Phase 1's isolated link sends free their wires with nothing
    // waiting, so they take sequence numbers that no event ever fires
    // with: the checkpoint's counter runs ahead of the executed count,
    // and the restored run continues both digests only because the
    // counter is written as it stands.
    const ClusterSpec spec = specUnderTest();
    Cluster ref(spec);
    Segment &ref_seg = setUp(ref);
    phase1(ref, ref_seg);
    ref.run();
    std::vector<Word> ref_reads;
    phase2(ref, ref_seg, ref_reads);
    ref.run();
    ASSERT_TRUE(ref.allDone());

    std::string blob;
    {
        Cluster a(spec);
        Segment &seg = setUp(a);
        phase1(a, seg);
        a.run();
        ASSERT_TRUE(a.allDone());
        blob = a.checkpoint();
    }
    const auto [seq, executed] = eventCounters(blob);
    EXPECT_GT(seq, executed);

    const auto continueFrom = [&](const std::string &from) {
        Cluster b(spec);
        Segment &seg = setUp(b);
        b.restore(from);
        std::vector<Word> reads;
        phase2(b, seg, reads);
        b.run();
        EXPECT_TRUE(b.allDone());
        EXPECT_EQ(reads, ref_reads);
        return std::pair{b.traceHash(), b.modelHash()};
    };
    EXPECT_EQ(continueFrom(blob),
              std::pair(ref.traceHash(), ref.modelHash()));

    // Recovering the counter from the executed count, as v6 did, gives
    // later events other sequence numbers: the schedule digest departs.
    std::string derived = blob;
    const std::string line = "\nevents " + std::to_string(seq) + " ";
    derived.replace(derived.find(line), line.size(),
                    "\nevents " + std::to_string(executed) + " ");
    EXPECT_NE(continueFrom(derived).first, ref.traceHash());
}

/** One host-collective round on star(4): a broadcast from each of
 *  @p roots, a barrier, then a reduce at node 0.  @p got[n] collects
 *  what node n received: every broadcast payload, then the sum at the
 *  root. */
void
collRound(Cluster &c, Communicator &comm, Word base,
          std::vector<NodeId> roots, std::vector<std::vector<Word>> &got)
{
    for (NodeId n = 0; n < 4; ++n) {
        c.spawn(n, [&comm, &got, base, roots, n](Ctx &ctx) -> Task<void> {
            for (const NodeId root : roots) {
                std::vector<Word> io;
                if (n == root)
                    io = {base + 10 * root, base + 10 * root + 1};
                EXPECT_TRUE((co_await comm.broadcast(ctx, io, root)).ok());
                got[n].insert(got[n].end(), io.begin(), io.end());
            }
            EXPECT_TRUE((co_await comm.barrier(ctx)).ok());
            const Result<ReduceOut> red =
                co_await comm.reduceSum(ctx, base + n, 0);
            EXPECT_TRUE(red.ok());
            if (red.value().atRoot)
                got[n].push_back(red.value().value);
        });
    }
}

TEST(Checkpoint, HostCollectivesContinueAcrossRestore)
{
    // Round 1 maps root 0's broadcast page; round 2 broadcasts from it
    // again (its cursors must carry over) and from root 3, first mapped
    // after the restore.
    const ClusterSpec spec =
        specUnderTest().collectives(CollectiveBackend::Host);
    const std::vector<NodeId> members = {0, 1, 2, 3};
    const std::vector<NodeId> round1 = {0}, round2 = {0, 3};

    Cluster ref(spec);
    Communicator &ref_comm = ref.communicator("comm", members, 8);
    std::vector<std::vector<Word>> ref_got(4);
    collRound(ref, ref_comm, 100, round1, ref_got);
    ref.run();
    ASSERT_TRUE(ref.allDone());
    collRound(ref, ref_comm, 200, round2, ref_got);
    ref.run();
    ASSERT_TRUE(ref.allDone());

    std::vector<std::vector<Word>> got(4);
    std::string blob;
    {
        Cluster a(spec);
        Communicator &comm = a.communicator("comm", members, 8);
        collRound(a, comm, 100, round1, got);
        a.run();
        ASSERT_TRUE(a.allDone());
        blob = a.checkpoint();
    }

    Cluster b(spec);
    Communicator &b_comm = b.communicator("comm", members, 8);
    b.restore(blob);
    {
        // A cluster restored from the blob checkpoints it back verbatim.
        Cluster c(spec);
        c.communicator("comm", members, 8);
        c.restore(blob);
        EXPECT_EQ(c.checkpoint(), blob);
    }
    {
        // A replay that skipped communicator() cannot take the blob.
        Cluster c(spec);
        EXPECT_DEATH(c.restore(blob), "different communicator count");
    }
    collRound(b, b_comm, 200, round2, got);
    b.run();
    ASSERT_TRUE(b.allDone());
    ASSERT_TRUE(b.auditQuiescent());

    EXPECT_EQ(got[1], (std::vector<Word>{100, 101, 200, 201, 230, 231}));
    EXPECT_EQ(got[0], (std::vector<Word>{100, 101, 406, 200, 201, 230,
                                         231, 806}));
    EXPECT_EQ(got, ref_got);
    EXPECT_EQ(b.traceHash(), ref.traceHash());
    EXPECT_EQ(b.traceLength(), ref.traceLength());
    EXPECT_EQ(b.modelHash(), ref.modelHash());
    EXPECT_EQ(b.modelLength(), ref.modelLength());
    EXPECT_EQ(statsJson(b), statsJson(ref));
}

/** @p blob with the stats line of @p stat replaced by @p edit(line). */
template <class Edit>
std::string
editStatLine(std::string blob, const std::string &stat, Edit edit)
{
    const std::size_t at = blob.find("\n" + stat + " ");
    EXPECT_NE(at, std::string::npos) << stat;
    const std::size_t eol = blob.find('\n', at + 1);
    blob.replace(at + 1, eol - at - 1,
                 edit(blob.substr(at + 1, eol - at - 1)));
    return blob;
}

TEST(Checkpoint, RestoredClusterCheckpointsIdentically)
{
    std::string blob;
    {
        Cluster a(specUnderTest());
        Segment &seg = setUp(a);
        phase1(a, seg);
        a.run();
        ASSERT_TRUE(a.allDone());
        blob = a.checkpoint();
    }

    Cluster b(specUnderTest());
    setUp(b);
    b.restore(blob);
    EXPECT_EQ(b.checkpoint(), blob);
}

TEST(Checkpoint, RestoreKeepsOnlyPageTableOverrides)
{
    // Own entries: the replicated pages, the armed counters and every
    // spawned context's pages.  The untouched segment stays shared.
    const auto setUpMore = [](Cluster &c) -> Segment & {
        Segment &seg = setUp(c);
        c.allocShared("metered", 2 * c.config().pageBytes, 1)
            .armCounters(3, 8, 8);
        c.allocShared("idle", 3 * c.config().pageBytes, 2);
        return seg;
    };
    const auto ownEntries = [](Cluster &c) {
        std::vector<std::size_t> out;
        for (NodeId n = 0; n < NodeId(c.numNodes()); ++n)
            out.push_back(c.node(n).defaultAddressSpace().ownEntries());
        return out;
    };

    std::string blob;
    std::vector<std::size_t> own;
    {
        Cluster a(specUnderTest());
        Segment &seg = setUpMore(a);
        phase1(a, seg);
        a.run();
        ASSERT_TRUE(a.allDone());
        blob = a.checkpoint();
        own = ownEntries(a);
    }
    EXPECT_EQ(own[0], 0u); // node 0 ran no program and holds no copy

    Cluster b(specUnderTest());
    setUpMore(b);
    b.restore(blob);
    EXPECT_EQ(ownEntries(b), own);
    EXPECT_EQ(b.checkpoint(), blob);
}

TEST(Checkpoint, SharedPagesWriteNoPageTableLines)
{
    // 256 one-page segments on a 256-node fat-tree: every node sees
    // every page through the shared table and owns no entry, so the
    // spaces section lists none.
    constexpr NodeId kNodes = 256;
    Cluster c(ClusterSpec::fatTree(kNodes));
    for (NodeId n = 0; n < kNodes; ++n)
        c.allocShared("s" + std::to_string(n), 8, n);
    const std::string blob = c.checkpoint();
    std::istringstream in(blob);
    std::size_t spaces = 0;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("space ", 0) != 0)
            continue;
        ++spaces;
        EXPECT_EQ(line.substr(line.rfind(' ')), " 0") << line;
    }
    EXPECT_EQ(spaces, std::size_t(kNodes));
    // About 270 kB of other state; a line per node per shared page made
    // it 2.36 MB.
    EXPECT_LT(blob.size(), 400'000u);
}

TEST(Checkpoint, RestoresClockHashAndLedger)
{
    Cluster a(specUnderTest());
    Segment &seg = setUp(a);
    phase1(a, seg);
    a.run();
    ASSERT_TRUE(a.allDone());
    const std::string blob = a.checkpoint();

    Cluster b(specUnderTest());
    setUp(b);
    ASSERT_EQ(b.now(), 0u);
    b.restore(blob);
    EXPECT_EQ(b.now(), a.now());
    EXPECT_EQ(b.traceHash(), a.traceHash());
    EXPECT_EQ(b.traceLength(), a.traceLength());
    EXPECT_EQ(b.modelHash(), a.modelHash());
    EXPECT_EQ(b.modelLength(), a.modelLength());
    EXPECT_TRUE(b.auditQuiescent());
    // Memory contents carried over: a phase-1 value is readable.
    EXPECT_EQ(b.node(0).mem().read(
                  node::offsetOf(seg.homeFrame() + 9 * 8)),
              a.node(0).mem().read(node::offsetOf(seg.homeFrame() + 9 * 8)));
}

TEST(Checkpoint, RefusesMalformedBlobAndStartedCluster)
{
    Cluster a(specUnderTest());
    setUp(a);
    EXPECT_DEATH(a.restore("not-a-checkpoint"), "expected");

    Cluster b(specUnderTest());
    Segment &seg = setUp(b);
    phase1(b, seg);
    b.run();
    ASSERT_TRUE(b.allDone());
    const std::string blob = b.checkpoint();
    EXPECT_DEATH(b.restore(blob), "freshly built");

    // A v6 blob carries no model digest and derives the sequence
    // counter from the executed count, which elided wire-frees make
    // wrong; continuing it would match neither run.
    ASSERT_EQ(blob.rfind("tg-ckpt-v7\n", 0), 0u);
    EXPECT_DEATH(a.restore("tg-ckpt-v6\n" + blob.substr(11)),
                 "expected 'tg-ckpt-v7', got 'tg-ckpt-v6'");

    // The stats section names a stat the rebuilt cluster never registered.
    const std::string unknown = editStatLine(
        blob, "node0.tc.busy_ticks", [](const std::string &line) {
            return "node0.tc.idle_ticks" + line.substr(line.find(' '));
        });
    EXPECT_DEATH(a.restore(unknown),
                 "'node0.tc.idle_ticks' is not a registered field");

    // A histogram one bucket short of the registered one.
    const std::string short_hist = editStatLine(
        blob, "node0.tc.wait_hist", [](const std::string &line) {
            std::istringstream in(line);
            std::string name;
            std::uint64_t width = 0, buckets = 0, v = 0;
            in >> name >> width >> buckets;
            std::ostringstream out;
            out << name << " " << width << " " << buckets - 1;
            // The count, then all but the last bucket.
            for (std::uint64_t i = 0; i < buckets && in >> v; ++i)
                out << " " << v;
            return out.str();
        });
    EXPECT_DEATH(a.restore(short_hist),
                 "'node0.tc.wait_hist' has [0-9]+ buckets");
}

TEST(Checkpoint, RefusesFaultyConfiguration)
{
    FaultSpec f;
    f.dropRate = 0.01;
    Cluster c(specUnderTest().faults(f));
    setUp(c);
    c.run();
    EXPECT_DEATH((void)c.checkpoint(), "fault layer");
}

} // namespace
} // namespace tg
