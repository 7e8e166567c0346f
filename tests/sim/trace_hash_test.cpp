/**
 * @file
 * Trace-hash tests: the executable form of the determinism contract
 * (DESIGN.md section 7).  The unit cases pin TraceHash itself: any
 * single-bit change to one word of a fixed stream changes the digest,
 * the digest of that stream is pinned, and a restored accumulator
 * continues the stream.  The seeded double-run cases build the same
 * cluster + workload twice with one seed, run both to completion and
 * require the full event/packet traces to be bit-identical; different
 * seeds must (for these workloads) diverge, proving the hash actually
 * observes the schedule.  Golden values pin both digests (schedule and
 * model), their lengths and the end tick of each run at its seed, so a
 * schedule change fails even when it is deterministic.  Packet conservation is checked at
 * quiescence on every run.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/cluster.hpp"
#include "api/collectives.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include "sim/invariant.hpp"
#include "workload/hotspot.hpp"
#include "workload/traffic.hpp"

namespace {

constexpr int kNodes = 4;
constexpr tg::Tick kLimit = 4'000'000'000'000ULL;

/** A fixed 64-word stream: distinct, dense words (splitmix64 of i). */
std::vector<std::uint64_t>
fixedStream()
{
    std::vector<std::uint64_t> words;
    std::uint64_t x = 0;
    for (int i = 0; i < 64; ++i) {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        words.push_back(z ^ (z >> 31));
    }
    return words;
}

tg::audit::TraceHash
hashOf(const std::vector<std::uint64_t> &words)
{
    tg::audit::TraceHash h;
    for (std::uint64_t w : words)
        h.mix(w);
    return h;
}

TEST(TraceHash, FixedStreamDigestIsPinned)
{
    const tg::audit::TraceHash h = hashOf(fixedStream());
    EXPECT_EQ(h.value(), 0x89f28aa38ae024bcULL)
        << std::hex << "got 0x" << h.value();
    EXPECT_EQ(h.mixed(), 64u);
    EXPECT_EQ(tg::audit::TraceHash().value(), tg::audit::TraceHash::kOffset);
    EXPECT_EQ(tg::audit::TraceHash().mixed(), 0u);
}

TEST(TraceHash, AnySingleBitFlipChangesTheDigest)
{
    // Each mix step is a bijection of the state for a fixed word, so a
    // stream that differs in exactly one word can never collide.
    const std::vector<std::uint64_t> words = fixedStream();
    const std::uint64_t base = hashOf(words).value();
    for (std::size_t i = 0; i < words.size(); ++i) {
        for (int bit = 0; bit < 64; ++bit) {
            std::vector<std::uint64_t> flipped = words;
            flipped[i] ^= std::uint64_t(1) << bit;
            EXPECT_NE(hashOf(flipped).value(), base)
                << "word " << i << " bit " << bit;
        }
    }
}

TEST(TraceHash, RestoreContinuesTheStream)
{
    const std::vector<std::uint64_t> words = fixedStream();
    const tg::audit::TraceHash whole = hashOf(words);
    for (std::size_t cut = 0; cut <= words.size(); ++cut) {
        tg::audit::TraceHash head;
        for (std::size_t i = 0; i < cut; ++i)
            head.mix(words[i]);
        tg::audit::TraceHash tail;
        tail.mix(0xdeadbeef); // state the restore must overwrite
        tail.restore(head.value(), head.mixed());
        for (std::size_t i = cut; i < words.size(); ++i)
            tail.mix(words[i]);
        EXPECT_EQ(tail.value(), whole.value()) << "cut at " << cut;
        EXPECT_EQ(tail.mixed(), whole.mixed()) << "cut at " << cut;
    }
}

/** Both digests of a run and its end tick. */
struct Trace
{
    std::uint64_t hash;       ///< schedule digest
    std::uint64_t words;      ///< words folded into it
    tg::Tick end;
    std::uint64_t model;      ///< model digest
    std::uint64_t modelWords; ///< words folded into it
};

/** Run @p c to quiescence and check it finished and conserved packets. */
Trace
finish(tg::Cluster &c)
{
    Trace t;
    t.end = c.run(kLimit);
    t.hash = c.traceHash();
    t.words = c.traceLength();
    t.model = c.modelHash();
    t.modelWords = c.modelLength();
    EXPECT_TRUE(c.allDone());
    std::string why;
    EXPECT_TRUE(c.auditQuiescent(&why)) << why;
    return t;
}

Trace
runHotspot(std::uint64_t seed)
{
    tg::ClusterSpec spec = tg::ClusterSpec::chain(kNodes, 2);
    spec.config.seed = seed;
    tg::Cluster c(spec);

    tg::Segment &ctr = c.allocShared("ctr", 8192, 0);
    tg::workload::HotspotConfig cfg;
    cfg.increments = 24;
    for (tg::NodeId n = 0; n < kNodes; ++n)
        c.spawn(n, tg::workload::hotspotWorker(ctr, cfg));
    return finish(c);
}

/** What a noisy fabric's go-back-N layer did in a run. */
struct LinkRecovery
{
    std::uint64_t corruptions;
    std::uint64_t duplicateDiscards;
    std::uint64_t retransmissions;
    std::uint64_t wireFailures;
};

Trace
runTraffic(std::uint64_t seed,
           tg::ClusterSpec spec = tg::ClusterSpec::chain(kNodes, 2),
           LinkRecovery *rec = nullptr)
{
    spec.config.seed = seed;
    tg::Cluster c(spec);
    const std::size_t nodes = spec.topology().nodes;

    std::vector<tg::Segment *> segs;
    for (tg::NodeId n = 0; n < nodes; ++n)
        segs.push_back(&c.allocShared("t" + std::to_string(n), 8192, n));
    tg::workload::TrafficConfig cfg;
    cfg.ops = 48;
    for (tg::NodeId n = 0; n < nodes; ++n)
        c.spawn(n, tg::workload::randomTraffic(segs, cfg));
    const Trace t = finish(c);
    // Every planned routing epoch (none on a fault-free fabric) flipped
    // inside the run.
    EXPECT_EQ(c.network().reroutesApplied(), c.network().routingEpochs());
    if (rec)
        *rec = {c.network().corruptions(), c.network().duplicateDiscards(),
                c.network().retransmissions(), c.network().wireFailures()};
    return t;
}

/** A chain whose every link corrupts, drops and duplicates
 *  transmissions, so the reliable links NACK corrupt arrivals, discard
 *  duplicates and retransmit; the default retry budget delivers every
 *  packet. */
tg::ClusterSpec
noisyChain()
{
    tg::ClusterSpec spec = tg::ClusterSpec::chain(kNodes, 2);
    spec.config.fault.bitErrorRate = 0.02;
    spec.config.fault.dropRate = 0.02;
    spec.config.fault.duplicateRate = 0.02;
    return spec;
}

/** @p spec with trunk @p a <-> @p b down for ticks [20'000, 90'000) of
 *  a traffic run: long enough past the link-down deadline that the
 *  fabric routes around it for a while, then back. */
tg::ClusterSpec
withDeadTrunk(tg::ClusterSpec spec, std::size_t a, std::size_t b)
{
    tg::FaultSpec f;
    f.retryTimeout = 1'000;
    f.linkDownDeadline = 2'000;
    f.downTrunk(a, b, 20'000, 90'000);
    return spec.faults(f);
}

/** Host-backend collectives: barrier, reduce at node 0 and a
 *  broadcast from a root that moves each round, so the run maps more
 *  than one root's broadcast page. */
Trace
runHostCollectives(std::uint64_t seed)
{
    tg::ClusterSpec spec = tg::ClusterSpec::star(kNodes).collectives(
        tg::CollectiveBackend::Host);
    spec.config.seed = seed;
    tg::Cluster c(spec);

    tg::Communicator &comm = c.communicator("comm", {0, 1, 2, 3}, 4);
    for (tg::NodeId n = 0; n < kNodes; ++n) {
        c.spawn(n, [&comm, n](tg::Ctx &ctx) -> tg::Task<void> {
            for (int r = 0; r < 3; ++r) {
                EXPECT_TRUE((co_await comm.barrier(ctx)).ok());
                EXPECT_TRUE(
                    (co_await comm.reduceSum(ctx, tg::Word(n + r), 0)).ok());
                const tg::NodeId root = tg::NodeId(r + 1);
                std::vector<tg::Word> io;
                if (n == root)
                    io = {tg::Word(100 * r + 1), tg::Word(100 * r + 2)};
                EXPECT_TRUE((co_await comm.broadcast(ctx, io, root)).ok());
                EXPECT_EQ(io, (std::vector<tg::Word>{tg::Word(100 * r + 1),
                                                     tg::Word(100 * r + 2)}));
            }
        });
    }
    return finish(c);
}

/** Telegraphos I: each node writes and reads a word of another node's
 *  page (buffered remote write, blocking remote read), writes and reads
 *  its own page (HIB SRAM across the TurboChannel), bumps a counter
 *  homed at node 0 with a PAL-launched fetchAdd, then fences. */
Trace
runTelegraphosI(std::uint64_t seed)
{
    tg::ClusterSpec spec = tg::ClusterSpec::star(kNodes).prototype(
        tg::Prototype::TelegraphosI);
    spec.config.seed = seed;
    tg::Cluster c(spec);

    std::vector<tg::Segment *> segs;
    for (tg::NodeId n = 0; n < kNodes; ++n)
        segs.push_back(&c.allocShared("s" + std::to_string(n), 8192, n));
    for (tg::NodeId n = 0; n < kNodes; ++n) {
        c.spawn(n, [&segs, n](tg::Ctx &ctx) -> tg::Task<void> {
            for (int r = 0; r < 3; ++r) {
                const tg::Segment &peer = *segs[(n + 1 + r) % kNodes];
                const tg::Segment &own = *segs[n];
                co_await ctx.write(peer.word(n), tg::Word(10 * n + r));
                co_await ctx.read(peer.word(kNodes + r));
                co_await ctx.write(own.word(kNodes + r), tg::Word(r + 1));
                EXPECT_EQ(co_await ctx.read(own.word(kNodes + r)),
                          tg::Word(r + 1));
                co_await ctx.fetchAdd(segs[0]->word(16));
            }
            EXPECT_TRUE((co_await ctx.fence()).ok());
        });
    }
    return finish(c);
}

/** Telegraphos II: a page homed at node 0 is replicated on every node
 *  under OwnerCounter; each node writes its own word through its local
 *  replica, reads it back, and bumps a counter homed at node 1 with a
 *  context-launched fetchAdd, then fences. */
Trace
runReplicated(std::uint64_t seed)
{
    tg::ClusterSpec spec = tg::ClusterSpec::star(kNodes);
    spec.config.seed = seed;
    tg::Cluster c(spec);

    tg::Segment &page = c.allocShared("rep", 8192, 0);
    for (tg::NodeId n = 1; n < kNodes; ++n)
        page.replicate(n, tg::coherence::ProtocolKind::OwnerCounter);
    tg::Segment &ctr = c.allocShared("ctr", 8192, 1);
    for (tg::NodeId n = 0; n < kNodes; ++n) {
        c.spawn(n, [&page, &ctr, n](tg::Ctx &ctx) -> tg::Task<void> {
            for (int r = 0; r < 3; ++r) {
                co_await ctx.write(page.word(n), tg::Word(10 * n + r));
                EXPECT_EQ(co_await ctx.read(page.word(n)),
                          tg::Word(10 * n + r));
                co_await ctx.fetchAdd(ctr.word(0));
            }
            EXPECT_TRUE((co_await ctx.fence()).ok());
        });
    }
    return finish(c);
}

/** Replicated pages on a lossy fabric: a one-retry budget loses
 *  coherence traffic in flight.  Node 0 homes one page replicated on
 *  every node under OwnerCounter and four pages under Invalidate; each
 *  round a node writes its own word of the first, its own word of one
 *  of the others (a fresh invalidation round per page) and bumps a
 *  counter homed at node 1, then fences.  Fences and writes may fail
 *  visibly; the run must still finish and conserve packets. */
Trace
runLossyReplicated(std::uint64_t seed)
{
    tg::ClusterSpec spec = tg::ClusterSpec::star(kNodes);
    spec.config.seed = seed;
    spec.config.fault.dropRate = 0.1;
    spec.config.fault.maxRetries = 1;
    spec.config.fault.retryTimeout = 2000;
    tg::Cluster c(spec);

    tg::Segment &upd = c.allocShared("upd", 8192, 0);
    tg::Segment &inv = c.allocShared("inv", 4 * 8192, 0);
    for (tg::NodeId n = 1; n < kNodes; ++n) {
        upd.replicate(n, tg::coherence::ProtocolKind::OwnerCounter);
        inv.replicate(n, tg::coherence::ProtocolKind::Invalidate);
    }
    tg::Segment &ctr = c.allocShared("ctr", 8192, 1);
    for (tg::NodeId n = 0; n < kNodes; ++n) {
        c.spawn(n, [&upd, &inv, &ctr, n](tg::Ctx &ctx) -> tg::Task<void> {
            for (int r = 0; r < 12; ++r) {
                co_await ctx.write(upd.word(n), tg::Word(10 * n + r));
                co_await ctx.write(inv.word(r % 4 * 1024 + n),
                                   tg::Word(10 * n + r));
                co_await ctx.fetchAdd(ctr.word(0));
            }
            co_await ctx.fence();
        });
    }
    const Trace t = finish(c);
    EXPECT_GT(c.network().wireFailures(), 0u) << "the run lost nothing";
    return t;
}

TEST(TraceHashTest, HotspotSameSeedSameTrace)
{
    for (std::uint64_t seed : {1ULL, 99ULL}) {
        const Trace a = runHotspot(seed);
        const Trace b = runHotspot(seed);
        EXPECT_EQ(a.hash, b.hash) << "seed " << seed;
        EXPECT_EQ(a.words, b.words) << "seed " << seed;
        EXPECT_EQ(a.end, b.end) << "seed " << seed;
        EXPECT_EQ(a.model, b.model) << "seed " << seed;
        EXPECT_EQ(a.modelWords, b.modelWords) << "seed " << seed;
        EXPECT_GT(a.words, 0u) << "empty trace audits nothing";
        EXPECT_GT(a.modelWords, 0u) << "empty model digest";
    }
}

TEST(TraceHashTest, TrafficSameSeedSameTrace)
{
    for (std::uint64_t seed : {7ULL, 4242ULL}) {
        const Trace a = runTraffic(seed);
        const Trace b = runTraffic(seed);
        EXPECT_EQ(a.hash, b.hash) << "seed " << seed;
        EXPECT_EQ(a.words, b.words) << "seed " << seed;
        EXPECT_EQ(a.end, b.end) << "seed " << seed;
        EXPECT_EQ(a.model, b.model) << "seed " << seed;
        EXPECT_EQ(a.modelWords, b.modelWords) << "seed " << seed;
        EXPECT_GT(a.words, 0u) << "empty trace audits nothing";
        EXPECT_GT(a.modelWords, 0u) << "empty model digest";
    }
}

TEST(TraceHashTest, TrafficDifferentSeedsDiverge)
{
    // randomTraffic draws targets from the seeded Rng, so distinct seeds
    // must produce distinct schedules — otherwise the hash is blind.
    const Trace a = runTraffic(7), b = runTraffic(4242);
    EXPECT_NE(a.hash, b.hash);
    EXPECT_NE(a.model, b.model);
}

void
expectGolden(const Trace &got, const Trace &want)
{
    EXPECT_EQ(got.hash, want.hash) << std::hex << "got 0x" << got.hash;
    EXPECT_EQ(got.words, want.words);
    EXPECT_EQ(got.end, want.end);
    EXPECT_EQ(got.model, want.model) << std::hex << "got 0x" << got.model;
    EXPECT_EQ(got.modelWords, want.modelWords);
}

TEST(TraceHashTest, RunsMatchGoldenTraces)
{
    // Pinned values, both digests of each run: the schedule digest and
    // its length, the end tick, then the model digest and its length.
    // An engine change may move the schedule digest and says so; any
    // other moved value is a model change, and the change that makes it
    // states so and re-pins them.  The ring run
    // (one node per switch, four switches) crosses the wrap link and
    // its dateline VC.  The hotspot workload draws nothing from the
    // seeded Rng, so its two seeds share one trace.  The host
    // collectives run pins the addresses of every broadcast page, home
    // and receive copy: moving any of them changes the packets.  The
    // two faulted runs pin both sources of a routing epoch's routes: the
    // 3x3 torus detours around its dead X trunk by per-epoch BFS
    // next hops, the fat-tree rehashes the flows of its dead leaf-spine
    // trunk onto the other spine.  The two star runs pin the CPU's
    // uncached accesses on both prototypes: Telegraphos I HIB SRAM and
    // PAL launches, Telegraphos II replica writes under OwnerCounter and
    // context launches.  The noisy chain run pins the go-back-N
    // layer's corrupt, drop and duplicate branches, with the count of
    // each recovery beside its trace.  The end tick is the last fired
    // event's, so an event that fires after the programs finish moves
    // it.
    {
        SCOPED_TRACE("chain hotspot seed 1");
        expectGolden(runHotspot(1),
                     {0xd2872376c56ffc08ULL, 5406, 301206, 0x290619a066c2567bULL, 2892});
    }
    {
        SCOPED_TRACE("chain hotspot seed 99");
        expectGolden(runHotspot(99),
                     {0xd2872376c56ffc08ULL, 5406, 301206, 0x290619a066c2567bULL, 2892});
    }
    {
        SCOPED_TRACE("chain traffic seed 7");
        expectGolden(runTraffic(7),
                     {0x22171e2819abc61dULL, 10112, 157507, 0x4b9a8dda9a3a5800ULL, 5004});
    }
    {
        SCOPED_TRACE("chain traffic seed 4242");
        expectGolden(runTraffic(4242),
                     {0xed87ae2ee5ecaa4eULL, 10010, 150870, 0x463aefc681cec44dULL, 5004});
    }
    {
        SCOPED_TRACE("ring traffic seed 7");
        expectGolden(runTraffic(7, tg::ClusterSpec::ring(kNodes, 1)),
                     {0x695ae11f79a652d3ULL, 11090, 169409, 0x998a633b7589f0f8ULL, 5004});
    }
    {
        SCOPED_TRACE("star host collectives seed 1");
        expectGolden(runHostCollectives(1),
                     {0x90a08bc67d8894a8ULL, 5402, 224291, 0x64ab0146701c5663ULL, 3510});
    }
    {
        SCOPED_TRACE("torus faulted traffic seed 7");
        const tg::ClusterSpec spec =
            withDeadTrunk(tg::ClusterSpec::torus(3, 3, 1), 0, 1);
        expectGolden(runTraffic(7, spec),
                     {0xc12c1232d95c6a2eULL, 37760, 218800, 0xfaef956a77df1334ULL, 11259});
    }
    {
        SCOPED_TRACE("fattree faulted traffic seed 7");
        const tg::ClusterSpec spec =
            withDeadTrunk(tg::ClusterSpec::fatTree(4, 2, 2), 0, 2);
        expectGolden(runTraffic(7, spec),
                     {0xcd5a2066f737e96dULL, 16232, 171512, 0x7cefce9580cbf668ULL, 5004});
    }
    {
        SCOPED_TRACE("star Telegraphos I seed 1");
        expectGolden(runTelegraphosI(1),
                     {0x235c62ca485d6bbbULL, 1928, 66580, 0x50b64f4c8b0ca97cULL, 1068});
    }
    {
        SCOPED_TRACE("star owner-counter replica seed 1");
        expectGolden(runReplicated(1),
                     {0x0d4f363a1c29ad34ULL, 1996, 35085, 0x995f2b0fbac54325ULL, 1128});
    }
    {
        SCOPED_TRACE("star lossy replicas seed 1");
        expectGolden(runLossyReplicated(1),
                     {0x6f53c510eec8f439ULL, 15336, 302345, 0x5d3541d8b10556fbULL, 5686});
    }
    {
        SCOPED_TRACE("chain noisy traffic seed 7");
        LinkRecovery rec{};
        expectGolden(runTraffic(7, noisyChain(), &rec),
                     {0xfed5e71aa320cfeeULL, 14794, 187808, 0x3b37024cb68b57faULL, 5004});
        EXPECT_EQ(rec.corruptions, 28u);
        EXPECT_EQ(rec.duplicateDiscards, 22u);
        EXPECT_EQ(rec.retransmissions, 81u);
        EXPECT_EQ(rec.wireFailures, 0u);
    }
}

} // namespace
