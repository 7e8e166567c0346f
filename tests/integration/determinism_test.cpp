/**
 * @file
 * Determinism tests: identical configuration + seed must produce
 * bit-identical simulations (same final clock, same event count, same
 * memory contents) — the property every debugging session and every
 * reported number in EXPERIMENTS.md depends on.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/measure.hpp"
#include "api/segment.hpp"
#include "workload/chaotic.hpp"
#include "workload/traffic.hpp"

namespace tg {
namespace {

struct Fingerprint
{
    Tick endTime;
    std::uint64_t events;
    std::uint64_t memHash;
    std::uint64_t packets;

    bool
    operator==(const Fingerprint &o) const
    {
        return endTime == o.endTime && events == o.events &&
               memHash == o.memHash && packets == o.packets;
    }
};

Fingerprint
runOnce(std::uint64_t seed, FaultSpec fault = {})
{
    ClusterSpec spec = ClusterSpec::chain(4, 2);
    spec.config.seed = seed;
    spec.config.fault = std::move(fault);
    Cluster c(spec);

    Segment &shared = c.allocShared("s", 8192, 0);
    shared.replicate(1, coherence::ProtocolKind::OwnerCounter);
    shared.replicate(2, coherence::ProtocolKind::OwnerCounter);
    std::vector<Segment *> segs;
    for (NodeId n = 0; n < 4; ++n)
        segs.push_back(&c.allocShared("t" + std::to_string(n), 8192, n));

    workload::ChaoticConfig ccfg;
    ccfg.writes = 30;
    ccfg.words = 12;
    c.spawn(1, workload::chaoticWriter(shared, ccfg));
    c.spawn(2, workload::chaoticWriter(shared, ccfg));

    workload::TrafficConfig tcfg;
    tcfg.ops = 60;
    c.spawn(0, workload::randomTraffic(segs, tcfg));
    c.spawn(3, workload::randomTraffic(segs, tcfg));

    const Tick end = c.run(4'000'000'000'000ULL);

    Fingerprint fp;
    fp.endTime = end;
    fp.events = c.system().events().executed();
    fp.packets = c.network().switchForwarded();
    fp.memHash = 0;
    for (std::size_t w = 0; w < 12; ++w) {
        fp.memHash = fp.memHash * 0x100000001b3ULL ^ shared.peek(w);
        fp.memHash = fp.memHash * 0x100000001b3ULL ^ shared.peekCopy(1, w);
        fp.memHash = fp.memHash * 0x100000001b3ULL ^ shared.peekCopy(2, w);
    }
    return fp;
}

TEST(Determinism, SameSeedSameUniverse)
{
    const Fingerprint a = runOnce(42);
    const Fingerprint b = runOnce(42);
    EXPECT_TRUE(a == b);
    EXPECT_GT(a.events, 0u);
    EXPECT_GT(a.packets, 0u);
}

TEST(Determinism, DifferentSeedDifferentSchedule)
{
    const Fingerprint a = runOnce(42);
    const Fingerprint b = runOnce(43);
    // Different seeds randomize the workloads: something must differ.
    EXPECT_FALSE(a == b);
}

TEST(Determinism, FaultedSameSeedSameUniverse)
{
    // The full reliability machinery — injected corruption, drops,
    // duplicates, retransmissions — must replay bit-identically too.
    FaultSpec f;
    f.bitErrorRate = 1e-3;
    f.dropRate = 1e-3;
    f.duplicateRate = 1e-3;
    const Fingerprint a = runOnce(7, f);
    const Fingerprint b = runOnce(7, f);
    EXPECT_TRUE(a == b);
    EXPECT_GT(a.events, 0u);
    EXPECT_GT(a.packets, 0u);
}

TEST(Determinism, FaultedDifferentSeedDiverges)
{
    FaultSpec f;
    f.dropRate = 5e-3;
    const Fingerprint a = runOnce(7, f);
    const Fingerprint b = runOnce(8, f);
    EXPECT_FALSE(a == b);
}

TEST(Determinism, StatsReportIsStable)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(seg.word(0), 1);
        co_await ctx.fence();
        (void)co_await ctx.read(seg.word(0));
    });
    c.run(10'000'000'000ULL);

    std::ostringstream a, b;
    c.statsReport(a);
    c.statsReport(b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("hib.packets_handled"), std::string::npos);
    EXPECT_NE(a.str().find("node1.mmu.hits"), std::string::npos);
}

} // namespace
} // namespace tg
