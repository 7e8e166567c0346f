/**
 * @file
 * Tests of the Galactica-ring baseline (paper section 2.4): convergence
 * via back-off, and the invalid "1,2,1" value sequence a third processor
 * can observe — which the owner-counter protocol never produces.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include "coherence/galactica_ring.hpp"

namespace tg {
namespace {

using coherence::ProtocolKind;

TEST(Galactica, SingleWriterCirculatesToAllCopies)
{
    ClusterSpec spec = ClusterSpec::star(3);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);
    seg.replicate(1, ProtocolKind::GalacticaRing);
    seg.replicate(2, ProtocolKind::GalacticaRing);

    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(seg.word(0), 42);
        co_await ctx.fence();
    });
    c.run(10'000'000'000ULL);
    ASSERT_TRUE(c.allDone());

    EXPECT_EQ(seg.peek(0), 42u);
    EXPECT_EQ(seg.peekCopy(1, 0), 42u);
    EXPECT_EQ(seg.peekCopy(2, 0), 42u);
}

TEST(Galactica, ConflictBacksOffAndConverges)
{
    ClusterSpec spec = ClusterSpec::star(3);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);
    // Ring order: 0 (owner), then 2, then 1.
    seg.replicate(2, ProtocolKind::GalacticaRing);
    seg.replicate(1, ProtocolKind::GalacticaRing);

    c.spawn(0, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(seg.word(0), 1);
        co_await ctx.fence();
    });
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.compute(1000); // overlap, but B starts slightly later
        co_await ctx.write(seg.word(0), 2);
        co_await ctx.fence();
    });
    c.run(60'000'000'000ULL);
    ASSERT_TRUE(c.allDone());

    auto &proto = static_cast<coherence::GalacticaRingProtocol &>(
        c.protocol(ProtocolKind::GalacticaRing));
    EXPECT_GE(proto.backoffs(), 1u);
    // The counter reaches every report through the stat registry.
    const std::optional<double> reg =
        c.system().stats().find("proto.galactica.backoffs");
    ASSERT_TRUE(reg.has_value());
    EXPECT_EQ(*reg, double(proto.backoffs()));

    // Node 0 has priority: every copy converges to 1.
    EXPECT_EQ(seg.peekCopy(0, 0), 1u);
    EXPECT_EQ(seg.peekCopy(1, 0), 1u);
    EXPECT_EQ(seg.peekCopy(2, 0), 1u);
}

TEST(Galactica, ThreeConcurrentWritersStillConverge)
{
    ClusterSpec spec = ClusterSpec::star(4);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);
    for (NodeId n = 1; n < 4; ++n)
        seg.replicate(n, ProtocolKind::GalacticaRing);

    for (NodeId n = 0; n < 4; ++n) {
        c.spawn(n, [&, n](Ctx &ctx) -> Task<void> {
            co_await ctx.compute(Tick(n) * 400);
            co_await ctx.write(seg.word(0), Word(n) + 10);
            co_await ctx.fence();
        });
    }
    c.run(200'000'000'000ULL);
    ASSERT_TRUE(c.allDone());

    const Word home = seg.peekCopy(0, 0);
    for (NodeId n = 1; n < 4; ++n)
        EXPECT_EQ(seg.peekCopy(n, 0), home) << "node " << unsigned(n);
}

TEST(Galactica, ThirdNodeObservesInvalid121Sequence)
{
    // The paper: "it is possible that a third processor sees the
    // sequence 1,2,1 which is a sequence that is not a valid program
    // sequence under any memory consistency model."
    ClusterSpec spec = ClusterSpec::star(3);
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);
    seg.replicate(2, ProtocolKind::GalacticaRing); // ring: 0, 2, 1
    seg.replicate(1, ProtocolKind::GalacticaRing);

    std::vector<Word> seen_at_2;
    c.observeWrites([&](const coherence::ApplyEvent &ev) {
        if (ev.node == 2 && ev.homeAddr == seg.homeWord(0))
            seen_at_2.push_back(ev.value);
    });

    c.spawn(0, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(seg.word(0), 1);
        co_await ctx.fence();
    });
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.compute(1000);
        co_await ctx.write(seg.word(0), 2);
        co_await ctx.fence();
    });
    c.run(60'000'000'000ULL);
    ASSERT_TRUE(c.allDone());

    EXPECT_EQ(seen_at_2, (std::vector<Word>{1, 2, 1}));
}

} // namespace
} // namespace tg
