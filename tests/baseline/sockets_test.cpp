/**
 * @file
 * Tests of the socket-style message-passing baseline.
 */

#include <gtest/gtest.h>

#include <string>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include "baseline/sockets.hpp"

namespace tg {
namespace {

TEST(Sockets, SendRecvRoundTrip)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    baseline::SocketLayer sockets(c);

    bool got = false;
    c.spawn(0, [&](Ctx &ctx) -> Task<void> {
        co_await sockets.send(ctx, 1, /*tag=*/7, /*bytes=*/64);
    });
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await sockets.recv(ctx, 7);
        got = true;
    });
    c.run(100'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_TRUE(got);
    EXPECT_EQ(sockets.delivered(), 1u);
}

TEST(Sockets, TagsAreIndependentChannels)
{
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    baseline::SocketLayer sockets(c);

    std::vector<int> order;
    c.spawn(0, [&](Ctx &ctx) -> Task<void> {
        co_await sockets.send(ctx, 1, 2, 32);
        co_await sockets.send(ctx, 1, 1, 32);
    });
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await sockets.recv(ctx, 1);
        order.push_back(1);
        co_await sockets.recv(ctx, 2);
        order.push_back(2);
    });
    c.run(100'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Sockets, MessagingCostsDwarfRemoteWrites)
{
    // The section 1 motivation: OS-mediated messaging vs a user-level
    // remote store for the same small payload.
    ClusterSpec spec = ClusterSpec::star(2);
    Cluster c(spec);
    baseline::SocketLayer sockets(c);
    Segment &seg = c.allocShared("s", 8192, 0);

    Tick socket_cost = 0, write_cost = 0;
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        Tick t0 = ctx.now();
        co_await sockets.send(ctx, 0, 1, 8);
        socket_cost = ctx.now() - t0;

        t0 = ctx.now();
        co_await ctx.write(seg.word(0), 1);
        co_await ctx.fence();
        write_cost = ctx.now() - t0;
    });
    c.run(100'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    EXPECT_GT(socket_cost, write_cost * 10);
}

TEST(Sockets, LostMessageFailsItsReceive)
{
    // A message the network drops after its retries completes the
    // matching receive with LinkFailure; it does not leave the receiver
    // polling forever.
    ClusterSpec spec = ClusterSpec::star(2).seed(3);
    spec.config.fault.dropRate = 0.2;
    spec.config.fault.maxRetries = 1;
    spec.config.fault.retryTimeout = 2000;
    Cluster c(spec);
    baseline::SocketLayer sockets(c);

    constexpr int kMessages = 40;
    int received = 0, failed = 0;
    c.spawn(0, [&](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < kMessages; ++i)
            co_await sockets.send(ctx, 1, /*tag=*/5, /*bytes=*/64);
    });
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        for (int i = 0; i < kMessages; ++i) {
            const Result<void> r = co_await sockets.recv(ctx, 5);
            if (r.ok())
                ++received;
            else if (r.error() == OpError::LinkFailure)
                ++failed;
        }
    });
    c.run(100'000'000'000ULL);
    ASSERT_TRUE(c.allDone());
    std::string why;
    EXPECT_TRUE(c.auditQuiescent(&why)) << why;
    // The sender's HIB records each message the network lost.
    EXPECT_GT(failed, 0);
    EXPECT_EQ(std::uint64_t(failed), c.hibOf(0).wireFailures());
    EXPECT_EQ(std::uint64_t(received), sockets.delivered());
    EXPECT_EQ(received + failed, kMessages);
}

} // namespace
} // namespace tg
