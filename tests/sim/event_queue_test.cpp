/**
 * @file
 * Unit tests of the deterministic event queue.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/event_queue.hpp"

namespace tg {
namespace {

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleAbs(30, [&] { order.push_back(3); });
    q.scheduleAbs(10, [&] { order.push_back(1); });
    q.scheduleAbs(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.scheduleAbs(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.schedule(1, [&] {
            ++fired;
            q.schedule(1, [&] { ++fired; });
        });
    });
    q.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.now(), 3u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.scheduleAbs(10, [&] { ++fired; });
    q.scheduleAbs(20, [&] { ++fired; });
    q.scheduleAbs(30, [&] { ++fired; });

    q.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 20u);
    EXPECT_EQ(q.pending(), 1u);

    q.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue q;
    q.runUntil(100);
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, MaxEventsBoundsExecution)
{
    EventQueue q;
    int fired = 0;
    for (int i = 0; i < 100; ++i)
        q.scheduleAbs(Tick(i), [&] { ++fired; });
    EXPECT_EQ(q.run(10), 10u);
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(q.pending(), 90u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    // The ladder queue and the reference heap reject a past tick alike.
    auto check = [](auto &q) {
        q.scheduleAbs(10, [] {});
        q.run();
        EXPECT_DEATH(q.scheduleAbs(5, [] {}), "past");
    };
    {
        SCOPED_TRACE("EventQueue");
        EventQueue q;
        check(q);
    }
    {
        SCOPED_TRACE("ReferenceEventQueue");
        ReferenceEventQueue q;
        check(q);
    }
}

TEST(EventQueue, ExecutedCountsAllEvents)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(Tick(i), [] {});
    q.run();
    EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueue, TrivialAndNonTrivialCapturesSurviveScheduleAndFire)
{
    struct Trivial
    {
        std::uint64_t a, b, c;
        std::uint64_t *out;
        void operator()() const { *out = a * 100 + b * 10 + c; }
    };
    static_assert(std::is_trivially_copyable_v<Trivial>);
    static_assert(sizeof(Trivial) <= Event::kInlineBytes);

    std::uint64_t trivialOut = 0;
    std::string nonTrivialOut;
    // A short string lives in its own SSO buffer and points into it, so
    // only a real move constructor relocates it; a long one owns heap
    // memory that only its destructor frees.
    const std::string shortText = "sso";
    const std::string longText(40, 'x');
    auto owned = std::make_unique<int>(7);

    EventQueue q;
    // Filler events grow the pool past one chunk, so the captures under
    // test land in recycled slots.
    for (std::size_t i = 0; i < EventQueue::kChunkSlots + 3; ++i)
        q.schedule(1 + i % 4, [] {});
    q.run();
    q.schedule(2, Trivial{1, 2, 3, &trivialOut});
    q.schedule(3, [s = shortText, p = std::move(owned), &nonTrivialOut] {
        nonTrivialOut = s + std::to_string(*p);
    });
    q.schedule(3 * EventQueue::kWheelTicks,
               [s = longText, &nonTrivialOut] { nonTrivialOut += s; });
    q.run();

    EXPECT_EQ(trivialOut, 123u);
    EXPECT_EQ(nonTrivialOut, shortText + "7" + longText);
}

} // namespace
} // namespace tg
