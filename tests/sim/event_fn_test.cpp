/**
 * @file
 * Unit tests for tg::Fn / tg::Event — the move-only small-buffer
 * closures the event engine fires instead of std::function.  Covers
 * both storage paths (inline and pooled), move/steal semantics,
 * emptiness (including wrapped null std::functions and function
 * pointers), mutable state, and the closure-pool recycling counters.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "sim/event.hpp"

namespace tg {
namespace {

TEST(FnTest, CallsTargetWithArgumentsAndReturn)
{
    Fn<int(int, int)> add = [](int a, int b) { return a + b; };
    ASSERT_TRUE(add);
    EXPECT_EQ(add(2, 40), 42);
}

TEST(FnTest, DefaultAndNullptrConstructedAreEmpty)
{
    Event a;
    Event b = nullptr;
    EXPECT_FALSE(a);
    EXPECT_FALSE(b);
}

TEST(FnTest, NullStdFunctionAndFunctionPointerStayEmpty)
{
    // The std::function adapter is the behaviour under test.
    // tglint: allow(hot-path-std-function)
    std::function<void()> nullFn;
    Event a = std::move(nullFn);
    EXPECT_FALSE(a);

    void (*nullPtr)() = nullptr;
    Event b = nullPtr;
    EXPECT_FALSE(b);

    // tglint: allow(hot-path-std-function)  adapter under test
    std::function<void()> realFn = [] {};
    Event c = std::move(realFn);
    EXPECT_TRUE(c);
}

TEST(FnTest, MoveTransfersTargetAndEmptiesSource)
{
    int hits = 0;
    Event a = [&hits] { ++hits; };
    Event b = std::move(a);
    EXPECT_FALSE(a); // NOLINT(bugprone-use-after-move): emptiness is spec
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(hits, 1);

    Event c;
    c = std::move(b);
    c();
    EXPECT_EQ(hits, 2);

    c = nullptr;
    EXPECT_FALSE(c);
}

TEST(FnTest, MutableLambdaStatePersistsAcrossMovesAndCalls)
{
    Fn<int()> counter = [n = 0]() mutable { return ++n; };
    EXPECT_EQ(counter(), 1);
    Fn<int()> moved = std::move(counter);
    EXPECT_EQ(moved(), 2);
    EXPECT_EQ(moved(), 3);
}

TEST(FnTest, MoveOnlyCapturesWork)
{
    auto p = std::make_unique<int>(7);
    Fn<int()> f = [p = std::move(p)] { return *p; };
    Fn<int()> g = std::move(f);
    EXPECT_EQ(g(), 7);
}

TEST(FnTest, LargeCaptureUsesPoolAndRecyclesBlocks)
{
    struct Big
    {
        std::byte pad[Event::kInlineBytes + 16];
        int tag;
    };
    static_assert(sizeof(Big) > Event::kInlineBytes);
    static_assert(sizeof(Big) <= detail::ClosurePool::kBlockBytes);

    const std::uint64_t fresh0 = detail::ClosurePool::freshBlocks();

    int got = 0;
    {
        Big big{};
        big.tag = 9;
        Fn<void()> f = [big, &got] { got = big.tag; };
        Fn<void()> g = std::move(f); // pooled move steals the block
        g();
    }
    EXPECT_EQ(got, 9);
    const std::uint64_t freshAfterFirst = detail::ClosurePool::freshBlocks();
    EXPECT_GE(freshAfterFirst, fresh0 + 1);

    // The freed block must be recycled: another big capture takes the
    // reuse path, not a fresh allocation.
    const std::uint64_t reused0 = detail::ClosurePool::reusedBlocks();
    {
        Big big{};
        big.tag = 5;
        Fn<void()> f = [big, &got] { got = big.tag; };
        f();
    }
    EXPECT_EQ(got, 5);
    EXPECT_EQ(detail::ClosurePool::freshBlocks(), freshAfterFirst);
    EXPECT_GE(detail::ClosurePool::reusedBlocks(), reused0 + 1);
}

TEST(FnTest, ConstFnIsInvocable)
{
    // Queue callbacks are captured by value into other lambdas and fired
    // through const access paths; Fn mirrors std::function here.
    const Fn<int()> f = [] { return 11; };
    EXPECT_EQ(f(), 11);
}

TEST(FnDeathTest, InvokingEmptyFnPanics)
{
    Event e;
    EXPECT_DEATH(e(), "empty");
}

} // namespace
} // namespace tg
