/**
 * @file
 * Steady-state allocation audit for the event engine.  A counting
 * global operator new/delete proves the zero-allocation claim from
 * DESIGN.md: once the event slot pool and the closure pool are warm, the
 * schedule -> fire cycle performs no heap allocation per event, for
 * both inline closures and pooled (oversized-capture) closures, and
 * the queue's destructor releases every capture still pending.
 *
 * The counting allocator is linked into the whole sim_tests binary;
 * it only counts, so the other suites are unaffected.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "sim/event_queue.hpp"

namespace {
// The replaced global operator new has no object to live in, so its
// counter is process-wide; it only counts and never feeds the model.
// tglint: allow(global-mutable-state)
std::atomic<std::uint64_t> g_newCalls{0};

std::uint64_t
allocCount()
{
    return g_newCalls.load(std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t n)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace tg {
namespace {

/** Self-rescheduling inline closure: 16 bytes, well under the SBO. */
struct Pump
{
    EventQueue *q;
    std::uint64_t *fired;

    void
    operator()() const
    {
        ++*fired;
        q->schedule(7, Pump{q, fired});
    }
};

TEST(EventAllocTest, SteadyStateInlineEventsDoNotAllocate)
{
    EventQueue q;
    std::uint64_t fired = 0;
    q.schedule(1, Pump{&q, &fired});

    // Warm-up: one full wheel lap (gcd(7, 4096) == 1 visits every
    // bucket) after the slot pool has its first chunk.
    q.run(6'000);

    const std::uint64_t before = allocCount();
    const std::uint64_t executed = q.run(20'000);
    const std::uint64_t after = allocCount();

    EXPECT_EQ(executed, 20'000u);
    EXPECT_EQ(after, before) << "inline event cycle hit the heap";
    EXPECT_EQ(fired, 26'000u);
}

/** Oversized capture: forced onto the pooled closure path. */
struct BigPump
{
    EventQueue *q;
    std::uint64_t *fired;
    std::byte payload[Event::kInlineBytes + 64];

    void
    operator()() const
    {
        ++*fired;
        q->schedule(13, BigPump{q, fired, {}});
    }
};

static_assert(sizeof(BigPump) > Event::kInlineBytes);
static_assert(sizeof(BigPump) <= detail::ClosurePool::kBlockBytes);

TEST(EventAllocTest, SteadyStatePooledEventsDoNotAllocate)
{
    EventQueue q;
    std::uint64_t fired = 0;
    q.schedule(1, BigPump{&q, &fired, {}});

    // Warm-up visits every bucket once and primes the two-block pool
    // rotation (one closure live while its successor is allocated).
    q.run(6'000);

    const std::uint64_t fresh0 = detail::ClosurePool::freshBlocks();
    const std::uint64_t oversize0 = detail::ClosurePool::oversizeBlocks();
    const std::uint64_t before = allocCount();
    const std::uint64_t executed = q.run(20'000);
    const std::uint64_t after = allocCount();

    EXPECT_EQ(executed, 20'000u);
    EXPECT_EQ(after, before) << "pooled event cycle hit the heap";
    EXPECT_EQ(detail::ClosurePool::freshBlocks(), fresh0);
    EXPECT_EQ(detail::ClosurePool::oversizeBlocks(), oversize0);
    EXPECT_EQ(fired, 26'000u);
}

TEST(EventAllocTest, QueueDestructorEndsEachPendingCaptureOnce)
{
    // One inline and one pooled capture in the wheel, the same pair in
    // the ladder; each holds a shared_ptr, so use_count tracks exactly
    // how many captures are alive.
    struct Big
    {
        std::shared_ptr<int> p;
        std::byte pad[Event::kInlineBytes];
        void operator()() const {}
    };
    static_assert(sizeof(Big) > Event::kInlineBytes);

    auto token = std::make_shared<int>(0);
    {
        EventQueue q;
        const Tick ladder = 10 * EventQueue::kWheelTicks;
        q.scheduleAbs(5, [p = token] {});
        q.scheduleAbs(5, Big{token, {}});
        q.scheduleAbs(ladder, [p = token] {});
        q.scheduleAbs(ladder, Big{token, {}});
        q.scheduleAbs(6, [p = token] {});
        EXPECT_EQ(token.use_count(), 6);

        // Fired closures die right after firing...
        q.runUntil(5);
        EXPECT_EQ(token.use_count(), 4);
        EXPECT_EQ(q.pending(), 3u);
    }
    // ...and the destructor ends every pending one exactly once.
    EXPECT_EQ(token.use_count(), 1);
}

} // namespace
} // namespace tg
