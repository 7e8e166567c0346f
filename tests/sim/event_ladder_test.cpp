/**
 * @file
 * Differential tests of the ladder/calendar EventQueue against the
 * reference binary heap (TG_REFERENCE_HEAP build of the original
 * engine).  Both must fire every workload in the identical (when, seq)
 * order and produce the identical trace hash — the queue edge cases
 * (same-tick reentrancy, runUntil limits, wheel rollover, ladder
 * spill, far-future timeouts) are each exercised explicitly, then a
 * randomized workload sweeps the mixed cases.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace tg {
namespace {

constexpr Tick kWheel = EventQueue::kWheelTicks; // 4096

/** Deterministic split-mix generator (both queue runs must see the
 *  identical workload, so no std randomness). */
struct Rand
{
    std::uint64_t s;

    std::uint64_t
    next()
    {
        s += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = s;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
};

/** Mixed delay profile: same-tick, hot-window, wheel-boundary and
 *  far-future (ladder) delays. */
Tick
delayFor(std::uint64_t r)
{
    switch (r % 8) {
      case 0:
        return 0; // same tick (reentrant bucket append)
      case 1:
      case 2:
        return 1 + (r >> 3) % 100; // hot link/TC/HIB range
      case 3:
      case 4:
        return 1 + (r >> 3) % (kWheel - 1); // anywhere in the window
      case 5:
        return kWheel - 2 + (r >> 3) % 5; // straddle the wheel boundary
      case 6:
        return 20'000; // retry-timeout territory (ladder)
      default:
        return 200'000 + (r >> 3) % 50'000; // page-copy territory
    }
}

/** Drive @p q with a self-expanding random workload; returns the firing
 *  order (by event id) and the final trace hash. */
template <typename Q>
std::pair<std::vector<std::uint64_t>, std::uint64_t>
runWorkload(std::uint64_t seed, std::uint64_t budget)
{
    Q q;
    std::vector<std::uint64_t> order;
    std::uint64_t remaining = budget;
    std::uint64_t nextId = 0;

    struct Ctx
    {
        Q *q;
        std::vector<std::uint64_t> *order;
        std::uint64_t *remaining;
        std::uint64_t *nextId;
        std::uint64_t seed;
    } ctx{&q, &order, &remaining, &nextId, seed};

    struct Node
    {
        Ctx *c;
        std::uint64_t id;

        void
        operator()() const
        {
            c->order->push_back(id);
            // Children derive from the event id alone, so both engines
            // replay the identical tree.
            Rand r{c->seed ^ (id * 0x2545f4914f6cdd1dull)};
            const int kids = static_cast<int>(r.next() % 3);
            for (int k = 0; k < kids; ++k) {
                if (*c->remaining == 0)
                    return;
                --*c->remaining;
                c->q->schedule(delayFor(r.next()), Node{c, (*c->nextId)++});
            }
        }
    };

    Rand seeder{seed};
    for (int i = 0; i < 40; ++i) {
        if (remaining == 0)
            break;
        --remaining;
        q.scheduleAbs(delayFor(seeder.next()), Node{&ctx, nextId++});
    }
    q.run();
    EXPECT_TRUE(q.empty());
    return {std::move(order), q.trace().value()};
}

TEST(EventLadderDifferential, RandomizedWorkloadsMatchReferenceHeap)
{
    for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
        auto ladder = runWorkload<EventQueue>(seed, 20'000);
        auto heap = runWorkload<ReferenceEventQueue>(seed, 20'000);
        EXPECT_EQ(ladder.first, heap.first) << "seed " << seed;
        EXPECT_EQ(ladder.second, heap.second) << "seed " << seed;
    }
}

/** Run one scripted scenario against both engines and demand identical
 *  firing order and trace hash. */
template <typename Script>
void
expectIdentical(Script &&script)
{
    EventQueue ladder;
    ReferenceEventQueue heap;
    std::vector<int> a = script(ladder);
    std::vector<int> b = script(heap);
    EXPECT_EQ(a, b);
    EXPECT_EQ(ladder.trace().value(), heap.trace().value());
}

TEST(EventLadderDifferential, SameTickReentrantScheduling)
{
    expectIdentical([](auto &q) {
        std::vector<int> order;
        q.scheduleAbs(5, [&q, &order] {
            order.push_back(0);
            // Appends to the bucket being drained; must fire after the
            // already-queued id=1 (smaller seq) at the same tick.
            q.schedule(0, [&q, &order] {
                order.push_back(2);
                q.schedule(0, [&order] { order.push_back(3); });
            });
        });
        q.scheduleAbs(5, [&order] { order.push_back(1); });
        q.run();
        return order;
    });
}

TEST(EventLadderDifferential, RunUntilFiresEventsExactlyAtLimit)
{
    expectIdentical([](auto &q) {
        std::vector<int> order;
        q.scheduleAbs(10, [&order] { order.push_back(10); });
        q.scheduleAbs(20, [&order] { order.push_back(20); });
        q.scheduleAbs(20, [&order] { order.push_back(21); });
        q.scheduleAbs(21, [&order] { order.push_back(22); });
        const auto fired = q.runUntil(20);
        order.push_back(static_cast<int>(fired));
        order.push_back(static_cast<int>(q.now()));
        order.push_back(static_cast<int>(q.pending()));
        q.run();
        return order;
    });
}

TEST(EventLadderDifferential, WheelRolloverAndSpillBoundaries)
{
    expectIdentical([](auto &q) {
        std::vector<int> order;
        int id = 0;
        // From a non-zero base, delays around the wheel width land on
        // both sides of the window edge (in-wheel vs ladder) and on the
        // index-wrap boundary.
        q.scheduleAbs(4000, [&q, &order, &id] {
            order.push_back(id++);
            for (Tick d : {kWheel - 2, kWheel - 1, kWheel, kWheel + 1,
                           2 * kWheel, 2 * kWheel + 1}) {
                q.schedule(d, [&order, &id] { order.push_back(id++); });
            }
        });
        q.run();
        return order;
    });
}

TEST(EventLadderDifferential, FarFutureTimeoutTicks)
{
    expectIdentical([](auto &q) {
        std::vector<int> order;
        // Only far-future events: the wheel starts empty and the window
        // must jump across multi-million-tick gaps (cpuQuantum scale).
        q.scheduleAbs(20'000, [&order] { order.push_back(1); });
        q.scheduleAbs(10'000'000, [&order] { order.push_back(3); });
        q.scheduleAbs(234'000, [&q, &order] {
            order.push_back(2);
            q.schedule(20'000, [&order] { order.push_back(20); });
        });
        q.run();
        return order;
    });
}

TEST(EventLadderDifferential, IdleRunUntilSpillsThePendingLadder)
{
    expectIdentical([](auto &q) {
        std::vector<int> order;
        q.scheduleAbs(5'000, [&order] { order.push_back(1); });
        // No event fires, but the window must advance over 4'500 and
        // admit the 5'000 event without disturbing its eventual order.
        order.push_back(static_cast<int>(q.runUntil(4'500)));
        order.push_back(static_cast<int>(q.now()));
        q.scheduleAbs(4'600, [&order] { order.push_back(0); });
        q.run();
        return order;
    });
}

TEST(EventLadderDifferential, InPlaceFiringSchedulesPastOneSlotChunk)
{
    // The firing closure stays in its pool slot while it schedules more
    // events than one chunk holds, so the pool grows under it.  Its
    // capture must survive that, and the new events must keep the
    // reference order: same-tick appends, hot delays and ladder delays.
    constexpr int kBurst = 3 * static_cast<int>(EventQueue::kChunkSlots) + 7;
    expectIdentical([](auto &q) {
        std::vector<int> order;
        q.scheduleAbs(5, [&q, &order, tag = 1000] {
            for (int i = 0; i < kBurst; ++i) {
                const Tick d = i % 3 == 0   ? 0
                               : i % 3 == 1 ? Tick(1 + i % 50)
                                            : kWheel + Tick(i);
                q.schedule(d, [&order, i] { order.push_back(i); });
            }
            order.push_back(tag); // read after the pool grew
        });
        q.scheduleAbs(5, [&order] { order.push_back(-1); });
        q.run();
        return order;
    });
}

} // namespace
} // namespace tg
