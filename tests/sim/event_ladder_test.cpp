/**
 * @file
 * Differential tests of the ladder/calendar EventQueue against the
 * reference binary heap (TG_REFERENCE_HEAP build of the original
 * engine).  Both must fire every workload in the identical (when, seq)
 * order and produce the identical trace hash — the queue edge cases
 * (same-tick reentrancy, runUntil limits, wheel rollover, ladder
 * spill, far-future timeouts, places reserved with takeSeq and armed
 * later with scheduleAbsSeq) are each exercised explicitly, then
 * randomized workloads sweep the mixed cases.
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

/** A self-expanding random workload that also reserves places and
 *  arms some of them later: each fired event logs its id, then
 *  schedules children, reserves places (takeSeq) or arms an earlier
 *  reservation (scheduleAbsSeq) unless the engine has passed it, and
 *  logs every passed() answer.  Returns the log and the trace hash. */
template <typename Q>
std::pair<std::vector<std::uint64_t>, std::uint64_t>
runReserveWorkload(std::uint64_t seed, std::uint64_t budget)
{
    constexpr std::uint64_t kPassed = std::uint64_t(1) << 63;
    constexpr std::uint64_t kArmed = std::uint64_t(1) << 62;

    struct Place
    {
        Tick when;
        std::uint64_t seq;
        bool armed;
    };

    struct Ctx
    {
        Q q;
        std::vector<std::uint64_t> log;
        std::vector<Place> places;
        std::uint64_t remaining;
        std::uint64_t nextId = 0;
        std::uint64_t seed;
    } ctx{{}, {}, {}, budget, 0, seed};

    struct Node
    {
        Ctx *c;
        std::uint64_t id;

        void
        operator()() const
        {
            c->log.push_back(id);
            Rand r{c->seed ^ (id * 0x2545f4914f6cdd1dull)};
            const int acts = static_cast<int>(r.next() % 6);
            for (int k = 0; k < acts && c->remaining > 0; ++k) {
                const std::uint64_t pick = r.next();
                switch (pick % 5) {
                  case 0:
                  case 1:
                    // A reserved place: same tick, hot, window edge or
                    // ladder, like any delay.
                    c->places.push_back(Place{
                        c->q.now() + delayFor(r.next()), c->q.takeSeq(),
                        false});
                    break;
                  case 2: {
                    if (c->places.empty())
                        break;
                    Place &p = c->places[(pick >> 3) % c->places.size()];
                    const bool passed = c->q.passed(p.when, p.seq);
                    c->log.push_back(passed ? kPassed | p.seq : p.seq);
                    if (passed || p.armed)
                        break;
                    p.armed = true;
                    --c->remaining;
                    const std::uint64_t child = c->nextId++;
                    c->log.push_back(kArmed | child);
                    c->q.scheduleAbsSeq(p.when, p.seq, Node{c, child});
                    break;
                  }
                  default:
                    --c->remaining;
                    c->q.schedule(delayFor(r.next()),
                                  Node{c, c->nextId++});
                }
            }
        }
    };

    Rand seeder{seed};
    for (int i = 0; i < 40; ++i) {
        --ctx.remaining;
        ctx.q.scheduleAbs(delayFor(seeder.next()), Node{&ctx, ctx.nextId++});
        ctx.places.push_back(
            Place{delayFor(seeder.next()), ctx.q.takeSeq(), false});
    }
    // Split the run the ways a cluster does (runUntil limits, bounded
    // run() chunks), arming between runs as well.
    Tick limit = 0;
    while (!ctx.q.empty()) {
        limit += 1 + seeder.next() % (3 * kWheel);
        ctx.q.runUntil(limit);
        ctx.q.run(seeder.next() % 64);
        Node{&ctx, ctx.nextId++}();
    }
    return {std::move(ctx.log), ctx.q.trace().value()};
}

TEST(EventLadderDifferential, ReservedPlacesArmLikeTheReferenceHeap)
{
    for (std::uint64_t seed : {3ull, 11ull, 2024ull}) {
        auto ladder = runReserveWorkload<EventQueue>(seed, 20'000);
        auto heap = runReserveWorkload<ReferenceEventQueue>(seed, 20'000);
        EXPECT_EQ(ladder.first, heap.first) << "seed " << seed;
        EXPECT_EQ(ladder.second, heap.second) << "seed " << seed;
        // Both kinds of answer occurred, and something was armed.
        std::size_t passed = 0, armed = 0;
        for (const std::uint64_t v : ladder.first) {
            passed += v >> 63;
            armed += (v >> 62) == 1;
        }
        EXPECT_GT(passed, 100u) << "seed " << seed;
        EXPECT_GT(armed, 100u) << "seed " << seed;
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

TEST(EventLadderDifferential, ArmIntoTheFiringBucket)
{
    expectIdentical([](auto &q) {
        std::vector<int> order;
        std::uint64_t seq = 0;
        // At tick 5: event 1 is queued, then a place is reserved, then
        // event 3.  Event 1 arms the place while the bucket fires: it
        // fires between them, where it was reserved.
        q.scheduleAbs(5, [&] {
            order.push_back(0);
            q.schedule(0, [&] {
                order.push_back(1);
                order.push_back(q.passed(5, seq));
                q.scheduleAbsSeq(5, seq, [&] { order.push_back(2); });
            });
            seq = q.takeSeq();
            q.schedule(0, [&] {
                order.push_back(3);
                // A place taken at the firing tick after the current
                // event is not passed; one taken before it is.
                const std::uint64_t later = q.takeSeq();
                order.push_back(q.passed(5, later));
                order.push_back(q.passed(5, seq));
                q.scheduleAbsSeq(5, later, [&] { order.push_back(4); });
            });
        });
        q.run();
        return order;
    });
}

TEST(EventLadderDifferential, ReservedPlacesAcrossTheWheelEdge)
{
    expectIdentical([](auto &q) {
        std::vector<int> order;
        std::vector<std::pair<Tick, std::uint64_t>> places;
        // Reserved from tick 100 on both sides of the window edge and
        // in the far ladder, interleaved with plain events at the same
        // ticks; armed out of order, some before their tick enters the
        // window and some after it spilled.
        q.scheduleAbs(100, [&] {
            for (Tick d : {Tick(0), Tick(7), kWheel - 1, kWheel, kWheel + 1,
                           3 * kWheel}) {
                places.emplace_back(q.now() + d, q.takeSeq());
                q.schedule(d, [&order, d] { order.push_back(int(d)); });
            }
            for (std::size_t i : {4u, 1u, 5u}) {
                q.scheduleAbsSeq(places[i].first, places[i].second,
                                 [&order, i] { order.push_back(-int(i)); });
            }
        });
        q.scheduleAbs(100 + 2 * kWheel, [&] {
            for (std::size_t i : {3u, 2u}) {
                order.push_back(q.passed(places[i].first, places[i].second));
            }
            // Tick 100 + 3W is now inside the window; arm one there.
            q.scheduleAbs(100 + 3 * kWheel, [&order] { order.push_back(99); });
        });
        q.run();
        return order;
    });
}

TEST(EventLadderDifferential, PassedBetweenRunsFollowsTheNextEvent)
{
    expectIdentical([](auto &q) {
        std::vector<int> order;
        q.scheduleAbs(10, [&order] { order.push_back(10); });
        const std::uint64_t early = q.takeSeq(); // place (10, early)
        q.scheduleAbs(10, [&order] { order.push_back(11); });
        const std::uint64_t late = q.takeSeq(); // place (10, late)
        q.scheduleAbs(20, [&order] { order.push_back(20); });
        // Stopped after the first event at 10: the next one is still
        // pending there, so only the place before it is passed.
        q.run(1);
        order.push_back(q.passed(10, early));
        order.push_back(q.passed(10, late));
        // Stopped after every event at 10: both places are passed,
        // and a place at 15 is not, though nothing is pending before 20.
        q.run(1);
        order.push_back(q.passed(10, late));
        const std::uint64_t mid = q.takeSeq();
        order.push_back(q.passed(15, mid));
        q.runUntil(15);
        order.push_back(q.passed(15, mid));
        q.run();
        return order;
    });
}

} // namespace
} // namespace tg
