/**
 * @file
 * Unit tests of the individual HIB building blocks (Table 1):
 * outstanding-op counter, counter cache, page counters, multicast list,
 * atomic unit, special-ops register file.
 */

#include <gtest/gtest.h>

#include "hib/atomic_unit.hpp"
#include "hib/counter_cache.hpp"
#include "hib/multicast_unit.hpp"
#include "hib/outstanding.hpp"
#include "hib/page_counters.hpp"
#include "hib/special_ops.hpp"
#include "node/main_memory.hpp"
#include "sim/system.hpp"

namespace tg::hib {
namespace {

// ---------------------------------------------------------------------
// Outstanding
// ---------------------------------------------------------------------

TEST(Outstanding, WaitersFireAtZero)
{
    System sys{Config{}};
    Outstanding o(sys, "o");
    int fired = 0;

    o.waitDrain([&] { ++fired; }); // already zero: immediate
    EXPECT_EQ(fired, 1);

    o.add(2);
    o.waitDrain([&] { ++fired; });
    EXPECT_EQ(fired, 1);
    o.complete();
    EXPECT_EQ(fired, 1);
    o.complete();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(o.peak(), 2u);
    EXPECT_EQ(o.total(), 2u);
}

TEST(OutstandingDeathTest, UnderflowPanics)
{
    System sys{Config{}};
    Outstanding o(sys, "o");
    EXPECT_DEATH(o.complete(), "outstanding");
}

// ---------------------------------------------------------------------
// CounterCache
// ---------------------------------------------------------------------

TEST(CounterCache, IncrementDecrementLifecycle)
{
    System sys{Config{}};
    CounterCache cc(sys, "cc", 4);
    int granted = 0;
    cc.increment(0x100, [&] { ++granted; });
    cc.increment(0x100, [&] { ++granted; });
    sys.events().run();
    EXPECT_EQ(granted, 2);
    EXPECT_EQ(cc.count(0x100), 2u);
    EXPECT_EQ(cc.used(), 1u);

    cc.decrement(0x100);
    EXPECT_EQ(cc.count(0x100), 1u);
    cc.decrement(0x100);
    EXPECT_EQ(cc.count(0x100), 0u);
    EXPECT_EQ(cc.used(), 0u); // slot freed at zero
}

TEST(CounterCache, FullCamStallsUntilDecrement)
{
    System sys{Config{}};
    CounterCache cc(sys, "cc", 2);
    int granted = 0;
    cc.increment(0x100, [&] { ++granted; });
    cc.increment(0x200, [&] { ++granted; });
    cc.increment(0x300, [&] { ++granted; }); // stalls
    sys.events().run();
    EXPECT_EQ(granted, 2);
    EXPECT_EQ(cc.stallEvents(), 1u);

    cc.decrement(0x100); // frees a slot -> waiter granted
    sys.events().run();
    EXPECT_EQ(granted, 3);
    EXPECT_EQ(cc.count(0x300), 1u);
}

TEST(CounterCache, ExistingEntryNeverStalls)
{
    System sys{Config{}};
    CounterCache cc(sys, "cc", 1);
    int granted = 0;
    cc.increment(0x100, [&] { ++granted; });
    cc.increment(0x100, [&] { ++granted; }); // same word: no new slot
    sys.events().run();
    EXPECT_EQ(granted, 2);
    EXPECT_EQ(cc.stallEvents(), 0u);
}

TEST(CounterCacheDeathTest, DecrementAbsentPanics)
{
    System sys{Config{}};
    CounterCache cc(sys, "cc", 2);
    EXPECT_DEATH(cc.decrement(0x999), "absent");
}

// ---------------------------------------------------------------------
// PageCounters
// ---------------------------------------------------------------------

TEST(PageCounters, AlarmOnTransitionToZero)
{
    System sys{Config{}};
    PageCounters pc(sys, "pc");
    pc.set(0x4000, /*reads=*/2, /*writes=*/1);

    EXPECT_FALSE(pc.onAccess(0x4000, false)); // reads: 2 -> 1
    EXPECT_TRUE(pc.onAccess(0x4000, false));  // reads: 1 -> 0: alarm
    EXPECT_FALSE(pc.onAccess(0x4000, false)); // saturated
    EXPECT_TRUE(pc.onAccess(0x4000, true));   // writes: 1 -> 0: alarm
    EXPECT_EQ(sys.stats().find("pc.alarms"), 2.0);
    EXPECT_EQ(sys.stats().find("pc.accesses"), 4.0);
}

TEST(PageCounters, UntrackedPagesNeverAlarm)
{
    System sys{Config{}};
    PageCounters pc(sys, "pc");
    EXPECT_FALSE(pc.onAccess(0x8000, true));
}

TEST(PageCounters, LargeValuesActAsProfilingCounters)
{
    System sys{Config{}};
    PageCounters pc(sys, "pc");
    pc.set(0x4000, 60000, 60000);
    for (int i = 0; i < 100; ++i)
        pc.onAccess(0x4000, i % 2 == 0);
    EXPECT_EQ(pc.get(0x4000).reads, 60000 - 50);
    EXPECT_EQ(pc.get(0x4000).writes, 60000 - 50);
}

// ---------------------------------------------------------------------
// MulticastUnit
// ---------------------------------------------------------------------

TEST(MulticastUnit, AddLookupRemove)
{
    System sys{Config{}};
    MulticastUnit mc(sys, "mc");
    mc.addEntry(0x2000, 1, 0x9000);
    mc.addEntry(0x2000, 2, 0xa000);
    ASSERT_NE(mc.lookup(0x2000), nullptr);
    EXPECT_EQ(mc.lookup(0x2000)->size(), 2u);
    EXPECT_EQ(mc.used(), 2u);

    mc.removeEntry(0x2000, 1);
    EXPECT_EQ(mc.lookup(0x2000)->size(), 1u);
    mc.removePage(0x2000);
    EXPECT_EQ(mc.lookup(0x2000), nullptr);
    EXPECT_EQ(mc.used(), 0u);
}

TEST(MulticastUnitDeathTest, CapacityIsFatal)
{
    Config cfg;
    cfg.multicastEntries = 2;
    System sys{cfg};
    MulticastUnit mc(sys, "mc");
    mc.addEntry(0x2000, 1, 0x9000);
    mc.addEntry(0x2000, 2, 0xa000);
    EXPECT_DEATH(mc.addEntry(0x3000, 1, 0xb000), "exhausted");
}

// ---------------------------------------------------------------------
// AtomicUnit
// ---------------------------------------------------------------------

class AtomicUnitTest : public ::testing::Test
{
  protected:
    AtomicUnitTest()
        : sys(Config{}), mem(sys, "mem"), au(sys, "au", mem)
    {
    }
    System sys;
    node::MainMemory mem;
    AtomicUnit au;
};

TEST_F(AtomicUnitTest, FetchAndStore)
{
    mem.write(0x100, 7);
    Word old = 99;
    au.request(net::AtomicOp::FetchAndStore, 0x100, 42, 0,
               [&](Word v) { old = v; });
    sys.events().run();
    EXPECT_EQ(old, 7u);
    EXPECT_EQ(mem.read(0x100), 42u);
}

TEST_F(AtomicUnitTest, FetchAndInc)
{
    Word old = 99;
    au.request(net::AtomicOp::FetchAndInc, 0x100, 5, 0,
               [&](Word v) { old = v; });
    sys.events().run();
    EXPECT_EQ(old, 0u);
    EXPECT_EQ(mem.read(0x100), 5u);
}

TEST_F(AtomicUnitTest, CompareAndSwap)
{
    mem.write(0x100, 10);
    Word old = 0;
    au.request(net::AtomicOp::CompareAndSwap, 0x100, 10, 20,
               [&](Word v) { old = v; });
    sys.events().run();
    EXPECT_EQ(old, 10u);
    EXPECT_EQ(mem.read(0x100), 20u); // swapped

    au.request(net::AtomicOp::CompareAndSwap, 0x100, 10, 30,
               [&](Word v) { old = v; });
    sys.events().run();
    EXPECT_EQ(old, 20u);
    EXPECT_EQ(mem.read(0x100), 20u); // compare failed: unchanged
}

TEST_F(AtomicUnitTest, OperationsSerialize)
{
    // 10 concurrent fetch&incs: final value exactly 10, each op charged.
    for (int i = 0; i < 10; ++i)
        au.request(net::AtomicOp::FetchAndInc, 0x100, 1, 0, [](Word) {});
    sys.events().run();
    EXPECT_EQ(mem.read(0x100), 10u);
    EXPECT_EQ(sys.now(), 10 * sys.config().hibAtomic);
    EXPECT_EQ(au.executed(), 10u);
}

// ---------------------------------------------------------------------
// SpecialOpsUnit
// ---------------------------------------------------------------------

TEST(SpecialOpsUnit, ContextAssemblyAndLaunchArgs)
{
    System sys{Config{}};
    SpecialOpsUnit so(sys, "so");
    so.assignKey(3, 0xabcd);

    const PAddr base = SpecialOpsUnit::contextRegBase(3);
    EXPECT_TRUE(so.ctxWrite(base + node::kCtxOp,
                            static_cast<Word>(SpecialOp::FetchInc)));
    EXPECT_TRUE(so.ctxWrite(base + node::kCtxDatum, 5));
    EXPECT_TRUE(so.shadowCapture(0x1234560, shadowStoreArg(3, false, 0xabcd)));

    const LaunchArgs a = so.args(3);
    EXPECT_EQ(a.op, SpecialOp::FetchInc);
    EXPECT_EQ(a.datum, 5u);
    EXPECT_EQ(a.srcPa, 0x1234560u);
    EXPECT_TRUE(a.srcValid);

    std::uint32_t idx = 0;
    EXPECT_TRUE(so.isGo(base + node::kCtxGo, idx));
    EXPECT_EQ(idx, 3u);
    so.consume(3);
    EXPECT_FALSE(so.args(3).srcValid);
}

TEST(SpecialOpsUnit, WrongKeyIsRejectedAndCounted)
{
    System sys{Config{}};
    SpecialOpsUnit so(sys, "so");
    so.assignKey(1, 0x1111);
    EXPECT_FALSE(so.shadowCapture(0x100, shadowStoreArg(1, false, 0x2222)));
    EXPECT_EQ(so.keyViolations(), 1u);
    EXPECT_FALSE(so.args(1).srcValid);
}

TEST(SpecialOpsUnit, SpecialModeCapturesTwoAddresses)
{
    System sys{Config{}};
    SpecialOpsUnit so(sys, "so");
    so.setSpecialMode(true);
    so.specialRegWrite(node::kRegSpecialOp,
                       static_cast<Word>(SpecialOp::Copy));
    so.specialRegWrite(node::kRegSpecialDatum, 64);
    so.captureAddress(0xaaa0);
    so.captureAddress(0xbbb0);

    const LaunchArgs a = so.specialArgs();
    EXPECT_EQ(a.op, SpecialOp::Copy);
    EXPECT_EQ(a.srcPa, 0xaaa0u);
    EXPECT_EQ(a.dstPa, 0xbbb0u);
    EXPECT_TRUE(a.srcValid && a.dstValid);

    so.resetSpecial();
    EXPECT_FALSE(so.specialMode());
    EXPECT_FALSE(so.specialArgs().srcValid);
}

} // namespace
} // namespace tg::hib
