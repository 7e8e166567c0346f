/**
 * @file
 * Unit tests of page tables, the TLB, protection and shadow translation
 * (the mapping-based protection story of paper sections 2.1 / 2.2.4).
 */

#include <gtest/gtest.h>

#include "node/mmu.hpp"
#include "sim/system.hpp"

namespace tg::node {
namespace {

class MmuTest : public ::testing::Test
{
  protected:
    MmuTest() : sys(Config{}), mmu(sys, "mmu"), as(1)
    {
        mmu.setAddressSpace(&as);
    }

    Pte
    pte(PAddr frame, PageMode mode, bool write = true)
    {
        Pte p;
        p.frame = frame;
        p.mode = mode;
        p.write = write;
        return p;
    }

    System sys;
    Mmu mmu;
    AddressSpace as;
};

TEST_F(MmuTest, TranslateMappedPage)
{
    as.map(0x10000, pte(makePAddr(2, kShmBase), PageMode::SharedRemote));
    const Translation t = mmu.translate(0x10008, false);
    ASSERT_TRUE(t.ok);
    EXPECT_EQ(t.paddr, makePAddr(2, kShmBase) + 8);
    EXPECT_EQ(t.pte.mode, PageMode::SharedRemote);
}

TEST_F(MmuTest, UnmappedFaults)
{
    const Translation t = mmu.translate(0xdead0000, false);
    EXPECT_FALSE(t.ok);
}

TEST_F(MmuTest, WriteProtectionEnforced)
{
    as.map(0x10000, pte(makePAddr(0, 0x2000), PageMode::Private, false));
    EXPECT_TRUE(mmu.translate(0x10000, false).ok);
    EXPECT_FALSE(mmu.translate(0x10000, true).ok);
}

TEST_F(MmuTest, TlbMissChargesThenHits)
{
    as.map(0x10000, pte(makePAddr(0, 0x2000), PageMode::Private));
    const Translation miss = mmu.translate(0x10000, false);
    EXPECT_EQ(miss.ticks, sys.config().tlbMiss);
    const Translation hit = mmu.translate(0x10100, false);
    EXPECT_EQ(hit.ticks, 0u);
    EXPECT_EQ(mmu.hits(), 1u);
    EXPECT_EQ(mmu.misses(), 1u);
}

TEST_F(MmuTest, TlbCapacityEvictsFifo)
{
    const std::uint32_t n = sys.config().tlbEntries;
    for (std::uint32_t i = 0; i <= n; ++i)
        as.map(0x10000 + VAddr(i) * 8192,
               pte(makePAddr(0, 0x2000), PageMode::Private));
    for (std::uint32_t i = 0; i <= n; ++i)
        mmu.translate(0x10000 + VAddr(i) * 8192, false);
    // First page was evicted: translating it misses again.
    const auto misses = mmu.misses();
    mmu.translate(0x10000, false);
    EXPECT_EQ(mmu.misses(), misses + 1);
}

TEST_F(MmuTest, StaleTlbEntryUsedUntilFlushed)
{
    as.map(0x10000, pte(makePAddr(2, kShmBase), PageMode::SharedRemote));
    mmu.translate(0x10000, false); // cached

    // OS remaps the page (replication) but forgets the TLB flush:
    as.map(0x10000, pte(makePAddr(0, kShmBase), PageMode::SharedLocal));
    EXPECT_EQ(mmu.translate(0x10000, false).pte.mode,
              PageMode::SharedRemote); // stale!

    mmu.flushPage(as.asid(), 0x10000);
    EXPECT_EQ(mmu.translate(0x10000, false).pte.mode,
              PageMode::SharedLocal);
}

TEST_F(MmuTest, ShadowTranslationSetsFlag)
{
    as.map(0x10000, pte(makePAddr(2, kShmBase), PageMode::SharedRemote));
    const VAddr shadow_va = 0x10008 | kShadowBit;
    const Translation t = mmu.translate(shadow_va, true);
    ASSERT_TRUE(t.ok);
    EXPECT_TRUE(isShadow(t.paddr));
    EXPECT_EQ(stripShadow(t.paddr), makePAddr(2, kShmBase) + 8);
}

TEST_F(MmuTest, ShadowLoadsFault)
{
    as.map(0x10000, pte(makePAddr(2, kShmBase), PageMode::SharedRemote));
    EXPECT_FALSE(mmu.translate(0x10000 | kShadowBit, false).ok);
}

TEST_F(MmuTest, ShadowOfUnmappedFaults)
{
    // The protection property of shadow addressing: no base mapping, no
    // way to communicate the physical address (section 2.2.4).
    EXPECT_FALSE(mmu.translate(0x77000 | kShadowBit, true).ok);
}

TEST_F(MmuTest, ShadowOfPrivatePageFaults)
{
    as.map(0x10000, pte(makePAddr(0, 0x2000), PageMode::Private));
    EXPECT_FALSE(mmu.translate(0x10000 | kShadowBit, true).ok);
}

TEST_F(MmuTest, AsidsAreIsolated)
{
    AddressSpace other(2);
    as.map(0x10000, pte(makePAddr(0, 0x2000), PageMode::Private));
    mmu.translate(0x10000, false);

    mmu.setAddressSpace(&other);
    EXPECT_FALSE(mmu.translate(0x10000, false).ok); // no leakage via TLB
}

TEST_F(MmuTest, MapRangeCoversConsecutiveFrames)
{
    Pte p = pte(makePAddr(1, kShmBase), PageMode::SharedRemote);
    as.mapRange(0x40000, 3, p);
    const auto page = sys.config().pageBytes;
    EXPECT_EQ(mmu.translate(0x40000, false).paddr, makePAddr(1, kShmBase));
    EXPECT_EQ(mmu.translate(0x40000 + page, false).paddr,
              makePAddr(1, kShmBase) + page);
    EXPECT_EQ(mmu.translate(0x40000 + 2 * page + 16, false).paddr,
              makePAddr(1, kShmBase) + 2 * page + 16);
}

} // namespace
} // namespace tg::node
