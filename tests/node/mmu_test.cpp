/**
 * @file
 * Unit tests of page tables, the TLB, protection and shadow translation
 * (the mapping-based protection story of paper sections 2.1 / 2.2.4).
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include "coherence/directory.hpp"
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

TEST_F(MmuTest, SharedMappingsResolveRangesAddedOutOfOrder)
{
    // A host communicator maps a broadcast root on first use, at an
    // address it reserved earlier than later segments.
    SharedMappings shared;
    shared.add(100, 2, 1, makePAddr(1, kShmBase));
    shared.add(50, 3, 0, makePAddr(0, kShmBase));
    shared.add(102, 1, 2, makePAddr(2, kShmBase));
    ASSERT_EQ(shared.ranges().size(), 3u);
    EXPECT_EQ(shared.ranges()[0].vpn, 50u);

    const auto page = sys.config().pageBytes;
    EXPECT_EQ(shared.pteOf(52, 0).frame, makePAddr(0, kShmBase) + 2 * page);
    EXPECT_EQ(shared.pteOf(52, 0).mode, PageMode::SharedLocal);
    EXPECT_EQ(shared.pteOf(101, 0).frame, makePAddr(1, kShmBase) + page);
    EXPECT_EQ(shared.pteOf(101, 0).mode, PageMode::SharedRemote);
    EXPECT_EQ(shared.pteOf(102, 2).mode, PageMode::SharedLocal);
    for (VAddr gap : {VAddr(0), VAddr(49), VAddr(53), VAddr(99), VAddr(103)})
        EXPECT_EQ(shared.pteOf(gap, 0).mode, PageMode::Invalid) << gap;
}

/** The entry a node's default space held for a shared page when every
 *  node had its own copy: the home frame, local on the owner only. */
Pte
perNodePte(const Segment &seg, std::size_t p, NodeId n)
{
    Pte pte;
    pte.frame = seg.homePage(p);
    pte.mode = n == seg.owner() ? PageMode::SharedLocal
                                : PageMode::SharedRemote;
    return pte;
}

TEST_F(MmuTest, SharedPagesMatchPerNodeEntries)
{
    Cluster c(ClusterSpec::star(8));
    std::vector<Segment *> segs;
    segs.push_back(&c.allocShared("a", 1, 0));
    c.allocPrivate(3, 3 * sys.config().pageBytes);
    segs.push_back(&c.allocShared("b", 3 * sys.config().pageBytes, 5));
    segs.push_back(&c.allocShared("c", 2 * sys.config().pageBytes, 7));

    for (NodeId n = 0; n < 8; ++n) {
        const AddressSpace &as = c.node(n).defaultAddressSpace();
        for (const Segment *seg : segs) {
            for (std::size_t p = 0; p < seg->pages(); ++p) {
                const VAddr va = seg->base() + p * sys.config().pageBytes;
                EXPECT_EQ(as.lookup(va + 8), perNodePte(*seg, p, n))
                    << seg->name() << " page " << p << " node " << n;
            }
        }
        EXPECT_EQ(as.lookup(segs.back()->base() + segs.back()->bytes()).mode,
                  PageMode::Invalid);
    }

    // An isolated process sees none of them.
    c.spawnIsolated(3, [](Ctx &) -> Task<void> { co_return; });
    const AddressSpace &isolated = *c.node(3).spaces().back();
    for (const Segment *seg : segs) {
        for (std::size_t p = 0; p < seg->pages(); ++p)
            EXPECT_EQ(isolated
                          .lookup(seg->base() + p * sys.config().pageBytes)
                          .mode,
                      PageMode::Invalid);
    }
}

/** Every node's effective page table. */
std::vector<std::vector<std::pair<VAddr, Pte>>>
allPages(Cluster &c)
{
    std::vector<std::vector<std::pair<VAddr, Pte>>> out;
    for (NodeId n = 0; n < NodeId(c.numNodes()); ++n)
        out.push_back(c.node(n).defaultAddressSpace().dumpPages());
    return out;
}

/** The (node, vpn) pairs whose entry differs between two snapshots. */
std::set<std::pair<NodeId, VAddr>>
changed(const std::vector<std::vector<std::pair<VAddr, Pte>>> &before,
        const std::vector<std::vector<std::pair<VAddr, Pte>>> &after)
{
    std::set<std::pair<NodeId, VAddr>> out;
    for (std::size_t n = 0; n < before.size(); ++n) {
        EXPECT_EQ(before[n].size(), after[n].size());
        for (std::size_t i = 0; i < before[n].size(); ++i) {
            EXPECT_EQ(before[n][i].first, after[n][i].first);
            if (!(before[n][i].second == after[n][i].second))
                out.emplace(NodeId(n), before[n][i].first);
        }
    }
    return out;
}

TEST_F(MmuTest, SharedPageUpdatesStayWithTheirNodeAndPage)
{
    const auto page = sys.config().pageBytes;
    Cluster c(ClusterSpec::star(4));
    Segment &a = c.allocShared("a", 2 * page, 0);
    Segment &b = c.allocShared("b", 2 * page, 1);
    const VAddr a0 = a.base() / page;
    const VAddr b0 = b.base() / page;

    auto before = allPages(c);
    a.replicate(2, coherence::ProtocolKind::Invalidate);
    auto after = allPages(c);
    EXPECT_EQ(changed(before, after),
              (std::set<std::pair<NodeId, VAddr>>{{2, a0}, {2, a0 + 1}}));
    for (std::size_t p = 0; p < 2; ++p) {
        const Pte pte =
            c.node(2).defaultAddressSpace().lookup(a.base() + p * page);
        EXPECT_EQ(pte.mode, PageMode::SharedLocal);
        EXPECT_EQ(node::nodeOf(pte.frame), 2u);
    }

    before = std::move(after);
    b.armCounters(3, 4, 4);
    after = allPages(c);
    EXPECT_EQ(changed(before, after),
              (std::set<std::pair<NodeId, VAddr>>{{3, b0}, {3, b0 + 1}}));
    EXPECT_TRUE(c.node(3).defaultAddressSpace().lookup(b.base()).counted);

    before = std::move(after);
    coherence::PageEntry *e = c.directory().byHome(a.homePage(1));
    ASSERT_NE(e, nullptr);
    c.onCopyInvalidated(*e, 2, a.homePage(1));
    after = allPages(c);
    EXPECT_EQ(changed(before, after),
              (std::set<std::pair<NodeId, VAddr>>{{2, a0 + 1}}));
    EXPECT_EQ(c.node(2).defaultAddressSpace().lookup(a.base() + page),
              perNodePte(a, 1, 2));
}

TEST_F(MmuTest, SharedSegmentsCostNoPerNodeEntries)
{
    constexpr NodeId kNodes = 256;
    Cluster c(ClusterSpec::fatTree(kNodes));
    std::vector<Segment *> segs;
    for (NodeId n = 0; n < kNodes; ++n)
        segs.push_back(&c.allocShared("s" + std::to_string(n), 8, n));

    for (NodeId n = 0; n < kNodes; ++n) {
        const AddressSpace &as = c.node(n).defaultAddressSpace();
        EXPECT_EQ(as.ownEntries(), 0u) << "node " << n;
        EXPECT_EQ(as.lookup(segs[n]->base()), perNodePte(*segs[n], 0, n));
        const Segment &next = *segs[(n + 1) % kNodes];
        EXPECT_EQ(as.lookup(next.base()), perNodePte(next, 0, n));
    }
}

} // namespace
} // namespace tg::node
