/**
 * @file
 * Per-process page tables and a per-CPU TLB.
 *
 * Protection in Telegraphos is entirely mapping-based (paper section 2.1):
 * the OS maps remote pages into the page tables of processes allowed to
 * access them; everything else faults in the TLB.  Shadow virtual
 * addresses (paper 2.2.4, Telegraphos II) differ from their base address
 * only in the highest bit: the MMU translates through the base mapping and
 * tags the physical address with the shadow flag, so a store to shadow
 * space both proves access rights and delivers the physical address to the
 * HIB in a single user-level instruction.
 */

#ifndef TELEGRAPHOS_NODE_MMU_HPP
#define TELEGRAPHOS_NODE_MMU_HPP

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "node/address.hpp"
#include "sim/sim_object.hpp"

namespace tg::node {

/** How accesses to a virtual page are handled. */
enum class PageMode : std::uint8_t
{
    Invalid,      ///< not mapped
    Private,      ///< cacheable local main memory (Telegraphos untouched)
    SharedLocal,  ///< Telegraphos shared memory with a local frame
    SharedRemote, ///< remote shared memory: access goes through the HIB
    HibControl,   ///< HIB register space (contexts, counters, special mode)
    VsmAbsent,    ///< VSM baseline: page not present, access faults
};

/** Page-table entry. */
struct Pte
{
    PAddr frame = 0;   ///< global physical address of the page base
    PageMode mode = PageMode::Invalid;
    bool write = true; ///< store permission
    bool eager = false;   ///< writes feed the HIB multicast unit (2.2.7)
    bool counted = false; ///< remote accesses hit the page counters (2.2.6)

    bool operator==(const Pte &) const = default;
};

/**
 * The cluster's shared-memory mappings (paper section 2.1).  Every node
 * maps a shared page at the same virtual address and only the owner's
 * entry differs, so one table of ranges, one per Cluster::mapShared(),
 * serves every node's default address space.  The ranges are sorted by
 * first VPN and never overlap.
 */
class SharedMappings
{
  public:
    /** @p pages pages from @p vpn, homed at @p home on @p owner. */
    struct Range
    {
        VAddr vpn;
        std::size_t pages;
        PAddr home;
        NodeId owner;
    };

    /** Add a range; it must not overlap one already added (every
     *  caller maps addresses Cluster::allocVa reserved). */
    void add(VAddr vpn, std::size_t pages, NodeId owner, PAddr home);

    /** The entry node @p n sees for @p vpn: the home frame plus the page
     *  offset, SharedLocal on the owner and SharedRemote elsewhere;
     *  Invalid when no range covers @p vpn. */
    Pte pteOf(VAddr vpn, NodeId n) const;

    const std::vector<Range> &ranges() const { return _ranges; }

  private:
    /** The first range starting above @p vpn. */
    std::vector<Range>::const_iterator firstAfter(VAddr vpn) const;

    std::vector<Range> _ranges; // ascending vpn
};

/**
 * One process's address space: its own page-table entries, over the
 * cluster's shared mappings when it is a node's default space.  An own
 * entry wins; find() copies a shared page's entry into the own entries
 * before handing it out for an update, so the table itself never
 * changes per node.
 */
class AddressSpace
{
  public:
    /** @p shared, when given, supplies the shared pages this space sees
     *  as node @p node. */
    explicit AddressSpace(std::uint32_t asid,
                          const SharedMappings *shared = nullptr,
                          NodeId node = 0)
        : _asid(asid), _shared(shared), _node(node)
    {
    }

    std::uint32_t asid() const { return _asid; }

    VAddr
    vpnOf(VAddr va) const
    {
        return (va & ~kShadowBit) / Config::pageBytes;
    }

    /** Install/overwrite the mapping for the page containing @p va. */
    void map(VAddr va, const Pte &pte);

    /** Map @p pages consecutive pages starting at @p va. */
    void mapRange(VAddr va, std::size_t pages, Pte pte);

    /** Page-table lookup; Invalid PTE if unmapped. */
    Pte lookup(VAddr va) const;

    /** Mutable PTE access for OS updates (nullptr if unmapped).  A
     *  shared page's entry is first copied into the own entries. */
    Pte *find(VAddr va);

    /** Own entries: the pages mapped here, or updated by find(), rather
     *  than seen through the shared mappings. */
    std::size_t ownEntries() const { return _pages.size(); }

    /** All effective mappings, own and shared, as (vpn, pte) pairs in
     *  ascending-vpn order. */
    std::vector<std::pair<VAddr, Pte>> dumpPages() const;

    /** Own entries as (vpn, pte) pairs in ascending-vpn order
     *  (checkpointing, DESIGN.md section 14.5). */
    std::vector<std::pair<VAddr, Pte>> ownPages() const;

    /** Replace the own entries with a captured ownPages() list. */
    void restorePages(const std::vector<std::pair<VAddr, Pte>> &pages);

  private:
    Pte sharedPte(VAddr vpn) const
    {
        return _shared ? _shared->pteOf(vpn, _node) : Pte{};
    }

    std::uint32_t _asid;
    const SharedMappings *_shared;
    NodeId _node;
    std::unordered_map<VAddr, Pte> _pages; // own entries, keyed by VPN
};

/** Result of an MMU translation. */
struct Translation
{
    bool ok = false;      ///< translation succeeded
    Pte pte;              ///< entry used (valid when ok)
    PAddr paddr = 0;      ///< full physical address (with shadow flag)
    Tick ticks = 0;       ///< TLB lookup/refill time
};

/**
 * Per-CPU TLB + current-address-space pointer.
 *
 * Fully associative with FIFO replacement; misses charge the Alpha
 * PAL-refill cost and then walk the software page table.
 */
class Mmu : public SimObject
{
  public:
    Mmu(System &sys, const std::string &name);

    void setAddressSpace(AddressSpace *as);

    /**
     * Translate @p va for a load (@p is_write false) or store.
     * Shadow accesses (bit 63 set) require store permission and produce a
     * shadow-tagged physical address; shadow loads fail.
     */
    Translation translate(VAddr va, bool is_write);

    /** Drop any TLB entry for @p va in address space @p asid. */
    void flushPage(std::uint32_t asid, VAddr va);

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }

    /** One TLB slot as captured by a checkpoint (DESIGN.md 14.5). */
    struct TlbSnapshot
    {
        std::uint32_t asid;
        VAddr vpn;
        Pte pte;
    };

    /** TLB contents oldest-first (the FIFO replacement order). */
    std::vector<TlbSnapshot> dumpTlb() const;

    /** Restore captured TLB contents (entries arrive oldest-first). */
    void restoreTlb(const std::vector<TlbSnapshot> &entries);

  private:
    struct TlbEntry
    {
        std::uint32_t asid;
        VAddr vpn;
        Pte pte;
    };

    const Pte *cachedLookup(VAddr vpn);

    AddressSpace *_as = nullptr;
    std::vector<TlbEntry> _tlb; // front = oldest
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace tg::node

#endif // TELEGRAPHOS_NODE_MMU_HPP
