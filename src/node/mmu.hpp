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
};

/** One process's address space. */
class AddressSpace
{
  public:
    explicit AddressSpace(std::uint32_t asid, std::uint32_t page_bytes)
        : _asid(asid), _pageBytes(page_bytes)
    {
    }

    std::uint32_t asid() const { return _asid; }
    std::uint32_t pageBytes() const { return _pageBytes; }

    VAddr vpnOf(VAddr va) const { return (va & ~kShadowBit) / _pageBytes; }

    /** Install/overwrite the mapping for the page containing @p va. */
    void map(VAddr va, const Pte &pte);

    /** Map @p pages consecutive pages starting at @p va. */
    void mapRange(VAddr va, std::size_t pages, Pte pte);

    /** Page-table lookup; Invalid PTE if unmapped. */
    Pte lookup(VAddr va) const;

    /** Mutable PTE access for OS updates (nullptr if unmapped). */
    Pte *find(VAddr va);

    /** All mappings as (vpn, pte) pairs in ascending-vpn order
     *  (checkpointing, DESIGN.md section 14.5). */
    std::vector<std::pair<VAddr, Pte>> dumpPages() const;

    /** Replace the page table with a captured dump (vpn-keyed). */
    void restorePages(const std::vector<std::pair<VAddr, Pte>> &pages);

  private:
    std::uint32_t _asid;
    std::uint32_t _pageBytes;
    std::unordered_map<VAddr, Pte> _pages; // keyed by VPN
};

/** Result of an MMU translation. */
struct Translation
{
    bool ok = false;      ///< translation succeeded
    bool shadow = false;  ///< access was through shadow space
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

    /** Restore captured TLB contents (entries arrive oldest-first) and
     *  hit/miss counters. */
    void restoreTlb(const std::vector<TlbSnapshot> &entries,
                    std::uint64_t hits, std::uint64_t misses);

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
