/**
 * @file
 * MMU + TLB model: address-space page tables and refill
 * costs.
 */

#include "node/mmu.hpp"

#include <algorithm>

namespace tg::node {

void
AddressSpace::map(VAddr va, const Pte &pte)
{
    _pages[vpnOf(va)] = pte;
}

void
AddressSpace::mapRange(VAddr va, std::size_t pages, Pte pte)
{
    for (std::size_t i = 0; i < pages; ++i) {
        map(va + i * _pageBytes, pte);
        pte.frame += _pageBytes;
    }
}

void
AddressSpace::unmap(VAddr va)
{
    _pages.erase(vpnOf(va));
}

Pte
AddressSpace::lookup(VAddr va) const
{
    auto it = _pages.find(vpnOf(va));
    return it == _pages.end() ? Pte{} : it->second;
}

Pte *
AddressSpace::find(VAddr va)
{
    auto it = _pages.find(vpnOf(va));
    return it == _pages.end() ? nullptr : &it->second;
}

std::vector<std::pair<VAddr, Pte>>
AddressSpace::dumpPages() const
{
    std::vector<std::pair<VAddr, Pte>> out(_pages.begin(), _pages.end());
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return out;
}

void
AddressSpace::restorePages(const std::vector<std::pair<VAddr, Pte>> &pages)
{
    _pages.clear();
    for (const auto &[vpn, pte] : pages)
        _pages[vpn] = pte;
}

Mmu::Mmu(System &sys, const std::string &name) : SimObject(sys, name)
{
    sys.stats().add({_name, "hits"}, &_hits);
    sys.stats().add({_name, "misses"}, &_misses);
}

void
Mmu::setAddressSpace(AddressSpace *as)
{
    _as = as;
}

const Pte *
Mmu::cachedLookup(VAddr vpn)
{
    for (auto &e : _tlb) {
        if (e.asid == _as->asid() && e.vpn == vpn) {
            ++_hits;
            return &e.pte;
        }
    }
    ++_misses;
    Pte pte = _as->lookup(vpn * _as->pageBytes());
    if (pte.mode == PageMode::Invalid)
        return nullptr;
    _tlb.push_back(TlbEntry{_as->asid(), vpn, pte});
    while (_tlb.size() > config().tlbEntries)
        _tlb.pop_front();
    return &_tlb.back().pte;
}

Translation
Mmu::translate(VAddr va, bool is_write)
{
    Translation t;
    if (!_as)
        panic("%s: translate with no address space", _name.c_str());

    t.shadow = (va & kShadowBit) != 0;
    const VAddr base = va & ~kShadowBit;
    const VAddr vpn = base / _as->pageBytes();

    const std::uint64_t misses_before = _misses;
    const Pte *pte = cachedLookup(vpn);
    t.ticks = (_misses > misses_before) ? config().tlbMiss : 0;

    if (!pte)
        return t; // fault: unmapped

    // Shadow accesses must be stores (there is nothing to load from
    // shadow space) and require write permission on the base mapping.
    if (t.shadow && !is_write)
        return t;
    if (is_write && !pte->write)
        return t;
    if (t.shadow && pte->mode != PageMode::SharedRemote &&
        pte->mode != PageMode::SharedLocal) {
        // Only shared data has meaningful shadow physical addresses.
        return t;
    }

    t.ok = true;
    t.pte = *pte;
    t.paddr = pte->frame + (base % _as->pageBytes());
    if (t.shadow)
        t.paddr |= kShadowBit;
    return t;
}

void
Mmu::flushPage(std::uint32_t asid, VAddr va)
{
    // Independent of the *current* address space: the OS flushes
    // mappings of processes that are not necessarily running.
    const VAddr vpn = (va & ~kShadowBit) / config().pageBytes;
    for (auto it = _tlb.begin(); it != _tlb.end();) {
        if (it->asid == asid && it->vpn == vpn)
            it = _tlb.erase(it);
        else
            ++it;
    }
}

void
Mmu::flushAsid(std::uint32_t asid)
{
    for (auto it = _tlb.begin(); it != _tlb.end();) {
        if (it->asid == asid)
            it = _tlb.erase(it);
        else
            ++it;
    }
}

void
Mmu::flushAll()
{
    _tlb.clear();
}

std::vector<Mmu::TlbSnapshot>
Mmu::dumpTlb() const
{
    std::vector<TlbSnapshot> out;
    out.reserve(_tlb.size());
    for (const auto &e : _tlb)
        out.push_back(TlbSnapshot{e.asid, e.vpn, e.pte});
    return out;
}

void
Mmu::restoreTlb(const std::vector<TlbSnapshot> &entries, std::uint64_t hits,
                std::uint64_t misses)
{
    _tlb.clear();
    for (const auto &e : entries)
        _tlb.push_back(TlbEntry{e.asid, e.vpn, e.pte});
    _hits = hits;
    _misses = misses;
}

} // namespace tg::node
