/**
 * @file
 * MMU + TLB model: address-space page tables and refill
 * costs.
 */

#include "node/mmu.hpp"

#include <algorithm>
#include <iterator>

namespace tg::node {

std::vector<SharedMappings::Range>::const_iterator
SharedMappings::firstAfter(VAddr vpn) const
{
    return std::upper_bound(
        _ranges.begin(), _ranges.end(), vpn,
        [](VAddr v, const Range &r) { return v < r.vpn; });
}

void
SharedMappings::add(VAddr vpn, std::size_t pages, NodeId owner, PAddr home)
{
    _ranges.insert(firstAfter(vpn), Range{vpn, pages, home, owner});
}

Pte
SharedMappings::pteOf(VAddr vpn, NodeId n) const
{
    const auto next = firstAfter(vpn);
    if (next == _ranges.begin())
        return Pte{};
    const Range &r = *std::prev(next);
    if (vpn - r.vpn >= r.pages)
        return Pte{};
    Pte pte;
    pte.frame = r.home + (vpn - r.vpn) * Config::pageBytes;
    pte.mode = n == r.owner ? PageMode::SharedLocal : PageMode::SharedRemote;
    return pte;
}

void
AddressSpace::map(VAddr va, const Pte &pte)
{
    _pages[vpnOf(va)] = pte;
}

void
AddressSpace::mapRange(VAddr va, std::size_t pages, Pte pte)
{
    for (std::size_t i = 0; i < pages; ++i) {
        map(va + i * Config::pageBytes, pte);
        pte.frame += Config::pageBytes;
    }
}

Pte
AddressSpace::lookup(VAddr va) const
{
    const VAddr vpn = vpnOf(va);
    auto it = _pages.find(vpn);
    return it == _pages.end() ? sharedPte(vpn) : it->second;
}

Pte *
AddressSpace::find(VAddr va)
{
    const VAddr vpn = vpnOf(va);
    if (auto it = _pages.find(vpn); it != _pages.end())
        return &it->second;
    const Pte pte = sharedPte(vpn);
    if (pte.mode == PageMode::Invalid)
        return nullptr;
    // Copy on write: the update stays this space's own.
    return &_pages.emplace(vpn, pte).first->second;
}

std::vector<std::pair<VAddr, Pte>>
AddressSpace::dumpPages() const
{
    std::vector<std::pair<VAddr, Pte>> out(_pages.begin(), _pages.end());
    if (_shared) {
        for (const auto &r : _shared->ranges()) {
            for (VAddr vpn = r.vpn; vpn < r.vpn + r.pages; ++vpn) {
                if (!_pages.contains(vpn))
                    out.emplace_back(vpn, _shared->pteOf(vpn, _node));
            }
        }
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return out;
}

std::vector<std::pair<VAddr, Pte>>
AddressSpace::ownPages() const
{
    std::vector<std::pair<VAddr, Pte>> out(_pages.begin(), _pages.end());
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return out;
}

void
AddressSpace::restorePages(const std::vector<std::pair<VAddr, Pte>> &pages)
{
    _pages = {pages.begin(), pages.end()};
}

Mmu::Mmu(System &sys, const std::string &name) : SimObject(sys, name)
{
    // One slot past the bound: a refill appends before evicting.
    _tlb.reserve(Config::tlbEntries + 1);
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
    Pte pte = _as->lookup(vpn * config().pageBytes);
    if (pte.mode == PageMode::Invalid)
        return nullptr;
    _tlb.push_back(TlbEntry{_as->asid(), vpn, pte});
    if (_tlb.size() > config().tlbEntries)
        _tlb.erase(_tlb.begin());
    return &_tlb.back().pte;
}

Translation
Mmu::translate(VAddr va, bool is_write)
{
    Translation t;
    if (!_as)
        panic("%s: translate with no address space", _name.c_str());

    const bool shadow = (va & kShadowBit) != 0;
    const VAddr base = va & ~kShadowBit;
    const VAddr vpn = base / config().pageBytes;

    const std::uint64_t misses_before = _misses;
    const Pte *pte = cachedLookup(vpn);
    t.ticks = (_misses > misses_before) ? config().tlbMiss : 0;

    if (!pte)
        return t; // fault: unmapped

    // Shadow accesses must be stores (there is nothing to load from
    // shadow space) and require write permission on the base mapping.
    if (shadow && !is_write)
        return t;
    if (is_write && !pte->write)
        return t;
    if (shadow && pte->mode != PageMode::SharedRemote &&
        pte->mode != PageMode::SharedLocal) {
        // Only shared data has meaningful shadow physical addresses.
        return t;
    }

    t.ok = true;
    t.pte = *pte;
    t.paddr = pte->frame + (base % config().pageBytes);
    if (shadow)
        t.paddr |= kShadowBit;
    return t;
}

void
Mmu::flushPage(std::uint32_t asid, VAddr va)
{
    // Independent of the *current* address space: the OS flushes
    // mappings of processes that are not necessarily running.
    const VAddr vpn = (va & ~kShadowBit) / config().pageBytes;
    std::erase_if(_tlb, [&](const TlbEntry &e) {
        return e.asid == asid && e.vpn == vpn;
    });
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
Mmu::restoreTlb(const std::vector<TlbSnapshot> &entries)
{
    _tlb.clear();
    for (const auto &e : entries)
        _tlb.push_back(TlbEntry{e.asid, e.vpn, e.pte});
}

} // namespace tg::node
