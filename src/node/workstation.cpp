/**
 * @file
 * Workstation assembly: CPU + memory + MMU + HIB wired
 * to the network endpoint.
 */

#include "node/workstation.hpp"

#include "node/address.hpp"

namespace tg::node {

Workstation::Workstation(System &sys, const std::string &name, NodeId id,
                         coherence::Directory &dir,
                         const SharedMappings &shared)
    : SimObject(sys, name), _id(id), _mainNext(kMainBase), _shmNext(kShmBase)
{
    _mem = std::make_unique<MainMemory>(sys, name + ".mem");
    _cache = std::make_unique<Cache>(sys, name + ".cache");
    _mmu = std::make_unique<Mmu>(sys, name + ".mmu");
    _tc = std::make_unique<TurboChannel>(sys, name + ".tc");
    _hib = std::make_unique<hib::Hib>(sys, name + ".hib", id, *_mem, *_tc,
                                      dir);
    _cpu = std::make_unique<Cpu>(sys, name + ".cpu", id, *_mmu, *_cache,
                                 *_mem, *_tc, *_hib);
    // The default process address space.
    _spaces.push_back(
        std::make_unique<AddressSpace>(_nextAsid++, &shared, id));
    // Leave the first main-memory page unmapped so that address 0 stays
    // an error, and reserve a little room for "kernel" use.
    _mainNext += config().pageBytes * 4;
}

AddressSpace &
Workstation::newAddressSpace()
{
    _spaces.push_back(std::make_unique<AddressSpace>(_nextAsid++));
    return *_spaces.back();
}

PAddr
Workstation::allocMainFrames(std::size_t pages)
{
    const PAddr base = _mainNext;
    _mainNext += PAddr(pages) * config().pageBytes;
    if (_mainNext >= kShmBase)
        fatal("%s: out of main-memory frames", _name.c_str());
    return makePAddr(_id, base);
}

PAddr
Workstation::allocShmFrames(std::size_t pages)
{
    const PAddr base = _shmNext;
    _shmNext += PAddr(pages) * config().pageBytes;
    if (_shmNext >= kHibRegBase)
        fatal("%s: out of shared-memory frames", _name.c_str());
    return makePAddr(_id, base);
}

} // namespace tg::node
