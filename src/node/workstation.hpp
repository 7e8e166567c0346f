/**
 * @file
 * One workstation: CPU + MMU + cache + main memory + TurboChannel + HIB.
 *
 * Mirrors a DEC 3000 model 300 ("Pelican") with a Telegraphos HIB in a
 * TurboChannel slot (paper section 2.1, figure 1).
 */

#ifndef TELEGRAPHOS_NODE_WORKSTATION_HPP
#define TELEGRAPHOS_NODE_WORKSTATION_HPP

#include <memory>
#include <vector>

#include "hib/hib.hpp"
#include "node/cache.hpp"
#include "node/cpu.hpp"
#include "node/main_memory.hpp"
#include "node/mmu.hpp"
#include "node/turbochannel.hpp"

namespace tg::node {

/** A complete workstation node. */
class Workstation : public SimObject
{
  public:
    /** @param dir the cluster's coherence directory, handed to the HIB.
     *  @param shared the cluster's shared mappings, seen by the default
     *  address space. */
    Workstation(System &sys, const std::string &name, NodeId id,
                coherence::Directory &dir, const SharedMappings &shared);

    NodeId id() const { return _id; }

    MainMemory &mem() { return *_mem; }
    Cache &cache() { return *_cache; }
    Mmu &mmu() { return *_mmu; }
    TurboChannel &tc() { return *_tc; }
    hib::Hib &hib() { return *_hib; }
    Cpu &cpu() { return *_cpu; }

    /** Create a new process address space on this node; it sees none
     *  of the shared mappings. */
    AddressSpace &newAddressSpace();

    /** Default address space threads run in unless told otherwise. */
    AddressSpace &defaultAddressSpace() { return *_spaces.front(); }

    /** Allocate @p pages frames of main memory; returns a global PA. */
    PAddr allocMainFrames(std::size_t pages);

    /** Allocate @p pages frames of Telegraphos shared memory. */
    PAddr allocShmFrames(std::size_t pages);

    // ------------------------------------------------------------------
    // Checkpointing (DESIGN.md section 14.5)
    // ------------------------------------------------------------------

    std::uint32_t nextAsid() const { return _nextAsid; }
    PAddr mainNext() const { return _mainNext; }
    PAddr shmNext() const { return _shmNext; }

    /** All address spaces created so far (creation = asid order). */
    const std::vector<std::unique_ptr<AddressSpace>> &spaces() const
    {
        return _spaces;
    }

    /** Restore the allocation cursors captured by a checkpoint. */
    void
    restoreAllocators(std::uint32_t next_asid, PAddr main_next,
                      PAddr shm_next)
    {
        _nextAsid = next_asid;
        _mainNext = main_next;
        _shmNext = shm_next;
    }

  private:
    NodeId _id;
    std::unique_ptr<MainMemory> _mem;
    std::unique_ptr<Cache> _cache;
    std::unique_ptr<Mmu> _mmu;
    std::unique_ptr<TurboChannel> _tc;
    std::unique_ptr<hib::Hib> _hib;
    std::unique_ptr<Cpu> _cpu;

    std::vector<std::unique_ptr<AddressSpace>> _spaces;
    std::uint32_t _nextAsid = 1;
    PAddr _mainNext;
    PAddr _shmNext;
};

} // namespace tg::node

#endif // TELEGRAPHOS_NODE_WORKSTATION_HPP
