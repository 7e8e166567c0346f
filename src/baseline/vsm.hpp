/**
 * @file
 * Virtual Shared Memory baseline (Li & Hudak style page-based DSM).
 *
 * This is the "traditional system" of paper section 2.1: the
 * shared-memory illusion is built entirely in software on page faults.
 * A non-present access traps; the OS fetches an 8 KB page copy from its
 * current owner over the network; writes invalidate every other copy
 * first.  All slow-path costs (traps, kernel messaging, page transfers,
 * remap + TLB flush) are charged, using the same simulated interconnect
 * as Telegraphos — so bench A4's comparison isolates exactly the cost of
 * software intervention that Telegraphos eliminates.
 *
 * The VSM layer never resends.  When the network loses one of its
 * packets (fault model), the fault that waits for it fails: the
 * faulting thread is killed with the lost packet as its reason, and the
 * page is released so faults by other nodes on it are still served.
 */

#ifndef TELEGRAPHOS_BASELINE_VSM_HPP
#define TELEGRAPHOS_BASELINE_VSM_HPP

#include <map>
#include <set>
#include <string>

#include "api/cluster.hpp"

namespace tg::baseline {

/** Page-fault driven software DSM over the cluster. */
class VsmDsm
{
  public:
    explicit VsmDsm(Cluster &cluster);

    /**
     * Allocate a VSM region of @p bytes, initially resident (read-write)
     * on @p home and absent everywhere else.  Returns its base VA.
     */
    VAddr alloc(const std::string &name, std::size_t bytes, NodeId home);

    /** Word address helper. */
    VAddr word(VAddr base, std::size_t i) const { return base + i * 8; }

    std::uint64_t readFaults() const { return _readFaults; }
    std::uint64_t writeFaults() const { return _writeFaults; }
    std::uint64_t pageTransfers() const { return _pageTransfers; }
    std::uint64_t invalidations() const { return _invalidations; }

  private:
    struct VsmPage
    {
        VAddr va = 0;                   ///< page base VA
        NodeId owner = 0;               ///< holds the authoritative copy
        bool writable = false;          ///< owner is in write (exclusive) mode
        bool busy = false;              ///< a fault is being serviced
        std::set<NodeId> holders;       ///< nodes with a mapped copy
        std::map<NodeId, PAddr> frames; ///< local frame per node (lazy)
    };

    struct PendingFault
    {
        VAddr pageVa = 0;
        bool isWrite = false;
        std::size_t waitingAcks = 0;
        bool waitingPage = false;
        std::function<void()> retry;
        std::function<void(std::string)> kill;
    };

    bool handleFault(NodeId n, VAddr va, bool is_write,
                     std::function<void()> retry,
                     std::function<void(std::string)> kill);
    bool handlePacket(NodeId n, const net::Packet &pkt);

    /** The network lost @p pkt: fail the fault waiting for it. */
    bool handleLoss(const net::Packet &pkt);

    VsmPage *pageOf(VAddr va);
    PAddr frameFor(VsmPage &pg, NodeId n);
    void mapAt(VsmPage &pg, NodeId n, bool writable);
    void unmapAt(VsmPage &pg, NodeId n);
    void requestPage(NodeId n, VsmPage &pg);
    void maybeFinish(NodeId n);

    Cluster &_cluster;
    std::map<VAddr, VsmPage> _pages; // keyed by page base VA
    std::map<NodeId, PendingFault> _pending;
    std::uint64_t _readFaults = 0;
    std::uint64_t _writeFaults = 0;
    std::uint64_t _pageTransfers = 0;
    std::uint64_t _invalidations = 0;
};

} // namespace tg::baseline

#endif // TELEGRAPHOS_BASELINE_VSM_HPP
