/**
 * @file
 * Page-level invalidate protocol (the alternative of section 2.3.6).
 *
 * Telegraphos leaves the update-vs-invalidate decision to software; this
 * protocol models the invalidate choice: a store to a page with other
 * copies traps to the OS, which invalidates every other copy (their
 * virtual pages are remapped to remote access and TLBs flushed) before
 * the writer proceeds with an exclusive copy.  Readers that lost their
 * copy fall back to Telegraphos remote reads — or re-replicate when the
 * access-counter alarms say it is worth it.
 *
 * Bench A3 compares this protocol against the update protocols on
 * producer/consumer versus migratory sharing patterns.
 */

#ifndef TELEGRAPHOS_COHERENCE_INVALIDATE_HPP
#define TELEGRAPHOS_COHERENCE_INVALIDATE_HPP

#include <map>

#include "coherence/protocol.hpp"

namespace tg::coherence {

/** Write-invalidate at page granularity, OS-assisted. */
class InvalidateProtocol : public Protocol
{
  public:
    InvalidateProtocol(System &sys, Fabric &fabric);

    void localWrite(NodeId n, PageEntry &e, PAddr local_addr, Word value,
                    Fn<void()> done) override;

    bool handlePacket(NodeId n, PageEntry &e,
                      const net::Packet &pkt) override;

    std::uint64_t invalidations() const { return _invalidations; }

  private:
    struct PendingInv
    {
        std::size_t waiting = 0;
        Fn<void()> done;
    };

    /** (writer node, home page) -> in-flight invalidation round. */
    std::map<std::pair<NodeId, PAddr>, PendingInv> _pending;
    std::uint64_t _invalidations = 0;
};

} // namespace tg::coherence

#endif // TELEGRAPHOS_COHERENCE_INVALIDATE_HPP
