/**
 * @file
 * The paper's novel counter-based coherent update protocol
 * (sections 2.3.1 - 2.3.4).
 *
 * Every page has one owner node that defines the global order of updates.
 * A store by a non-owner (i) updates the local copy, (ii) increments the
 * per-word pending-write counter, and (iii) forwards the value to the
 * owner; the owner applies it and multicasts *reflected writes* to every
 * copy, in arrival order.  A node ignores incoming updates to words whose
 * pending counter is non-zero, and decrements the counter when its own
 * reflected write returns.  This guarantees each node sees a subset of
 * the owner's value sequence, in the owner's order — no "1,2,1"
 * anomalies and no lost read-your-writes (sections 2.3.2, 2.4).
 *
 * With the counter cache disabled (Telegraphos I) the counter steps are
 * skipped entirely, exposing exactly the hazards the paper describes for
 * prototype I (applications then need synchronization between concurrent
 * writes to be correct).
 */

#ifndef TELEGRAPHOS_COHERENCE_OWNER_COUNTER_HPP
#define TELEGRAPHOS_COHERENCE_OWNER_COUNTER_HPP

#include "coherence/protocol.hpp"

namespace tg::coherence {

/** Owner-serialized, counter-filtered update protocol. */
class OwnerCounterProtocol : public Protocol
{
  public:
    OwnerCounterProtocol(System &sys, Fabric &fabric);

    void localWrite(NodeId n, PageEntry &e, PAddr local_addr, Word value,
                    Fn<void()> done) override;

    void remoteWriteAtHome(NodeId home, PageEntry &e,
                           const net::Packet &pkt) override;

    bool handlePacket(NodeId n, PageEntry &e,
                      const net::Packet &pkt) override;

    std::uint64_t ignoredUpdates() const { return _ignored; }
    std::uint64_t reflectedWrites() const { return _reflected; }

  private:
    std::uint64_t _ignored = 0;
    std::uint64_t _reflected = 0;
};

} // namespace tg::coherence

#endif // TELEGRAPHOS_COHERENCE_OWNER_COUNTER_HPP
