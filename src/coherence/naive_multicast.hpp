/**
 * @file
 * Naive eager-update multicast protocol — the strawman of Figure 2.
 *
 * Every writer multicasts its updates directly to all other copies, with
 * no serializing owner.  With a single writer (or synchronized writers)
 * this is the cheapest update scheme; with concurrent writers the copies
 * of a page can permanently diverge because updates are applied in
 * different orders at different nodes (paper section 2.3, Figure 2).
 * Bench F2 demonstrates exactly that divergence.
 */

#ifndef TELEGRAPHOS_COHERENCE_NAIVE_MULTICAST_HPP
#define TELEGRAPHOS_COHERENCE_NAIVE_MULTICAST_HPP

#include "coherence/protocol.hpp"

namespace tg::coherence {

/** Ownerless direct multicast (inconsistent under concurrent writers). */
class NaiveMulticastProtocol : public Protocol
{
  public:
    NaiveMulticastProtocol(System &sys, Fabric &fabric);

    void localWrite(NodeId n, PageEntry &e, PAddr local_addr, Word value,
                    Fn<void()> done) override;

    void remoteWriteAtHome(NodeId home, PageEntry &e,
                           const net::Packet &pkt) override;

    bool handlePacket(NodeId n, PageEntry &e,
                      const net::Packet &pkt) override;
};

} // namespace tg::coherence

#endif // TELEGRAPHOS_COHERENCE_NAIVE_MULTICAST_HPP
