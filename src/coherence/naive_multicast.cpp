/**
 * @file
 * Naive eager-multicast protocol (figure 2
 * inconsistency demonstrator).
 */

#include "coherence/naive_multicast.hpp"

#include "hib/hib.hpp"

namespace tg::coherence {

using net::Packet;
using net::PacketType;

NaiveMulticastProtocol::NaiveMulticastProtocol(System &sys, Fabric &fabric)
    : Protocol(sys, "proto.naive", fabric)
{
    _kind = ProtocolKind::Naive;
}

void
NaiveMulticastProtocol::localWrite(NodeId n, PageEntry &e, PAddr local_addr,
                                   Word value, Fn<void()> done)
{
    const PAddr home_addr = homeAddrOf(e, n, local_addr);
    applyToCopy(n, e, home_addr, value, n);
    (void)updateCopies(n, e, home_addr, value, n, /*track=*/true);
    done();
}

void
NaiveMulticastProtocol::remoteWriteAtHome(NodeId home, PageEntry &e,
                                          const net::Packet &pkt)
{
    (void)updateCopies(home, e, pkt.addr, pkt.value, home, /*track=*/true);
}

bool
NaiveMulticastProtocol::handlePacket(NodeId n, PageEntry &e,
                                     const net::Packet &pkt)
{
    if (pkt.type != PacketType::Update)
        return false;

    // Applied unconditionally and in arrival order: with concurrent
    // writers different nodes can end up with different final values.
    if (e.hasCopy(n))
        applyToCopy(n, e, pkt.addr, pkt.value, pkt.origin);

    Packet ack = net::replyTo(pkt);
    ack.payloadBytes = 0;
    _fabric.hibOf(n).inject(std::move(ack), /*track=*/false);
    return true;
}

} // namespace tg::coherence
