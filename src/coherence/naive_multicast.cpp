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
NaiveMulticastProtocol::multicastFrom(NodeId src, PageEntry &e,
                                      PAddr home_addr, Word value, bool track)
{
    hib::Hib &hib = _fabric.hibOf(src);
    for (const auto &[node, frame] : e.copies) {
        (void)frame;
        if (node == src)
            continue;
        Packet upd;
        upd.type = PacketType::Update;
        upd.dst = node;
        upd.addr = home_addr;
        upd.value = value;
        upd.origin = src;
        hib.inject(std::move(upd), track);
    }
}

void
NaiveMulticastProtocol::localWrite(NodeId n, PageEntry &e, PAddr local_addr,
                                   Word value, Fn<void()> done)
{
    const PAddr home_addr = homeAddrOf(e, n, local_addr);
    applyToCopy(n, e, home_addr, value, n);
    multicastFrom(n, e, home_addr, value, /*track=*/true);
    done();
}

void
NaiveMulticastProtocol::remoteWriteAtHome(NodeId home, PageEntry &e,
                                          const net::Packet &pkt)
{
    multicastFrom(home, e, pkt.addr, pkt.value, /*track=*/true);
}

bool
NaiveMulticastProtocol::handlePacket(NodeId n, const net::Packet &pkt)
{
    if (pkt.type != PacketType::Update)
        return false;
    PageEntry *e =
        _fabric.directory().byHome(_fabric.directory().pageOf(pkt.addr));
    if (!e)
        return false;

    // Applied unconditionally and in arrival order: with concurrent
    // writers different nodes can end up with different final values.
    if (e->hasCopy(n))
        applyToCopy(n, *e, pkt.addr, pkt.value, pkt.origin);

    Packet ack;
    ack.type = PacketType::UpdateAck;
    ack.dst = pkt.origin;
    ack.payloadBytes = 0;
    _fabric.hibOf(n).inject(std::move(ack), /*track=*/false);
    return true;
}

} // namespace tg::coherence
