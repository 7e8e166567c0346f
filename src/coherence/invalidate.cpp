/**
 * @file
 * Page-level invalidation protocol.
 */

#include "coherence/invalidate.hpp"

#include <vector>

#include "hib/hib.hpp"

namespace tg::coherence {

using net::Packet;
using net::PacketType;

InvalidateProtocol::InvalidateProtocol(System &sys, Fabric &fabric)
    : Protocol(sys, "proto.inval", fabric)
{
    _kind = ProtocolKind::Invalidate;
    sys.stats().add({_name, "invalidations"}, &_invalidations);
}

void
InvalidateProtocol::localWrite(NodeId n, PageEntry &e, PAddr local_addr,
                               Word value, Fn<void()> done)
{
    applyToCopy(n, e, homeAddrOf(e, n, local_addr), value, n);
    if (e.copies.size() == 1 && e.hasCopy(n)) {
        done(); // already exclusive
        return;
    }

    // Collect the other holders now; the copyset shrinks as acks arrive.
    std::vector<NodeId> others;
    for (const auto &[node, frame] : e.copies) {
        (void)frame;
        if (node != n)
            others.push_back(node);
    }

    const auto key = std::make_pair(n, e.home);
    if (_pending.count(key))
        panic("concurrent invalidation rounds by node %u", unsigned(n));
    _pending[key] = PendingInv{others.size(), std::move(done)};
    ++_invalidations;

    // The write fault traps into the OS, which issues the invalidations.
    // The invalidation carries the writer's frame so the losers can be
    // remapped to remote-access the surviving exclusive copy.
    hib::Hib &hib = _fabric.hibOf(n);
    const PAddr writer_frame = e.copyFrame(n);
    schedule(config().osTrap,
             [this, &hib, home = e.home, writer_frame, others] {
                 for (NodeId m : others) {
                     Packet inv;
                     inv.type = PacketType::InvReq;
                     inv.dst = m;
                     inv.addr = home;
                     inv.addr2 = writer_frame;
                     inv.payloadBytes = 0;
                     hib.inject(std::move(inv), /*track=*/false);
                 }
             });
}

bool
InvalidateProtocol::handlePacket(NodeId n, const net::Packet &pkt)
{
    if (pkt.type == PacketType::InvReq) {
        PageEntry *e =
            _fabric.directory().byHome(_fabric.directory().pageOf(pkt.addr));
        hib::Hib &hib = _fabric.hibOf(n);
        if (e && e->hasCopy(n)) {
            // Drop our copy: the fabric remaps the virtual pages to
            // remote-access the writer's surviving copy and flushes TLBs
            // (the OS side of the story).
            _fabric.onCopyInvalidated(*e, n, pkt.addr2 ? pkt.addr2 : e->home);
            _fabric.directory().removeCopy(*e, n);
        }
        Packet ack;
        ack.type = PacketType::InvAck;
        ack.dst = pkt.src;
        ack.addr = pkt.addr;
        ack.payloadBytes = 0;
        // Invalidation is handled by the OS: charge the interrupt path.
        schedule(config().osInterrupt, [&hib, ack]() mutable {
            hib.inject(std::move(ack), /*track=*/false);
        });
        return true;
    }

    if (pkt.type == PacketType::InvAck) {
        const auto key =
            std::make_pair(n, _fabric.directory().pageOf(pkt.addr));
        auto it = _pending.find(key);
        if (it == _pending.end())
            return true; // stale ack
        if (--it->second.waiting == 0) {
            auto done = std::move(it->second.done);
            _pending.erase(it);
            done();
        }
        return true;
    }

    return false;
}

} // namespace tg::coherence
