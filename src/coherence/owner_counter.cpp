/**
 * @file
 * The paper's owner + pending-counter update
 * protocol (section 2.3).
 */

#include "coherence/owner_counter.hpp"

#include "hib/hib.hpp"

namespace tg::coherence {

using net::Packet;
using net::PacketType;

OwnerCounterProtocol::OwnerCounterProtocol(System &sys, Fabric &fabric)
    : Protocol(sys, "proto.owner", fabric)
{
    _kind = ProtocolKind::OwnerCounter;
    sys.stats().add({_name, "reflected_writes"}, &_reflected);
    sys.stats().add({_name, "ignored_updates"}, &_ignored);
}

void
OwnerCounterProtocol::ownerMulticast(PageEntry &e, PAddr home_addr,
                                     Word value, NodeId origin,
                                     bool track_at_owner)
{
    hib::Hib &owner_hib = _fabric.hibOf(e.owner);
    for (const auto &[node, frame] : e.copies) {
        (void)frame;
        if (node == e.owner)
            continue;
        Packet upd;
        upd.type = PacketType::Update;
        upd.dst = node;
        upd.addr = home_addr;
        upd.value = value;
        upd.origin = origin;
        upd.seq = owner_hib.nextSeq();
        owner_hib.inject(std::move(upd), track_at_owner);
        ++_reflected;
    }
}

void
OwnerCounterProtocol::localWrite(NodeId n, PageEntry &e, PAddr local_addr,
                                 Word value, Fn<void()> done)
{
    const PAddr home_addr = homeAddrOf(e, n, local_addr);

    if (n == e.owner) {
        // The owner's own stores are already in order: apply locally and
        // reflect to all copies.  Acks from the receivers drain the
        // owner's outstanding counter.
        applyToCopy(n, e, home_addr, value, n);
        const std::size_t others = e.copies.size() - 1;
        if (others > 0) {
            _fabric.hibOf(n).outstanding().add(others);
            ownerMulticast(e, home_addr, value, n, /*track_at_owner=*/false);
        }
        done();
        return;
    }

    hib::Hib &hib = _fabric.hibOf(n);
    auto send = [this, &hib, &e, home_addr, value, n,
                 done = std::move(done)] {
        // Rule 1, atomically once the counter slot is held: (i) update
        // the local copy, (ii) the counter is incremented (by our
        // caller), (iii) send the new value to the owner.
        applyToCopy(n, e, home_addr, value, n);
        // Expected completions: our own reflected update (1) plus
        // UpdateAcks from every other non-owner copy holder.
        hib.outstanding().add(e.copies.size() - 1);
        Packet pkt;
        pkt.type = PacketType::WriteOwner;
        pkt.dst = e.owner;
        pkt.addr = home_addr;
        pkt.value = value;
        pkt.origin = n;
        pkt.seq = hib.nextSeq();
        hib.inject(std::move(pkt), /*track=*/false);
        done();
    };

    if (!hib.counterCache().enabled()) {
        // Telegraphos I: no pending-write counters; the 2.3.2 hazard is
        // accepted (bench S1 demonstrates it).
        send();
        return;
    }
    // Rule 1: increment the pending counter (may stall on a full CAM).
    hib.counterCache().increment(home_addr, std::move(send));
}

void
OwnerCounterProtocol::remoteWriteAtHome(NodeId home, PageEntry &e,
                                        const net::Packet &pkt)
{
    // A plain remote write from a non-copy-holder reached the home: the
    // owner serializes it like any other update and reflects it.  Acks
    // drain the owner's counter (the writer only awaits its WriteAck).
    (void)home;
    const std::size_t others = e.copies.size() - 1;
    if (others > 0) {
        _fabric.hibOf(e.owner).outstanding().add(others);
        ownerMulticast(e, pkt.addr, pkt.value, e.owner,
                       /*track_at_owner=*/false);
    }
}

bool
OwnerCounterProtocol::handlePacket(NodeId n, const net::Packet &pkt)
{
    hib::Hib &hib = _fabric.hibOf(n);

    if (pkt.type == PacketType::WriteOwner) {
        if (n != pkt.dst || n != _fabric.directory().byHome(
                                _fabric.directory().pageOf(pkt.addr))->owner)
            panic("WriteOwner received by non-owner %u", unsigned(n));
        PageEntry &e = *_fabric.directory().byHome(
            _fabric.directory().pageOf(pkt.addr));
        // Apply at the owner: this defines the global order (2.3.1).
        applyToCopy(n, e, pkt.addr, pkt.value, pkt.origin);
        ownerMulticast(e, pkt.addr, pkt.value, pkt.origin,
                       /*track_at_owner=*/false);
        return true;
    }

    if (pkt.type != PacketType::Update)
        return false;

    PageEntry *e =
        _fabric.directory().byHome(_fabric.directory().pageOf(pkt.addr));
    if (!e)
        return false;

    if (pkt.origin == n) {
        hib.outstanding().complete();
        if (hib.counterCache().enabled()) {
            // Rule 2: our own reflected write returned — ignore the
            // value and decrement the pending counter.
            hib.counterCache().decrement(pkt.addr);
            ++_ignored;
        } else if (e->hasCopy(n)) {
            // Telegraphos I (no counters): the reflected write is applied
            // like any other — this is exactly the section 2.3.2 hazard
            // (a reflected old value can land on top of a newer one).
            applyToCopy(n, *e, pkt.addr, pkt.value, pkt.origin);
        }
        return true;
    }

    const bool pending = hib.counterCache().enabled() &&
                         hib.counterCache().count(pkt.addr) > 0;
    if (pending) {
        // Rule 3: a newer local value exists; the incoming update is
        // older by construction — ignore it.
        ++_ignored;
    } else if (e->hasCopy(n)) {
        applyToCopy(n, *e, pkt.addr, pkt.value, pkt.origin);
    }

    Packet ack;
    ack.type = PacketType::UpdateAck;
    ack.dst = pkt.origin;
    ack.payloadBytes = 0;
    hib.inject(std::move(ack), /*track=*/false);
    return true;
}

} // namespace tg::coherence
