/**
 * @file
 * Galactica Net style ring-update protocol
 * with back-off (paper section 2.4).
 */

#include "coherence/galactica_ring.hpp"

#include <algorithm>

#include "hib/hib.hpp"

namespace tg::coherence {

using net::Packet;
using net::PacketType;

namespace {
/** ticket field: 0 = normal ring update, 1 = corrective re-update. */
constexpr std::uint64_t kCorrective = 1;
} // namespace

GalacticaRingProtocol::GalacticaRingProtocol(System &sys, Fabric &fabric)
    : Protocol(sys, "proto.galactica", fabric)
{
    _kind = ProtocolKind::GalacticaRing;
    sys.stats().add({_name, "backoffs"}, &_backoffs);
    sys.stats().add({_name, "correctives"}, &_correctives);
}

void
GalacticaRingProtocol::onCopyAdded(PageEntry &e, NodeId n)
{
    if (std::find(e.ring.begin(), e.ring.end(), n) == e.ring.end())
        e.ring.push_back(n);
}

void
GalacticaRingProtocol::sendRing(NodeId from, PageEntry &e, PAddr home_addr,
                                Word value, bool corrective)
{
    hib::Hib &hib = _fabric.hibOf(from);
    Packet pkt;
    pkt.type = PacketType::RingUpdate;
    pkt.dst = e.ringNext(from);
    pkt.addr = home_addr;
    pkt.value = value;
    pkt.origin = from;
    pkt.ticket = corrective ? kCorrective : 0;
    hib.inject(std::move(pkt), /*track=*/true);
}

void
GalacticaRingProtocol::localWrite(NodeId n, PageEntry &e, PAddr local_addr,
                                  Word value, Fn<void()> done)
{
    const PAddr home_addr = homeAddrOf(e, n, local_addr);
    applyToCopy(n, e, home_addr, value, n);
    if (e.ring.size() < 2) {
        done();
        return;
    }
    _pending[{n, home_addr}] = PendingWrite{value, false, 0};
    sendRing(n, e, home_addr, value, /*corrective=*/false);
    done();
}

void
GalacticaRingProtocol::forward(NodeId n, PageEntry &e, const net::Packet &pkt)
{
    hib::Hib &hib = _fabric.hibOf(n);
    Packet fwd = pkt;
    fwd.dst = e.ringNext(n);
    hib.inject(std::move(fwd), /*track=*/false);
}

bool
GalacticaRingProtocol::handlePacket(NodeId n, PageEntry &e,
                                    const net::Packet &pkt)
{
    if (pkt.type != PacketType::RingUpdate)
        return false;
    hib::Hib &hib = _fabric.hibOf(n);

    if (pkt.origin == n) {
        // Our update completed the loop.
        hib.outstanding().complete();
        if (pkt.ticket == kCorrective)
            return true;
        auto it = _pending.find({n, pkt.addr});
        if (it != _pending.end()) {
            const PendingWrite pw = it->second;
            _pending.erase(it);
            if (pw.backoff) {
                // We lost the conflict: adopt the winner's value and
                // circulate a corrective update ("the lowest priority
                // processor will back off", section 2.4).
                ++_correctives;
                applyToCopy(n, e, pkt.addr, pw.winnerValue, n);
                sendRing(n, e, pkt.addr, pw.winnerValue,
                         /*corrective=*/true);
            }
        }
        return true;
    }

    if (pkt.ticket == kCorrective) {
        if (e.hasCopy(n))
            applyToCopy(n, e, pkt.addr, pkt.value, pkt.origin);
        forward(n, e, pkt);
        return true;
    }

    auto mine = _pending.find({n, pkt.addr});
    if (mine != _pending.end()) {
        // Conflict: two writers to the same word are circulating.
        if (pkt.origin < n) {
            // Incoming writer has higher priority: back off.
            ++_backoffs;
            mine->second.backoff = true;
            mine->second.winnerValue = pkt.value;
            if (e.hasCopy(n))
                applyToCopy(n, e, pkt.addr, pkt.value, pkt.origin);
        }
        // Lower-priority incoming update is ignored locally; it still
        // circulates so its origin learns about the conflict.
    } else if (e.hasCopy(n)) {
        applyToCopy(n, e, pkt.addr, pkt.value, pkt.origin);
    }

    forward(n, e, pkt);
    return true;
}

} // namespace tg::coherence
