/**
 * @file
 * Protocol base class plumbing shared by every
 * coherence scheme.
 */

#include "coherence/protocol.hpp"

#include "hib/hib.hpp"
#include "node/address.hpp"

namespace tg::coherence {

Protocol::Protocol(System &sys, const std::string &name, Fabric &fabric)
    : SimObject(sys, name), _fabric(fabric)
{
}

void
Protocol::remoteWriteAtHome(NodeId, PageEntry &, const net::Packet &)
{
}

void
Protocol::onCopyAdded(PageEntry &, NodeId)
{
}

void
Protocol::applyToCopy(NodeId n, PageEntry &e, PAddr home_addr, Word value,
                      NodeId origin)
{
    const PAddr offset = home_addr % config().pageBytes;
    const PAddr local = e.copyFrame(n) + offset;
    _fabric.memOf(n).write(node::offsetOf(local), value);
    _fabric.directory().notifyApply(n, home_addr, value, origin);
}

std::size_t
Protocol::updateCopies(NodeId src, PageEntry &e, PAddr home_addr,
                       Word value, NodeId origin, bool track)
{
    hib::Hib &hib = _fabric.hibOf(src);
    std::size_t sent = 0;
    for (const auto &[node, frame] : e.copies) {
        (void)frame;
        if (node == src)
            continue;
        net::Packet upd;
        upd.type = net::PacketType::Update;
        upd.dst = node;
        upd.addr = home_addr;
        upd.value = value;
        upd.origin = origin;
        hib.inject(std::move(upd), track);
        ++sent;
    }
    return sent;
}

PAddr
Protocol::homeAddrOf(PageEntry &e, NodeId n, PAddr local_addr) const
{
    (void)n;
    return e.home + (local_addr % config().pageBytes);
}

} // namespace tg::coherence
