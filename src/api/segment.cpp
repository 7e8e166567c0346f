/**
 * @file
 * Segment implementation: shared-memory allocation,
 * replication and peek/poke debugging access.
 */

#include "api/segment.hpp"

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "node/address.hpp"

namespace tg {

using coherence::PageEntry;
using coherence::ProtocolKind;
using node::PageMode;
using node::Pte;

Segment::Segment(Cluster &cluster, std::string name, VAddr base,
                 std::size_t pages, NodeId owner, PAddr home_frame)
    : _cluster(cluster), _name(std::move(name)), _base(base), _pages(pages),
      _owner(owner), _home(home_frame)
{
}

std::size_t
Segment::bytes() const
{
    return _pages * _cluster.config().pageBytes;
}

VAddr
Segment::shadowWord(std::size_t i) const
{
    return shadowOf(word(i));
}

PAddr
Segment::homePage(std::size_t p) const
{
    return _home + PAddr(p) * _cluster.config().pageBytes;
}

PAddr
Segment::mapLocalCopy(NodeId n, std::size_t p, PAddr local)
{
    const std::uint32_t page_bytes = _cluster.config().pageBytes;
    // Instant (untimed) content copy.
    _cluster.memOf(n).copy(node::offsetOf(local), _cluster.memOf(_owner),
                           node::offsetOf(homePage(p)), page_bytes / 8);

    const VAddr va = _base + p * page_bytes;
    node::AddressSpace &as = _cluster.node(n).defaultAddressSpace();
    if (Pte *pte = as.find(va)) {
        pte->frame = local;
        pte->mode = PageMode::SharedLocal;
    }
    _cluster.node(n).mmu().flushPage(as.asid(), va);
    return local;
}

void
Segment::replicate(NodeId n, ProtocolKind kind)
{
    _replKind = kind;
    coherence::Directory &dir = _cluster.directory();
    coherence::Protocol &proto = _cluster.protocol(kind);

    for (std::size_t p = 0; p < _pages; ++p) {
        const PAddr home = homePage(p);
        PageEntry *e = dir.byHome(home);
        if (!e) {
            e = &dir.create(home, _owner, kind, &proto);
            proto.onCopyAdded(*e, _owner);
        }
        if (e->kind != kind)
            fatal("segment %s page %zu already replicated under %s",
                  _name.c_str(), p, protocolKindName(e->kind));
        if (e->hasCopy(n))
            continue;

        dir.addCopy(*e, n,
                    mapLocalCopy(n, p, _cluster.node(n).allocShmFrames(1)));
        proto.onCopyAdded(*e, n);
    }
}

void
Segment::eagerTo(NodeId reader)
{
    eagerTo(reader, _cluster.node(reader).allocShmFrames(_pages));
}

void
Segment::eagerTo(NodeId reader, PAddr frames)
{
    if (reader == _owner)
        fatal("segment %s: eagerTo(owner) is meaningless", _name.c_str());

    // A receive copy mapped locally at the reader, and the owner's page
    // mapped out to it (HIB multicast list).
    const std::uint32_t page_bytes = _cluster.config().pageBytes;
    for (std::size_t p = 0; p < _pages; ++p)
        _cluster.hibOf(_owner).multicast().addEntry(
            homePage(p), reader,
            mapLocalCopy(reader, p, frames + PAddr(p) * page_bytes));
}

void
Segment::armCounters(NodeId n, std::uint16_t reads, std::uint16_t writes)
{
    if (n == _owner)
        fatal("segment %s: counters meter *remote* accesses", _name.c_str());
    const std::uint32_t page_bytes = _cluster.config().pageBytes;
    node::AddressSpace &as = _cluster.node(n).defaultAddressSpace();

    for (std::size_t p = 0; p < _pages; ++p) {
        _cluster.hibOf(n).pageCounters().set(homePage(p), reads, writes);
        const VAddr va = _base + p * page_bytes;
        if (Pte *pte = as.find(va))
            pte->counted = true;
        _cluster.node(n).mmu().flushPage(as.asid(), va);
    }
}

Word
Segment::peek(std::size_t i) const
{
    return _cluster.memOf(_owner).read(node::offsetOf(homeWord(i)));
}

Word
Segment::peekCopy(NodeId n, std::size_t i) const
{
    if (n == _owner)
        return peek(i);
    const std::uint32_t page_bytes = _cluster.config().pageBytes;
    const std::size_t p = (i * 8) / page_bytes;
    PageEntry *e = _cluster.directory().byHome(homePage(p));
    if (!e || !e->hasCopy(n))
        fatal("segment %s: node %u has no copy for peekCopy", _name.c_str(),
              unsigned(n));
    const PAddr local = e->copyFrame(n) + (i * 8) % page_bytes;
    return _cluster.memOf(n).read(node::offsetOf(local));
}

void
Segment::poke(std::size_t i, Word v)
{
    _cluster.memOf(_owner).write(node::offsetOf(homeWord(i)), v);
}

} // namespace tg
