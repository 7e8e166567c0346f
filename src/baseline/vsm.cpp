/**
 * @file
 * Virtual shared memory baseline: page-fault driven
 * software DSM a la Li/Hudak.
 */

#include "baseline/vsm.hpp"

#include "node/address.hpp"

namespace tg::baseline {

using net::Packet;
using net::PacketType;
using node::PageMode;
using node::Pte;

namespace {
constexpr Word kInval = 1;
constexpr Word kInvalAck = 2;
} // namespace

VsmDsm::VsmDsm(Cluster &cluster) : _cluster(cluster)
{
    for (NodeId n = 0; n < NodeId(_cluster.numNodes()); ++n) {
        _cluster.os(n).addFaultService(
            [this, n](VAddr va, bool w, std::function<void()> retry,
                      std::function<void(std::string)> kill) {
                return handleFault(n, va, w, std::move(retry),
                                   std::move(kill));
            });
        _cluster.hibOf(n).addSoftwareHandler(
            [this, n](const Packet &pkt) { return handlePacket(n, pkt); });
    }
}

VAddr
VsmDsm::alloc(const std::string &name, std::size_t bytes, NodeId home)
{
    (void)name;
    const std::size_t page_bytes = _cluster.config().pageBytes;
    const std::size_t pages = (bytes + page_bytes - 1) / page_bytes;
    const VAddr base = _cluster.allocVaPages(pages);

    for (std::size_t p = 0; p < pages; ++p) {
        const VAddr va = base + p * page_bytes;
        VsmPage pg;
        pg.va = va;
        pg.owner = home;
        pg.writable = true;
        pg.holders.insert(home);
        _pages.emplace(va, std::move(pg));

        // Home starts resident read-write; everyone else absent.
        for (NodeId n = 0; n < NodeId(_cluster.numNodes()); ++n) {
            if (n == home) {
                mapAt(_pages[va], n, true);
            } else {
                Pte pte;
                pte.mode = PageMode::VsmAbsent;
                _cluster.node(n).defaultAddressSpace().map(va, pte);
            }
        }
    }
    return base;
}

VsmDsm::VsmPage *
VsmDsm::pageOf(VAddr va)
{
    const std::size_t page_bytes = _cluster.config().pageBytes;
    auto it = _pages.find(va - va % page_bytes);
    return it == _pages.end() ? nullptr : &it->second;
}

PAddr
VsmDsm::frameFor(VsmPage &pg, NodeId n)
{
    auto it = pg.frames.find(n);
    if (it != pg.frames.end())
        return it->second;
    const PAddr frame = _cluster.node(n).allocMainFrames(1);
    pg.frames.emplace(n, frame);
    return frame;
}

void
VsmDsm::mapAt(VsmPage &pg, NodeId n, bool writable)
{
    Pte pte;
    pte.frame = frameFor(pg, n);
    pte.mode = PageMode::Private;
    pte.write = writable;
    node::AddressSpace &as = _cluster.node(n).defaultAddressSpace();
    as.map(pg.va, pte);
    _cluster.node(n).mmu().flushPage(as.asid(), pg.va);
    _cluster.node(n).cache().invalidatePage(pte.frame);
}

void
VsmDsm::unmapAt(VsmPage &pg, NodeId n)
{
    Pte pte;
    pte.mode = PageMode::VsmAbsent;
    node::AddressSpace &as = _cluster.node(n).defaultAddressSpace();
    as.map(pg.va, pte);
    _cluster.node(n).mmu().flushPage(as.asid(), pg.va);
}

void
VsmDsm::requestPage(NodeId n, VsmPage &pg)
{
    _pending[n].waitingPage = true;
    hib::Hib &hib = _cluster.hibOf(n);
    // Kernel assembles and sends the request message.
    _cluster.system().events().schedule(
        _cluster.config().osMessage, [this, &hib, va = pg.va,
                                      owner = pg.owner] {
            Packet req;
            req.type = PacketType::PageReq;
            req.dst = owner;
            req.addr = va;
            req.origin = hib.nodeId();
            req.payloadBytes = 16;
            hib.inject(std::move(req), /*track=*/false);
        });
}

bool
VsmDsm::handleFault(NodeId n, VAddr va, bool is_write,
                    std::function<void()> retry,
                    std::function<void(std::string)> kill)
{
    (void)kill;
    VsmPage *pg = pageOf(va);
    if (!pg)
        return false;
    if (_pending.count(n))
        panic("vsm: overlapping faults on node %u", unsigned(n));

    // The (central) manager serializes fault service per page — without
    // this, two concurrent write faults can both "win" exclusivity and
    // the copies diverge for good.  The loser retries (re-faults).
    if (pg->busy) {
        _cluster.system().events().schedule(
            _cluster.config().osPageFault, [retry = std::move(retry)] {
                retry();
            });
        return true;
    }
    pg->busy = true;

    PendingFault pf;
    pf.pageVa = pg->va;
    pf.isWrite = is_write;
    pf.retry = std::move(retry);
    _pending[n] = std::move(pf);

    if (is_write) {
        ++_writeFaults;
        for (NodeId m : pg->holders) {
            if (m == n)
                continue;
            ++_pending[n].waitingAcks;
        }
        if (_pending[n].waitingAcks > 0) {
            ++_invalidations;
            hib::Hib &hib = _cluster.hibOf(n);
            std::vector<NodeId> targets;
            for (NodeId m : pg->holders)
                if (m != n)
                    targets.push_back(m);
            _cluster.system().events().schedule(
                _cluster.config().osMessage,
                [&hib, targets, va = pg->va, n] {
                    for (NodeId m : targets) {
                        Packet inv;
                        inv.type = PacketType::Message;
                        inv.dst = m;
                        inv.addr = va;
                        inv.value = kInval;
                        inv.origin = n;
                        inv.payloadBytes = 16;
                        hib.inject(std::move(inv), /*track=*/false);
                    }
                });
        }
        if (!pg->holders.count(n))
            requestPage(n, *pg);
    } else {
        ++_readFaults;
        requestPage(n, *pg);
    }
    maybeFinish(n);
    return true;
}

void
VsmDsm::maybeFinish(NodeId n)
{
    auto it = _pending.find(n);
    if (it == _pending.end())
        return;
    PendingFault &pf = it->second;
    if (pf.waitingAcks > 0 || pf.waitingPage)
        return;

    VsmPage &pg = _pages[pf.pageVa];
    const bool is_write = pf.isWrite;
    auto retry = std::move(pf.retry);
    _pending.erase(it);

    // Final kernel work: update the page tables.
    _cluster.system().events().schedule(
        _cluster.config().osPageFault, [this, &pg, n, is_write,
                                        retry = std::move(retry)] {
            if (is_write) {
                // Exclusive: everyone else was invalidated.
                pg.owner = n;
                pg.writable = true;
                pg.holders.clear();
                pg.holders.insert(n);
                mapAt(pg, n, true);
            } else {
                // Shared read: demote the writer if there was one.
                if (pg.writable) {
                    pg.writable = false;
                    mapAt(pg, pg.owner, false);
                }
                pg.holders.insert(n);
                mapAt(pg, n, false);
            }
            pg.busy = false;
            retry();
        });
}

bool
VsmDsm::handlePacket(NodeId n, const Packet &pkt)
{
    if (pkt.type == PacketType::PageReq) {
        VsmPage *pg = pageOf(pkt.addr);
        if (!pg)
            return false;
        ++_pageTransfers;
        hib::Hib &hib = _cluster.hibOf(n);
        const std::size_t words = _cluster.config().pageBytes / 8;
        // Kernel service: read out the page and ship it.
        _cluster.system().events().schedule(
            _cluster.config().osMessage,
            [this, &hib, pg, n, words, data = net::replyTo(pkt)]() mutable {
                const NodeId src_node =
                    pg->frames.count(n) ? n : pg->owner;
                const PAddr frame = frameFor(*pg, src_node);
                auto bulk = std::make_shared<std::vector<Word>>();
                bulk->reserve(words);
                node::MainMemory &mem = _cluster.memOf(src_node);
                for (std::size_t w = 0; w < words; ++w)
                    bulk->push_back(
                        mem.read(node::offsetOf(frame) + PAddr(w) * 8));
                data.addr = pg->va;
                data.value = words;
                data.payloadBytes =
                    static_cast<std::uint32_t>(words * 8);
                data.bulk = std::move(bulk);
                hib.inject(std::move(data), /*track=*/false);
            });
        return true;
    }

    if (pkt.type == PacketType::PageData) {
        VsmPage *pg = pageOf(pkt.addr);
        if (!pg)
            return false;
        const PAddr frame = frameFor(*pg, n);
        node::MainMemory &mem = _cluster.memOf(n);
        for (std::size_t w = 0; w < pkt.bulk->size(); ++w)
            mem.write(node::offsetOf(frame) + PAddr(w) * 8, (*pkt.bulk)[w]);
        auto it = _pending.find(n);
        if (it != _pending.end() && it->second.pageVa == pg->va) {
            it->second.waitingPage = false;
            // Receive-side kernel processing before the fault resumes.
            _cluster.system().events().schedule(
                _cluster.config().osMessage,
                [this, n] { maybeFinish(n); });
        }
        return true;
    }

    if (pkt.type == PacketType::Message && pkt.value == kInval) {
        VsmPage *pg = pageOf(pkt.addr);
        if (!pg)
            return false;
        hib::Hib &hib = _cluster.hibOf(n);
        _cluster.system().events().schedule(
            _cluster.config().osInterrupt,
            [this, &hib, pg, n, requester = pkt.origin] {
                unmapAt(*pg, n);
                pg->holders.erase(n);
                Packet ack;
                ack.type = PacketType::Message;
                ack.dst = requester;
                ack.addr = pg->va;
                ack.value = kInvalAck;
                ack.origin = n;
                ack.payloadBytes = 16;
                hib.inject(std::move(ack), /*track=*/false);
            });
        return true;
    }

    if (pkt.type == PacketType::Message && pkt.value == kInvalAck) {
        auto it = _pending.find(n);
        if (it == _pending.end() || it->second.pageVa != pkt.addr)
            return false;
        --it->second.waitingAcks;
        maybeFinish(n);
        return true;
    }

    return false;
}

} // namespace tg::baseline
