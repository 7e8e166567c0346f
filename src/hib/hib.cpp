/**
 * @file
 * Host Interface Board implementation: egress/ingress packet
 * paths, special operations and reply matching.
 */

#include "hib/hib.hpp"

#include "coherence/directory.hpp"
#include "coherence/protocol.hpp"
#include "node/address.hpp"
#include "sim/invariant.hpp"

namespace tg::hib {

namespace {

/** Fold a packet's end-to-end identity into the run's trace hash.
 *  (Packet::traceId is deliberately NOT folded: the lifecycle tracer is
 *  pure observability and must not perturb the determinism contract.) */
void
mixPacket(audit::TraceHash &h, const net::Packet &pkt)
{
    h.mix((std::uint64_t)pkt.type << 32 | (std::uint64_t)pkt.src << 16 |
          pkt.dst);
    h.mix(pkt.addr);
    h.mix(pkt.value);
    h.mix(pkt.ticket);
}

/** Remote reads one HIB can have in flight: "In the current version of
 *  Telegraphos there can be no more than one outstanding read
 *  operation" (paper footnote, section 2.3.5). */
constexpr std::uint32_t kMaxOutstandingReads = 1;

/** Lifecycle-tracer op kind for a packet that was injected untagged. */
trace::OpKind
opKindOf(net::PacketType t)
{
    switch (t) {
    case net::PacketType::WriteReq:
    case net::PacketType::WriteAck:
        return trace::OpKind::RemoteWrite;
    case net::PacketType::ReadReq:
    case net::PacketType::ReadReply:
        return trace::OpKind::RemoteRead;
    case net::PacketType::AtomicReq:
    case net::PacketType::AtomicReply:
        return trace::OpKind::RemoteAtomic;
    case net::PacketType::CopyReq:
    case net::PacketType::CopyData:
        return trace::OpKind::RemoteCopy;
    case net::PacketType::EagerWrite:
    case net::PacketType::Update:
    case net::PacketType::UpdateAck:
    case net::PacketType::WriteOwner:
    case net::PacketType::RingUpdate:
    case net::PacketType::InvReq:
    case net::PacketType::InvAck:
        return trace::OpKind::Coherence;
    case net::PacketType::PageReq:
    case net::PacketType::PageData:
    case net::PacketType::Message:
        return trace::OpKind::Software;
    case net::PacketType::CollUp:
        return trace::OpKind::CollReduce;
    case net::PacketType::CollDown:
        return trace::OpKind::CollBcast;
    }
    return trace::OpKind::Other;
}

} // namespace

using net::Packet;
using net::PacketType;
using node::kRegOutstanding;
using node::kRegSpecialMode;
using node::kRegSpecialResult;
using node::nodeOf;
using node::offsetOf;

Hib::Hib(System &sys, const std::string &name, NodeId node,
         node::MainMemory &storage, node::TurboChannel &tc)
    : SimObject(sys, name), _node(node), _storage(storage), _tc(tc),
      _egress(sys.arena(), sys.config().hibFifoPackets),
      _ingress(sys.arena(), sys.config().hibFifoPackets),
      _atomicUnit(sys, name + ".atomic", storage),
      _multicast(sys, name + ".mcast"),
      _pageCounters(sys, name + ".pagectr"),
      _counterCache(sys, name + ".ccache",
                    sys.config().prototype == Prototype::TelegraphosII
                        ? sys.config().counterCacheEntries
                        : 0),
      _specialOps(sys, name + ".special"),
      _outstanding(sys, name + ".outstanding"),
      _collEngine(sys, *this)
{
    _egress.onSpace([this] { pumpEgressBacklog(); });
    _ingress.onData([this] { pumpIngress(); });
    // Registered unconditionally: the reliability layer runs on every
    // link, so the counter must be visible even in fault-free runs.
    sys.stats().add({_name, "wire_failures"}, &_wireFailures);
    sys.stats().add({_name, "packets_handled"}, &_handled);
}

void
Hib::setAlarmHandler(Fn<void(PAddr, bool)> h)
{
    _alarmHandler = std::move(h);
}

void
Hib::addSoftwareHandler(Fn<bool(const net::Packet &)> h)
{
    _softwareHandlers.push_back(std::move(h));
}

// ---------------------------------------------------------------------
// Egress path
// ---------------------------------------------------------------------

void
Hib::inject(Packet &&pkt, bool track)
{
    pkt.src = _node;
    if (track)
        _outstanding.add();
    system().ledger().onInjected();
    mixPacket(system().events().trace(), pkt);
    // Packets not tagged by a CPU-side issue point (coherence, software,
    // HIB-internal traffic) start their lifecycle here.
    if (pkt.traceId == 0)
        pkt.traceId = _sys.tracer().beginOp(opKindOf(pkt.type));
    _sys.tracer().record(pkt.traceId, trace::Span::HibLaunch, now());
    // The backlog models the HIB's internal queueing: writes are latched
    // at TurboChannel speed and drain into the network at link speed
    // ("short batches of write operations may take advantage of
    // Telegraphos queueing", section 3.2).
    if (_egressBacklog.empty() && !_egress.full()) {
        _egress.push(std::move(pkt));
    } else {
        _egressBacklog.push(std::move(pkt));
    }
}

void
Hib::pumpEgressBacklog()
{
    // Pop before pushing: the push can re-enter this function through the
    // queue's listener chain (egress onData -> channel pump -> onSpace).
    while (!_egressBacklog.empty() && !_egress.full())
        _egress.push(_egressBacklog.pop());
    while (!_writeSpaceWaiters.empty() &&
           _egressBacklog.size() < config().hibBacklogPackets) {
        OnDone ready = _writeSpaceWaiters.pop();
        ready();
    }
}

void
Hib::waitWriteSpace(OnDone ready)
{
    if (_egressBacklog.size() < config().hibBacklogPackets &&
        _writeSpaceWaiters.empty()) {
        ready();
        return;
    }
    _writeSpaceWaiters.push(std::move(ready));
}

std::uint64_t
Hib::expectReply(OnWord cb)
{
    const std::uint64_t ticket = _nextTicket++;
    _pendingReplies.emplace(ticket, std::move(cb));
    return ticket;
}

// ---------------------------------------------------------------------
// CPU-side operations
// ---------------------------------------------------------------------

void
Hib::cpuRemoteWrite(PAddr pa, Word value, OnDone latched,
                    std::uint64_t traceId)
{
    Packet pkt;
    pkt.type = PacketType::WriteReq;
    pkt.dst = nodeOf(pa);
    pkt.addr = pa;
    pkt.value = value;
    pkt.origin = _node;
    pkt.traceId = traceId;
    inject(std::move(pkt), /*track=*/true);
    // "Write requests do not stall the processor and release the
    // TurboChannel as soon as the write request is latched by the HIB."
    schedule(config().hibLatch, std::move(latched));
}

void
Hib::cpuRemoteRead(PAddr pa, OnWord done, std::uint64_t traceId)
{
    // The blocking CPU enforces the one-read limit naturally; the check
    // documents the hardware invariant.
    if (_readsInFlight >= kMaxOutstandingReads)
        panic("%s: %u remote reads in flight (limit %u)", _name.c_str(),
              _readsInFlight + 1, kMaxOutstandingReads);
    ++_readsInFlight;

    Packet pkt;
    pkt.type = PacketType::ReadReq;
    pkt.dst = nodeOf(pa);
    pkt.addr = pa;
    pkt.origin = _node;
    pkt.traceId = traceId;
    pkt.ticket = expectReply([this, done = std::move(done),
                              traceId](Word v) mutable {
        --_readsInFlight;
        // Deliver the reply to the stalled processor over the TC.
        _tc.transact(config().tcWriteTxn(2),
                     [done = std::move(done), v] { done(v); }, traceId);
    });
    schedule(config().hibLatch,
             [this, pkt = std::move(pkt)]() mutable {
                 inject(std::move(pkt), /*track=*/false);
             });
}

void
Hib::cpuLocalShmWrite(PAddr offset, Word value, OnDone done)
{
    // Timing only: the functional apply happens in localSharedWrite so
    // that protocol-managed pages update at the protocol-defined moment.
    (void)offset;
    (void)value;
    schedule(config().hibLatch + config().hibSram, std::move(done));
}

void
Hib::cpuLocalShmRead(PAddr offset, OnWord done)
{
    schedule(config().hibLatch + config().hibSram,
             [this, offset, done = std::move(done)] {
                 done(_storage.read(offset));
             });
}

void
Hib::regWrite(PAddr offset, Word value, OnDone done)
{
    if (offset == kRegSpecialMode) {
        _specialOps.setSpecialMode(value != 0);
    } else if (_specialOps.specialRegWrite(offset, value)) {
        // Telegraphos I special op/datum register.
    } else if (_specialOps.ctxWrite(offset, value)) {
        // Telegraphos II context field.
    } else {
        warn("%s: write to unknown HIB register %llx", _name.c_str(),
             (unsigned long long)offset);
    }
    schedule(config().hibLatch, std::move(done));
}

void
Hib::regRead(PAddr offset, OnWord done)
{
    if (offset == kRegOutstanding) {
        schedule(config().hibLatch,
                 [this, done = std::move(done)] {
                     done(_outstanding.current());
                 });
        return;
    }
    if (offset == kRegSpecialResult) {
        // Telegraphos I: reading the result register launches the
        // assembled special operation and blocks until its result.
        const LaunchArgs args = _specialOps.specialArgs();
        schedule(config().hibLatch,
                 [this, args, done = std::move(done)]() mutable {
                     launch(args, std::move(done));
                 });
        return;
    }
    std::uint32_t ctx;
    if (_specialOps.isGo(offset, ctx)) {
        const LaunchArgs args = _specialOps.args(ctx);
        _specialOps.consume(ctx);
        schedule(config().hibLatch,
                 [this, args, done = std::move(done)]() mutable {
                     launch(args, std::move(done));
                 });
        return;
    }
    if (_specialOps.isCollGo(offset, ctx)) {
        // Arm the NIC collective state machine; the read stalls (the TC
        // itself is already released, exactly like kRegSpecialResult)
        // until the collective completes locally.
        const CollArgs cargs = _specialOps.collArgs(ctx);
        schedule(config().hibLatch,
                 [this, ctx, cargs, done = std::move(done)]() mutable {
                     _collEngine.issue(ctx, cargs, std::move(done));
                 });
        return;
    }
    warn("%s: read of unknown HIB register %llx", _name.c_str(),
         (unsigned long long)offset);
    schedule(config().hibLatch, [done = std::move(done)] { done(0); });
}

void
Hib::shadowStore(PAddr stripped_pa, Word store_value, OnDone done)
{
    if (_specialOps.specialMode()) {
        // Telegraphos I: in special mode every store to shared space is an
        // argument-passing command, not a memory operation (section 2.2.4).
        _specialOps.captureAddress(stripped_pa);
    } else if (hib::isFlashShadowArg(store_value)) {
        _specialOps.shadowCapturePid(stripped_pa, store_value);
    } else {
        _specialOps.shadowCapture(stripped_pa, store_value);
    }
    schedule(config().hibLatch, std::move(done));
}

void
Hib::countRemoteAccess(PAddr page_frame, bool is_write)
{
    if (_pageCounters.onAccess(page_frame, is_write) && _alarmHandler) {
        // Alarm: raise an interrupt to the operating system (2.2.6).
        schedule(config().osInterrupt,
                 [this, page_frame, is_write] {
                     _alarmHandler(page_frame, is_write);
                 });
    }
}

void
Hib::fence(OnDone done, std::uint64_t traceId)
{
    _outstanding.waitDrain(std::move(done), traceId);
}

// ---------------------------------------------------------------------
// Shared-page write propagation
// ---------------------------------------------------------------------

void
Hib::localSharedWrite(PAddr local_addr, Word value, OnDone done)
{
    if (_dir) {
        coherence::PageEntry *e = _dir->byAddr(local_addr);
        if (e && e->protocol) {
            // The protocol applies the local copy itself (atomically
            // with its counter/forward work, section 2.3.3 rule 1).
            e->protocol->localWrite(_node, *e, local_addr, value,
                                    std::move(done));
            return;
        }
    }

    // Unmanaged shared page: plain local apply...
    _storage.write(node::offsetOf(local_addr), value);
    if (_dir)
        _dir->notifyApply(_node, local_addr, value, _node);

    // ...plus raw eager multicast (message-passing use, section 2.2.7).
    const PAddr page = local_addr - (local_addr % config().pageBytes);
    const PAddr off = local_addr % config().pageBytes;
    if (const auto *dests = _multicast.lookup(page)) {
        for (const auto &d : *dests) {
            Packet pkt;
            pkt.type = PacketType::EagerWrite;
            pkt.dst = d.node;
            pkt.addr = d.pageFrame + off;
            pkt.value = value;
            pkt.origin = _node;
            inject(std::move(pkt), /*track=*/true);
        }
    }
    done();
}

// ---------------------------------------------------------------------
// Special operations
// ---------------------------------------------------------------------

void
Hib::launch(const LaunchArgs &args, OnWord result)
{
    if (args.op == SpecialOp::Copy) {
        if (!args.srcValid || !args.dstValid) {
            warn("%s: copy launch with incomplete addresses", _name.c_str());
            result(0);
            return;
        }
        // Non-blocking: control returns immediately (section 2.2.2).
        startCopy(args.srcPa, args.dstPa,
                  static_cast<std::uint32_t>(args.datum), nullptr);
        result(0);
        return;
    }

    if (!args.srcValid) {
        warn("%s: atomic launch with no target address", _name.c_str());
        result(0);
        return;
    }

    net::AtomicOp aop;
    switch (args.op) {
      case SpecialOp::FetchStore: aop = net::AtomicOp::FetchAndStore; break;
      case SpecialOp::FetchInc: aop = net::AtomicOp::FetchAndInc; break;
      case SpecialOp::Cas: aop = net::AtomicOp::CompareAndSwap; break;
      default:
        warn("%s: launch of unknown special op", _name.c_str());
        result(0);
        return;
    }

    if (nodeOf(args.srcPa) == _node) {
        _atomicUnit.request(aop, offsetOf(args.srcPa), args.datum,
                            args.datum2, std::move(result));
        return;
    }

    Packet pkt;
    pkt.type = PacketType::AtomicReq;
    pkt.dst = nodeOf(args.srcPa);
    pkt.addr = args.srcPa;
    pkt.value = args.datum;
    pkt.value2 = args.datum2;
    pkt.aop = aop;
    pkt.origin = _node;
    pkt.payloadBytes = 24;
    pkt.ticket = expectReply(std::move(result));
    inject(std::move(pkt), /*track=*/false);
}

void
Hib::startCopy(PAddr src_pa, PAddr dst_pa, std::uint32_t bytes, OnDone done)
{
    const std::uint32_t words = (bytes + 7) / 8;
    if (nodeOf(dst_pa) != _node)
        panic("%s: copy destination %llx is not local", _name.c_str(),
              (unsigned long long)dst_pa);

    if (nodeOf(src_pa) == _node) {
        // Purely local copy: HIB DMA within the node.
        _storage.copy(offsetOf(dst_pa), _storage, offsetOf(src_pa), words);
        const Tick cost = config().hibSram + config().tcWriteTxn(words * 2);
        if (done)
            schedule(cost, std::move(done));
        return;
    }

    Packet pkt;
    pkt.type = PacketType::CopyReq;
    pkt.dst = nodeOf(src_pa);
    pkt.addr = src_pa;
    pkt.addr2 = dst_pa;
    pkt.value = words;
    pkt.origin = _node;
    pkt.payloadBytes = 24;
    pkt.ticket = _nextTicket++;
    if (done)
        _pendingReplies.emplace(
            pkt.ticket, [done = std::move(done)](Word) { done(); });
    _outstanding.add();
    inject(std::move(pkt), /*track=*/false);
}

// ---------------------------------------------------------------------
// Ingress path
// ---------------------------------------------------------------------

void
Hib::pumpIngress()
{
    if (_ingressBusy || _ingress.empty())
        return;
    _ingressBusy = true;
    schedule(config().hibService, [this] {
        Packet pkt = _ingress.pop();
        ++_handled;
        system().ledger().onDelivered();
        mixPacket(system().events().trace(), pkt);
        _sys.tracer().record(pkt.traceId, trace::Span::HibHandle, now());
        handlePacket(std::move(pkt), [this] {
            _ingressBusy = false;
            pumpIngress();
        });
    });
}

void
Hib::writeShm(PAddr offset, Word value, OnDone done, std::uint64_t traceId)
{
    _storage.write(offset, value);
    if (config().prototype == Prototype::TelegraphosI) {
        // Shared data lives in HIB SRAM: no TurboChannel involvement.
        schedule(config().hibSram, std::move(done));
    } else {
        // Shared data lives in main memory: DMA over the TurboChannel.
        _tc.transact(config().tcWriteTxn(2), std::move(done), traceId);
    }
}

void
Hib::readShm(PAddr offset, OnWord done, std::uint64_t traceId)
{
    auto fetch = [this, offset, done = std::move(done)] {
        done(_storage.read(offset));
    };
    if (config().prototype == Prototype::TelegraphosI)
        schedule(config().hibSram, std::move(fetch));
    else
        _tc.transact(config().tcWriteTxn(2), std::move(fetch), traceId);
}

Hib::OnWord
Hib::takeReply(std::uint64_t ticket)
{
    auto it = _pendingReplies.find(ticket);
    if (it == _pendingReplies.end())
        return {};
    OnWord cb = std::move(it->second);
    _pendingReplies.erase(it);
    return cb;
}

void
Hib::deliverReply(const Packet &pkt)
{
    OnWord cb = takeReply(pkt.ticket);
    if (!cb) {
        warn("%s: reply with unknown ticket %llu", _name.c_str(),
             (unsigned long long)pkt.ticket);
        return;
    }
    _sys.tracer().record(pkt.traceId, trace::Span::Completion, now());
    cb(pkt.value);
}

void
Hib::failReply(std::uint64_t ticket)
{
    // The operation's result is gone; deliver 0 so the blocked CPU
    // unblocks.  The error itself is visible through the wire-failure
    // count, which the operation's Result compares across its wait.
    if (OnWord cb = takeReply(ticket))
        cb(0);
}

NodeId
victimOf(const Packet &pkt)
{
    switch (pkt.type) {
      case PacketType::WriteAck:
      case PacketType::UpdateAck:
      case PacketType::ReadReply:
      case PacketType::AtomicReply:
      case PacketType::CopyData:
      case PacketType::InvAck:
      case PacketType::PageData:
      // Collective tree traffic: the receiving NIC synthesizes the lost
      // arrival/release so every member still completes (coll_engine).
      case PacketType::CollUp:
      case PacketType::CollDown:
        return pkt.dst;
      case PacketType::Update:
      case PacketType::RingUpdate:
      case PacketType::WriteOwner:
        return pkt.origin;
      default:
        return pkt.src;
    }
}

void
Hib::onWireFailure(const Packet &pkt)
{
    ++_wireFailures;
    // Ledger accounting happens at HIB boundaries only (injected at
    // inject(), delivered at ingress pop): a permanently lost packet is
    // "dropped" once its loss is routed to the victim HIB here.
    system().ledger().onDropped();
    warn("%s: wire failure victim of lost %s", _name.c_str(),
         pkt.toString().c_str());

    switch (pkt.type) {
      case PacketType::WriteReq:
      case PacketType::EagerWrite:
        // We were charged at injection; the ack will never come.
        _outstanding.drainLost();
        return;

      case PacketType::WriteAck:
      case PacketType::UpdateAck:
        // The remote side completed the work but the ack was lost.
        _outstanding.drainLost();
        return;

      case PacketType::ReadReq:
      case PacketType::ReadReply:
      case PacketType::AtomicReq:
      case PacketType::AtomicReply:
        failReply(pkt.ticket);
        return;

      case PacketType::CopyReq:
      case PacketType::CopyData:
        _outstanding.drainLost();
        failReply(pkt.ticket);
        return;

      case PacketType::Update:
        // The origin expected one completion per reflected update (an
        // UpdateAck, or — for its own reflected write — the update
        // itself, which also carries the pending-counter decrement).
        _outstanding.drainLost();
        if (pkt.dst == pkt.origin && _counterCache.enabled())
            _counterCache.decrement(pkt.addr);
        return;

      case PacketType::WriteOwner: {
        // The writer charged itself copies-1 completions and bumped its
        // pending-write counter when it sent the value to the owner; the
        // owner will never reflect it.
        std::uint64_t expect = 1;
        if (_dir) {
            if (const auto *e = _dir->byHome(_dir->pageOf(pkt.addr));
                e && e->copies.size() > 1)
                expect = e->copies.size() - 1;
        }
        _outstanding.drainLost(expect);
        if (_counterCache.enabled())
            _counterCache.decrement(pkt.addr);
        return;
      }

      case PacketType::RingUpdate:
        // Our update will never complete the loop around the ring.
        _outstanding.drainLost();
        return;

      case PacketType::InvReq: {
        // The holder will never ack.  Synthesize the ack so the pending
        // invalidation round completes; the not-invalidated stale copy
        // is the visible damage, accounted by the failure counters.
        if (_dir) {
            if (auto *e = _dir->byHome(_dir->pageOf(pkt.addr));
                e && e->protocol) {
                Packet ack;
                ack.type = PacketType::InvAck;
                ack.dst = _node;
                ack.src = pkt.dst;
                ack.addr = pkt.addr;
                e->protocol->handlePacket(_node, ack);
            }
        }
        return;
      }

      case PacketType::InvAck:
        // The ack itself was lost: process it here as if it arrived.
        if (_dir) {
            if (auto *e = _dir->byHome(_dir->pageOf(pkt.addr));
                e && e->protocol)
                e->protocol->handlePacket(_node, pkt);
        }
        return;

      case PacketType::PageReq:
      case PacketType::PageData:
      case PacketType::Message:
        // Software-layer traffic: no hardware counters to restore; the
        // software layers see the failure through the stats.
        return;

      case PacketType::CollUp:
      case PacketType::CollDown:
        // The engine synthesizes the lost arrival/release (error flag
        // set) so every member of the collective still completes.
        _collEngine.onWireFailure(pkt);
        return;
    }
}

void
Hib::handleWriteReq(Packet &&pkt, OnDone finished)
{
    const PAddr offset = offsetOf(pkt.addr);
    const std::uint64_t traceId = pkt.traceId;
    writeShm(offset, pkt.value,
             [this, pkt = std::move(pkt),
              finished = std::move(finished)]() mutable {
                 coherence::PageEntry *e =
                     _dir ? _dir->byAddr(pkt.addr) : nullptr;
                 if (e) {
                     _dir->notifyApply(
                         _node, e->home + (pkt.addr % _dir->pageBytes()),
                         pkt.value, pkt.src);
                     if (e->protocol && e->owner == _node)
                         e->protocol->remoteWriteAtHome(_node, *e, pkt);
                 }
                 Packet ack;
                 ack.type = PacketType::WriteAck;
                 ack.dst = pkt.src;
                 ack.ticket = pkt.ticket;
                 ack.payloadBytes = 0;
                 ack.traceId = pkt.traceId;
                 inject(std::move(ack), /*track=*/false);
                 finished();
             },
             traceId);
}

void
Hib::handleCopyReq(Packet &&pkt, OnDone finished)
{
    const std::uint32_t words = static_cast<std::uint32_t>(pkt.value);
    const PAddr offset = offsetOf(pkt.addr);
    const std::uint64_t traceId = pkt.traceId;
    // One SRAM/DRAM burst read; wire serialization is charged by the
    // links through payloadBytes.
    readShm(offset,
            [this, pkt = std::move(pkt), words, offset,
             finished = std::move(finished)](Word) mutable {
                auto bulk = std::make_shared<std::vector<Word>>();
                bulk->reserve(words);
                for (std::uint32_t w = 0; w < words; ++w)
                    bulk->push_back(_storage.read(offset + PAddr(w) * 8));

                Packet data;
                data.type = PacketType::CopyData;
                data.dst = pkt.src;
                data.addr = pkt.addr;
                data.addr2 = pkt.addr2;
                data.value = words;
                data.ticket = pkt.ticket;
                data.payloadBytes = words * 8;
                data.bulk = std::move(bulk);
                data.traceId = pkt.traceId;
                inject(std::move(data), /*track=*/false);
                finished();
            },
            traceId);
}

void
Hib::handleCopyData(Packet &&pkt, OnDone finished)
{
    const std::uint32_t words = static_cast<std::uint32_t>(pkt.value);
    const PAddr offset = offsetOf(pkt.addr2);
    if (!pkt.bulk || pkt.bulk->size() != words)
        panic("%s: malformed CopyData", _name.c_str());
    for (std::uint32_t w = 0; w < words; ++w)
        _storage.write(offset + PAddr(w) * 8, (*pkt.bulk)[w]);

    // DMA cost of writing the block into local memory.
    const Tick cost = config().prototype == Prototype::TelegraphosI
                          ? config().hibSram
                          : config().tcWriteTxn(words * 2);
    const std::uint64_t ticket = pkt.ticket;
    const std::uint64_t traceId = pkt.traceId;
    schedule(cost, [this, ticket, traceId,
                    finished = std::move(finished)] {
        _sys.tracer().record(traceId, trace::Span::Completion, now());
        _outstanding.complete();
        if (OnWord cb = takeReply(ticket))
            cb(0);
        finished();
    });
}

void
Hib::handlePacket(Packet &&pkt, OnDone finished)
{
    switch (pkt.type) {
      case PacketType::WriteReq:
        handleWriteReq(std::move(pkt), std::move(finished));
        return;

      case PacketType::WriteAck:
      case PacketType::UpdateAck:
        // The ack closes the originating write's lifecycle.
        _sys.tracer().record(pkt.traceId, trace::Span::Completion, now());
        _outstanding.complete();
        finished();
        return;

      case PacketType::ReadReq: {
        const PAddr offset = offsetOf(pkt.addr);
        const std::uint64_t traceId = pkt.traceId;
        readShm(offset,
                [this, pkt = std::move(pkt),
                 finished = std::move(finished)](Word v) mutable {
                    Packet reply;
                    reply.type = PacketType::ReadReply;
                    reply.dst = pkt.src;
                    reply.value = v;
                    reply.ticket = pkt.ticket;
                    reply.traceId = pkt.traceId;
                    inject(std::move(reply), /*track=*/false);
                    finished();
                },
                traceId);
        return;
      }

      case PacketType::ReadReply:
      case PacketType::AtomicReply:
        deliverReply(pkt);
        finished();
        return;

      case PacketType::AtomicReq: {
        // Handed to the atomic unit; the ingress pipeline moves on.
        Packet p = std::move(pkt);
        _atomicUnit.request(
            p.aop, offsetOf(p.addr), p.value, p.value2,
            [this, src = p.src, ticket = p.ticket,
             traceId = p.traceId](Word old) {
                Packet reply;
                reply.type = PacketType::AtomicReply;
                reply.dst = src;
                reply.value = old;
                reply.ticket = ticket;
                reply.traceId = traceId;
                inject(std::move(reply), /*track=*/false);
            });
        finished();
        return;
      }

      case PacketType::CopyReq:
        handleCopyReq(std::move(pkt), std::move(finished));
        return;

      case PacketType::CopyData:
        handleCopyData(std::move(pkt), std::move(finished));
        return;

      case PacketType::EagerWrite: {
        const PAddr offset = offsetOf(pkt.addr);
        const std::uint64_t traceId = pkt.traceId;
        writeShm(offset, pkt.value,
                 [this, pkt = std::move(pkt),
                  finished = std::move(finished)]() mutable {
                     if (_dir)
                         _dir->notifyApply(_node, pkt.addr, pkt.value,
                                           pkt.origin);
                     Packet ack;
                     ack.type = PacketType::UpdateAck;
                     ack.dst = pkt.origin;
                     ack.payloadBytes = 0;
                     ack.traceId = pkt.traceId;
                     inject(std::move(ack), /*track=*/false);
                     finished();
                 },
                 traceId);
        return;
      }

      case PacketType::Update:
      case PacketType::WriteOwner:
      case PacketType::RingUpdate:
      case PacketType::InvReq:
      case PacketType::InvAck: {
        coherence::PageEntry *e =
            _dir ? _dir->byHome(_dir->pageOf(pkt.addr)) : nullptr;
        if (e && e->protocol && e->protocol->handlePacket(_node, pkt)) {
            finished();
            return;
        }
        // Page no longer tracked here: still drain the sender's
        // outstanding counter so fences cannot hang.
        if (pkt.type == PacketType::Update && pkt.origin != _node) {
            Packet ack;
            ack.type = PacketType::UpdateAck;
            ack.dst = pkt.origin;
            ack.payloadBytes = 0;
            ack.traceId = pkt.traceId;
            inject(std::move(ack), /*track=*/false);
        } else if (pkt.type == PacketType::InvReq) {
            Packet ack;
            ack.type = PacketType::InvAck;
            ack.dst = pkt.src;
            ack.addr = pkt.addr;
            ack.payloadBytes = 0;
            ack.traceId = pkt.traceId;
            inject(std::move(ack), /*track=*/false);
        }
        finished();
        return;
      }

      case PacketType::PageReq:
      case PacketType::PageData:
      case PacketType::Message: {
        bool consumed = false;
        for (auto &h : _softwareHandlers) {
            if (h(pkt)) {
                consumed = true;
                break;
            }
        }
        if (!consumed)
            warn("%s: unhandled software packet %s", _name.c_str(),
                 pkt.toString().c_str());
        finished();
        return;
      }

      case PacketType::CollUp:
      case PacketType::CollDown:
        _collEngine.handlePacket(std::move(pkt), std::move(finished));
        return;
    }
    panic("%s: unhandled packet type", _name.c_str());
}

} // namespace tg::hib
