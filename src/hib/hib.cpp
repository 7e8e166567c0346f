/**
 * @file
 * Host Interface Board implementation: egress/ingress packet
 * paths, special operations and reply matching.
 */

#include "hib/hib.hpp"

#include <utility>

#include "coherence/directory.hpp"
#include "coherence/protocol.hpp"
#include "node/address.hpp"
#include "sim/invariant.hpp"

namespace tg::hib {

namespace {

/** Fold a packet's end-to-end identity into both digests: its four
 *  words into the schedule digest, the tick and the same words into
 *  the model digest.  (Packet::traceId is deliberately NOT folded: the
 *  lifecycle tracer is pure observability and must not perturb the
 *  determinism contract.) */
void
mixPacket(System &sys, const net::Packet &pkt)
{
    audit::TraceHash &sched = sys.events().trace();
    audit::TraceHash &model = sys.model();
    model.mix(sys.now());
    for (const std::uint64_t w :
         {(std::uint64_t)pkt.type << 32 | (std::uint64_t)pkt.src << 16 |
              pkt.dst,
          std::uint64_t(pkt.addr), std::uint64_t(pkt.value),
          std::uint64_t(pkt.ticket)}) {
        sched.mix(w);
        model.mix(w);
    }
}

/** Remote reads one HIB can have in flight: "In the current version of
 *  Telegraphos there can be no more than one outstanding read
 *  operation" (paper footnote, section 2.3.5). */
constexpr std::uint32_t kMaxOutstandingReads = 1;

} // namespace

using net::LossEffect;
using net::Packet;
using net::PacketType;
using node::kRegOutstanding;
using node::kRegSpecialMode;
using node::kRegSpecialResult;
using node::isShadow;
using node::nodeOf;
using node::offsetOf;
using node::Region;
using node::regionOf;
using node::stripShadow;

Hib::Hib(System &sys, const std::string &name, NodeId node,
         node::MainMemory &storage, node::TurboChannel &tc,
         coherence::Directory &dir)
    : SimObject(sys, name), _node(node), _storage(storage), _tc(tc),
      _dir(dir),
      _egress(sys.arena(), ~std::size_t(0)), // nothing is refused it
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
    _egress.onSpace([this] {
        if (_writeSpaceWaiter)
            waitWriteSpace(std::exchange(_writeSpaceWaiter, nullptr));
    });
    _ingress.onData([this] { pumpIngress(); });
    // Registered unconditionally, although the reliability layer engages
    // only when the fault spec is enabled: every dump carries the same
    // keys, zero in a fault-free run.
    sys.stats().add({_name, "wire_failures"}, &_wireFailures);
    sys.stats().add({_name, "packets_handled"}, &_handled);
}

void
Hib::setAlarmHandler(Fn<void(PAddr, bool)> h)
{
    _alarmHandler = std::move(h);
}

void
Hib::addSoftwareHandler(SoftwareHandler h)
{
    _softwareHandlers.push_back(std::move(h));
}

bool
Hib::toSoftware(const Packet &pkt, bool lost)
{
    for (auto &h : _softwareHandlers) {
        if (h(pkt, lost))
            return true;
    }
    return false;
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
    mixPacket(system(), pkt);
    // Packets not tagged by a CPU-side issue point (coherence, software,
    // HIB-internal traffic) start their lifecycle here.
    if (pkt.traceId == 0)
        pkt.traceId = _sys.tracer().beginOp(net::kindOf(pkt.type).op);
    _sys.tracer().record(pkt.traceId, trace::Span::HibLaunch, now());
    // Writes are latched at TurboChannel speed and drain into the network
    // at link speed ("short batches of write operations may take
    // advantage of Telegraphos queueing", section 3.2).
    _egress.push(std::move(pkt));
}

void
Hib::waitWriteSpace(OnDone ready)
{
    if (_egress.size() <
        config().hibFifoPackets + config().hibBacklogPackets) {
        ready();
        return;
    }
    if (_writeSpaceWaiter)
        panic("%s: second write-space waiter", _name.c_str());
    _writeSpaceWaiter = std::move(ready);
}

std::uint64_t
Hib::expectReply(OnWord cb)
{
    const std::uint64_t ticket = _nextTicket++;
    _pendingReplies.emplace(ticket, std::move(cb));
    return ticket;
}

// ---------------------------------------------------------------------
// TurboChannel interface
// ---------------------------------------------------------------------

void
Hib::store(PAddr pa, Word value, OnDone done, std::uint64_t traceId)
{
    const PAddr offset = offsetOf(pa);
    if (isShadow(pa)) {
        shadowStore(stripShadow(pa), value, std::move(done));
    } else if (regionOf(offset) == Region::HibReg) {
        regWrite(offset, value, std::move(done));
    } else if (_specialOps.specialMode()) {
        // Telegraphos I special mode: a store to shared space passes its
        // address as an argument instead of being performed (2.2.4).
        shadowStore(pa, value, std::move(done));
    } else if (nodeOf(pa) != _node) {
        cpuRemoteWrite(pa, value, std::move(done), traceId);
    } else if (config().prototype == Prototype::TelegraphosI) {
        // This node's shared data lives in HIB SRAM.  The functional
        // apply happens in localSharedWrite so that protocol-managed
        // pages update at the protocol-defined moment.
        schedule(config().hibLatch + config().hibSram,
                 [this, pa, value, done = std::move(done)]() mutable {
                     localSharedWrite(pa, value, std::move(done));
                 });
    } else {
        localSharedWrite(pa, value, std::move(done));
    }
}

void
Hib::load(PAddr pa, OnWord done, std::uint64_t traceId)
{
    const PAddr offset = offsetOf(pa);
    if (regionOf(offset) == Region::HibReg) {
        regRead(offset, std::move(done));
    } else if (nodeOf(pa) != _node) {
        cpuRemoteRead(pa, std::move(done), traceId);
    } else {
        // Telegraphos I: this node's shared data lives in HIB SRAM.
        schedule(config().hibLatch + config().hibSram,
                 [this, offset, done = std::move(done)] {
                     done(_storage.read(offset));
                 });
    }
}

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
    if (latched)
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
    if (done)
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
Hib::shadowStore(PAddr pa, Word store_value, OnDone done)
{
    if (_specialOps.specialMode()) {
        // Telegraphos I: in special mode every store to shared space is an
        // argument-passing command, not a memory operation (section 2.2.4).
        _specialOps.captureAddress(pa);
    } else if (hib::isFlashShadowArg(store_value)) {
        _specialOps.shadowCapturePid(pa, store_value);
    } else {
        _specialOps.shadowCapture(pa, store_value);
    }
    if (done)
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
    coherence::PageEntry *e = _dir.byAddr(local_addr);
    if (e && e->protocol) {
        // The protocol applies the local copy itself (atomically with
        // its counter/forward work, section 2.3.3 rule 1).
        e->protocol->localWrite(_node, *e, local_addr, value,
                                std::move(done));
        return;
    }

    // Unmanaged shared page: plain local apply...
    _storage.write(node::offsetOf(local_addr), value);
    _dir.notifyApply(_node, local_addr, value, _node);

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
        mixPacket(system(), pkt);
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

void
Hib::onWireFailure(const Packet &pkt)
{
    ++_wireFailures;
    // Ledger accounting happens at HIB boundaries only (injected at
    // inject(), delivered at ingress pop): a permanently lost packet is
    // "dropped" once its loss is routed to the victim HIB here.
    system().ledger().onDropped();

    switch (net::kindOf(pkt.type).loss) {
      case LossEffect::None:
        // A software layer waiting for the packet fails the program
        // that waits; the others see the loss through the stats.
        (void)toSoftware(pkt, /*lost=*/true);
        return;

      case LossEffect::Drain:
        // We were charged at injection, or the remote side completed
        // the work but its ack was lost: the ack will never come.
        _outstanding.drainLost();
        return;

      case LossEffect::FailTicket:
        failReply(pkt.ticket);
        return;

      case LossEffect::DrainAndFail:
        _outstanding.drainLost();
        failReply(pkt.ticket);
        return;

      case LossEffect::Collective:
        // The engine synthesizes the lost arrival/release (error flag
        // set) so every member of the collective still completes.
        _collEngine.onWireFailure(pkt);
        return;

      case LossEffect::Protocol:
        break;
    }

    coherence::PageEntry *e = _dir.byHome(_dir.pageOf(pkt.addr));
    if (pkt.type == PacketType::Update) {
        // The origin expected one completion per reflected update (an
        // UpdateAck, or — for its own reflected write — the update
        // itself, which also carries the pending-counter decrement).
        _outstanding.drainLost();
        if (pkt.dst == pkt.origin && _counterCache.enabled())
            _counterCache.decrement(pkt.addr);
    } else if (pkt.type == PacketType::WriteOwner) {
        // The writer charged itself copies-1 completions and bumped its
        // pending-write counter when it sent the value to the owner; the
        // owner will never reflect it.
        _outstanding.drainLost(
            e && e->copies.size() > 1 ? e->copies.size() - 1 : 1);
        if (_counterCache.enabled())
            _counterCache.decrement(pkt.addr);
    } else if (e && e->protocol) {
        // Invalidation round: a lost InvAck is processed here as if it
        // arrived.  The holder of a lost InvReq will never ack, so its
        // ack is synthesized; the not-invalidated stale copy is the
        // visible damage, accounted by the failure counters.
        Packet ack = pkt;
        if (pkt.type == PacketType::InvReq) {
            ack = net::replyTo(pkt);
            ack.src = pkt.dst;
            ack.addr = pkt.addr;
        }
        e->protocol->handlePacket(_node, *e, ack);
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
                 coherence::PageEntry *e = _dir.byAddr(pkt.addr);
                 if (e) {
                     _dir.notifyApply(
                         _node, e->home + (pkt.addr % config().pageBytes),
                         pkt.value, pkt.src);
                     if (e->protocol && e->owner == _node)
                         e->protocol->remoteWriteAtHome(_node, *e, pkt);
                 }
                 Packet ack = net::replyTo(pkt);
                 ack.payloadBytes = 0;
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

                Packet data = net::replyTo(pkt);
                data.addr = pkt.addr;
                data.addr2 = pkt.addr2;
                data.value = words;
                data.payloadBytes = words * 8;
                data.bulk = std::move(bulk);
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
                    Packet reply = net::replyTo(pkt);
                    reply.value = v;
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
        _atomicUnit.request(
            pkt.aop, offsetOf(pkt.addr), pkt.value, pkt.value2,
            [this, reply = net::replyTo(pkt)](Word old) mutable {
                reply.value = old;
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
                     _dir.notifyApply(_node, pkt.addr, pkt.value,
                                      pkt.origin);
                     Packet ack = net::replyTo(pkt);
                     ack.payloadBytes = 0;
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
        coherence::PageEntry *e = _dir.byHome(_dir.pageOf(pkt.addr));
        if (e && e->protocol && e->protocol->handlePacket(_node, *e, pkt)) {
            finished();
            return;
        }
        // Page no longer tracked here: still drain the sender's
        // outstanding counter so fences cannot hang.
        if (pkt.type == PacketType::Update && pkt.origin != _node) {
            Packet ack = net::replyTo(pkt);
            ack.payloadBytes = 0;
            inject(std::move(ack), /*track=*/false);
        } else if (pkt.type == PacketType::InvReq) {
            Packet ack = net::replyTo(pkt);
            ack.addr = pkt.addr;
            ack.payloadBytes = 0;
            inject(std::move(ack), /*track=*/false);
        }
        finished();
        return;
      }

      case PacketType::PageReq:
      case PacketType::PageData:
      case PacketType::Message: {
        if (!toSoftware(pkt, /*lost=*/false))
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
