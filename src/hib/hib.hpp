/**
 * @file
 * The Telegraphos Host Interface Board (HIB), paper section 2.2.
 *
 * The HIB plugs into the TurboChannel and implements, entirely in
 * hardware (i.e. without OS intervention on the fast path):
 *
 *  - non-blocking remote writes and blocking remote reads (2.2.1)
 *  - non-blocking remote copy / prefetch (2.2.2)
 *  - remote atomic operations (2.2.3) launched via special-operation
 *    sequences (2.2.4): Telegraphos I special mode + PAL, or
 *    Telegraphos II contexts + keys + shadow addressing
 *  - page access counters and alarms (2.2.6)
 *  - outstanding-operation counters and the FENCE (2.2, 2.3.5)
 *  - the eager-update multicast mechanism (2.2.7)
 *  - the pending-write counter cache of the owner-based coherence
 *    protocol (2.3.3 / 2.3.4)
 *
 * Structure mirrors Table 1 of the paper: TurboChannel interface,
 * incoming/outgoing link interfaces (the bounded FIFOs exposed as the
 * network endpoint), atomic-operation unit, multicast unit, page access
 * counters, plus central control (this class).
 */

#ifndef TELEGRAPHOS_HIB_HIB_HPP
#define TELEGRAPHOS_HIB_HIB_HPP

#include <deque>
#include <memory>
#include <map>

#include "hib/atomic_unit.hpp"
#include "hib/coll_engine.hpp"
#include "hib/counter_cache.hpp"
#include "hib/multicast_unit.hpp"
#include "hib/outstanding.hpp"
#include "hib/page_counters.hpp"
#include "hib/special_ops.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "node/main_memory.hpp"
#include "node/turbochannel.hpp"

namespace tg::coherence {
class Directory;
}

namespace tg::hib {

/** The network interface board of one workstation. */
class Hib : public SimObject, public net::NodeEndpoint
{
  public:
    using OnDone = Fn<void()>;
    using OnWord = Fn<void(Word)>;

    Hib(System &sys, const std::string &name, NodeId node,
        node::MainMemory &storage, node::TurboChannel &tc);

    NodeId nodeId() const { return _node; }

    // ------------------------------------------------------------------
    // Wiring (done once by the Workstation / Cluster)
    // ------------------------------------------------------------------

    void setDirectory(coherence::Directory *dir) { _dir = dir; }

    /** OS hook for page-counter alarms: (page frame, was_write). */
    void setAlarmHandler(Fn<void(PAddr, bool)> h);

    /** Add a software (VSM / sockets) packet handler; handlers are tried
     *  in registration order until one returns true. */
    void addSoftwareHandler(Fn<bool(const net::Packet &)> h);

    // ------------------------------------------------------------------
    // net::NodeEndpoint: the link interfaces of Table 1
    // ------------------------------------------------------------------

    net::BoundedQueue &egress() override { return _egress; }
    net::BoundedQueue &ingress() override { return _ingress; }

    // ------------------------------------------------------------------
    // CPU-side entry points (the Cpu calls these after winning the
    // TurboChannel for the programmed-I/O transaction)
    // ------------------------------------------------------------------

    /** Remote write: released as soon as the HIB latches it (2.2.1).
     *  @p traceId tags the packet for the lifecycle tracer (0 = none). */
    void cpuRemoteWrite(PAddr pa, Word value, OnDone latched,
                        std::uint64_t traceId = 0);

    /**
     * Back-pressure towards the processor: @p ready fires once the HIB
     * can latch another write (its internal queue is below the limit).
     * The CPU's write-buffer drain engine consults this before starting
     * the TurboChannel transaction.
     */
    void waitWriteSpace(OnDone ready);

    /** Remote read: @p done fires when the reply reaches the CPU.
     *  @p traceId tags request + reply for the lifecycle tracer. */
    void cpuRemoteRead(PAddr pa, OnWord done, std::uint64_t traceId = 0);

    /** Telegraphos I local shared-memory access (HIB SRAM via the TC). */
    void cpuLocalShmWrite(PAddr offset, Word value, OnDone done);
    void cpuLocalShmRead(PAddr offset, OnWord done);

    /** HIB register access (special mode, contexts, counters, GO). */
    void regWrite(PAddr offset, Word value, OnDone done);
    void regRead(PAddr offset, OnWord done);

    /** Store seen through shadow space: capture a physical address. */
    void shadowStore(PAddr stripped_pa, Word store_value, OnDone done);

    // ------------------------------------------------------------------
    // Shared-page hooks (invoked by the Cpu model)
    // ------------------------------------------------------------------

    /**
     * The CPU stored @p value at @p local_addr (already applied to the
     * local copy).  Routes to the page's coherence protocol or to the raw
     * eager-multicast table; @p done releases the processor.
     */
    void localSharedWrite(PAddr local_addr, Word value, OnDone done);

    /** Account one remote access against the page counters (2.2.6). */
    void countRemoteAccess(PAddr page_frame, bool is_write);

    /** FENCE / MEMORY_BARRIER: @p done once all outstanding ops drain.
     *  @p traceId tags the fence for the lifecycle tracer. */
    void fence(OnDone done, std::uint64_t traceId = 0);

    // ------------------------------------------------------------------
    // Special operations
    // ------------------------------------------------------------------

    /**
     * Execute assembled launch arguments (shared by the Telegraphos I
     * special-mode path, the Telegraphos II GO register, and the OS-trap
     * baseline).  @p result receives the old value for atomics,
     * immediately 0 for (non-blocking) copies.
     */
    void launch(const LaunchArgs &args, OnWord result);

    /**
     * Non-blocking bulk copy of @p bytes from global @p src_pa to global
     * @p dst_pa (dst must be local).  @p done (may be empty) fires when
     * the data has been written locally; the outstanding counter tracks
     * it for fences either way.
     */
    void startCopy(PAddr src_pa, PAddr dst_pa, std::uint32_t bytes,
                   OnDone done);

    // ------------------------------------------------------------------
    // Unit access (driver-level API and tests)
    // ------------------------------------------------------------------

    PageCounters &pageCounters() { return _pageCounters; }
    MulticastUnit &multicast() { return _multicast; }
    CounterCache &counterCache() { return _counterCache; }
    AtomicUnit &atomicUnit() { return _atomicUnit; }
    SpecialOpsUnit &specialOps() { return _specialOps; }
    Outstanding &outstanding() { return _outstanding; }
    CollEngine &collectives() { return _collEngine; }
    node::MainMemory &storage() { return _storage; }

    /**
     * Inject a packet into the outgoing link FIFO (central control +
     * protocols use this).  @p track adds it to the outstanding counter
     * (one completion expected later, via ack or reflected update).
     */
    void inject(net::Packet &&pkt, bool track);

    /** Allocate a reply-matching ticket and register its callback. */
    std::uint64_t expectReply(OnWord cb);

    /** Next per-origin sequence number (coherence packet ordering). */
    std::uint64_t nextSeq() { return _nextSeq++; }

    std::uint64_t packetsHandled() const { return _handled; }

    // ------------------------------------------------------------------
    // Checkpointing (DESIGN.md section 14.5)
    // ------------------------------------------------------------------

    /** Upcoming ticket / sequence values without consuming them. */
    std::uint64_t peekTicket() const { return _nextTicket; }
    std::uint64_t peekSeq() const { return _nextSeq; }

    /** Restore ticket/seq/handled counters captured at quiescence (no
     *  pending replies or copies may exist). */
    void
    restoreCounters(std::uint64_t next_ticket, std::uint64_t next_seq,
                    std::uint64_t handled)
    {
        TG_AUDIT(_pendingReplies.empty() && _copyDone.empty(),
                 "%s: counter restore with pending operations",
                 _name.c_str());
        _nextTicket = next_ticket;
        _nextSeq = next_seq;
        _handled = handled;
    }

    // ------------------------------------------------------------------
    // Failure path (link-level reliability gave up on a packet)
    // ------------------------------------------------------------------

    /**
     * The network permanently failed to deliver @p pkt and this node is
     * the victim of the loss (sender awaiting an ack, reader awaiting a
     * reply, ...).  Restores the conservation invariant: every expected
     * completion the lost packet represented is drained or failed, so
     * fences still drain and blocked CPUs still unblock — with a visible
     * error instead of silently wrong data.
     */
    void onWireFailure(const net::Packet &pkt);

    /** Remote operations this node lost to wire failures. */
    std::uint64_t wireFailures() const { return _wireFailures; }

  private:
    void pumpEgressBacklog();
    void pumpIngress();

    /** Dispatch one packet; @p finished is called when the (serialized)
     *  servicing of this packet is over. */
    void handlePacket(net::Packet &&pkt, OnDone finished);

    /** Local shared-memory write/read with prototype-dependent cost.
     *  @p traceId propagates the lifecycle op into the DMA bus grant. */
    void writeShm(PAddr offset, Word value, OnDone done,
                  std::uint64_t traceId = 0);
    void readShm(PAddr offset, OnWord done, std::uint64_t traceId = 0);

    void handleWriteReq(net::Packet &&pkt, OnDone finished);
    void handleCopyReq(net::Packet &&pkt, OnDone finished);
    void handleCopyData(net::Packet &&pkt, OnDone finished);
    void deliverReply(const net::Packet &pkt);

    /** Fail a pending reply ticket: its callback fires with 0 after the
     *  error has been counted.  No-op if the ticket is unknown. */
    void failReply(std::uint64_t ticket);

    /** Fail a pending copy-completion ticket (fires its done callback so
     *  waiters unblock).  No-op if the ticket is unknown. */
    void copyFailed(std::uint64_t ticket);

    NodeId _node;
    node::MainMemory &_storage;
    node::TurboChannel &_tc;

    net::BoundedQueue _egress;
    net::BoundedQueue _ingress;
    std::deque<net::Packet> _egressBacklog;
    std::deque<OnDone> _writeSpaceWaiters;
    bool _ingressBusy = false;

    AtomicUnit _atomicUnit;
    MulticastUnit _multicast;
    PageCounters _pageCounters;
    CounterCache _counterCache;
    SpecialOpsUnit _specialOps;
    Outstanding _outstanding;
    CollEngine _collEngine;

    coherence::Directory *_dir = nullptr;
    Fn<void(PAddr, bool)> _alarmHandler;
    std::vector<Fn<bool(const net::Packet &)>> _softwareHandlers;

    // Ordered maps by contract: hib is an order-sensitive namespace
    // (DESIGN.md section 7) and iteration must be deterministic.
    std::map<std::uint64_t, OnWord> _pendingReplies;
    std::map<std::uint64_t, OnDone> _copyDone;
    std::uint64_t _nextTicket = 1;
    std::uint64_t _nextSeq = 1;
    std::uint64_t _handled = 0;
    std::uint32_t _readsInFlight = 0;
    std::uint64_t _wireFailures = 0;
    std::uint16_t _traceComp = 0;
};

} // namespace tg::hib

#endif // TELEGRAPHOS_HIB_HIB_HPP
