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
 * counters, plus central control (this class).  The TurboChannel
 * interface is store() and load(): the CPU issues an uncached access by
 * physical address and the HIB decodes it to a remote word, a shadow
 * argument, a register or its own shared memory.
 */

#ifndef TELEGRAPHOS_HIB_HIB_HPP
#define TELEGRAPHOS_HIB_HIB_HPP

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

    /** @param dir the cluster's coherence directory: every shared-page
     *  write and coherence packet is looked up in it. */
    Hib(System &sys, const std::string &name, NodeId node,
        node::MainMemory &storage, node::TurboChannel &tc,
        coherence::Directory &dir);

    NodeId nodeId() const { return _node; }

    // ------------------------------------------------------------------
    // Wiring (done once by the Workstation / Cluster)
    // ------------------------------------------------------------------

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
    // TurboChannel interface: the CPU reaches the HIB only through
    // uncached loads and stores by physical address, each after winning
    // the TurboChannel for the programmed-I/O transaction.  The HIB
    // alone decodes what the address is (sections 2.2.1-2.2.5).
    // ------------------------------------------------------------------

    /**
     * Uncached store of @p value to @p pa, decoded in this order: a
     * shadow address (argument capture, 2.2.4); a HIB register; any
     * address while Telegraphos I special mode is on (argument capture);
     * another node's word (remote write, released once latched, 2.2.1);
     * this node's shared word (its coherence protocol or the eager
     * multicast table, after the SRAM write on Telegraphos I).  @p done
     * releases the processor; it may be empty for every case but the
     * last (a drained write-buffer entry, which nothing waits on), and
     * an empty one schedules no event.  @p traceId tags a remote
     * write's packet for the lifecycle tracer (0 = none).
     */
    void store(PAddr pa, Word value, OnDone done, std::uint64_t traceId = 0);

    /**
     * Uncached load of @p pa, decoded in this order: a HIB register
     * (special result, GO, outstanding count); another node's word
     * (blocking remote read, 2.2.1); this node's shared word in HIB
     * SRAM (Telegraphos I).  @p done receives the word when it reaches
     * the CPU; @p traceId tags a remote read's request and reply.
     */
    void load(PAddr pa, OnWord done, std::uint64_t traceId = 0);

    /**
     * Back-pressure towards the processor: @p ready fires once the HIB
     * can latch another write (its egress queue is below the limit).
     * The CPU's write-buffer drain engine, one drain at a time,
     * consults this before starting the TurboChannel transaction.
     */
    void waitWriteSpace(OnDone ready);

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
     * Inject a packet into the egress queue, the HIB's one outgoing
     * queue, never refused (central control + protocols use this).
     * @p track adds it to the outstanding counter (one completion
     * expected later, via ack or reflected update).
     */
    void inject(net::Packet &&pkt, bool track);

    /** Allocate a reply-matching ticket and register its callback. */
    std::uint64_t expectReply(OnWord cb);

    std::uint64_t packetsHandled() const { return _handled; }

    // ------------------------------------------------------------------
    // Checkpointing (DESIGN.md section 14.5)
    // ------------------------------------------------------------------

    /** Upcoming ticket value without consuming it. */
    std::uint64_t peekTicket() const { return _nextTicket; }

    /** Restore the ticket counter captured at quiescence (no pending
     *  replies or copies may exist). */
    void
    restoreCounters(std::uint64_t next_ticket)
    {
        TG_AUDIT(_pendingReplies.empty(),
                 "%s: counter restore with pending operations",
                 _name.c_str());
        _nextTicket = next_ticket;
    }

    // ------------------------------------------------------------------
    // Failure path (link-level reliability gave up on a packet)
    // ------------------------------------------------------------------

    /**
     * The network permanently failed to deliver @p pkt and this node is
     * the loss's net::victimOf() (sender awaiting an ack, reader
     * awaiting a reply, ...).  Restores the conservation invariant:
     * every expected completion the lost packet represented is drained
     * or failed, as its kind's net::LossEffect says, so fences still
     * drain and blocked CPUs still unblock — with a visible error
     * instead of silently wrong data.
     */
    void onWireFailure(const net::Packet &pkt);

    /** Remote operations this node lost to wire failures: the one
     *  per-node record of a loss (Ctx::wireFailures reads it). */
    std::uint64_t wireFailures() const { return _wireFailures; }

  private:
    // The ports store() and load() decode an address to.

    /** Remote write: released as soon as the HIB latches it (2.2.1). */
    void cpuRemoteWrite(PAddr pa, Word value, OnDone latched,
                        std::uint64_t traceId);

    /** Remote read: @p done fires when the reply reaches the CPU. */
    void cpuRemoteRead(PAddr pa, OnWord done, std::uint64_t traceId);

    /** HIB register access (special mode, contexts, counters, GO). */
    void regWrite(PAddr offset, Word value, OnDone done);
    void regRead(PAddr offset, OnWord done);

    /** Argument-passing store: capture physical address @p pa (2.2.4). */
    void shadowStore(PAddr pa, Word store_value, OnDone done);

    /**
     * The CPU stored @p value at this node's shared word @p local_addr.
     * Routes to the page's coherence protocol or to the raw
     * eager-multicast table; @p done releases the processor.
     */
    void localSharedWrite(PAddr local_addr, Word value, OnDone done);

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

    /** Remove and return the callback of pending ticket @p ticket
     *  (empty if the ticket is unknown). */
    OnWord takeReply(std::uint64_t ticket);

    /** Fail a pending ticket (a read, atomic or copy): its callback
     *  fires with 0 after the error has been counted.  No-op if the
     *  ticket is unknown. */
    void failReply(std::uint64_t ticket);

    NodeId _node;
    node::MainMemory &_storage;
    node::TurboChannel &_tc;
    coherence::Directory &_dir;

    net::BoundedQueue _egress; ///< link FIFO + internal queue, unbounded
    net::BoundedQueue _ingress;
    OnDone _writeSpaceWaiter; ///< the one held write-buffer drain
    bool _ingressBusy = false;

    AtomicUnit _atomicUnit;
    MulticastUnit _multicast;
    PageCounters _pageCounters;
    CounterCache _counterCache;
    SpecialOpsUnit _specialOps;
    Outstanding _outstanding;
    CollEngine _collEngine;

    Fn<void(PAddr, bool)> _alarmHandler;
    std::vector<Fn<bool(const net::Packet &)>> _softwareHandlers;

    // Ordered maps by contract: hib is an order-sensitive namespace
    // (DESIGN.md section 7) and iteration must be deterministic.
    // One ticket table: reads, atomics and copies (whose callback
    // ignores the word) all draw tickets from _nextTicket.
    std::map<std::uint64_t, OnWord> _pendingReplies;
    std::uint64_t _nextTicket = 1;
    std::uint64_t _handled = 0;
    std::uint32_t _readsInFlight = 0;
    std::uint64_t _wireFailures = 0;
};

} // namespace tg::hib

#endif // TELEGRAPHOS_HIB_HIB_HPP
