/**
 * @file
 * Unidirectional link channel between bounded queues.
 *
 * Models one direction of a Telegraphos ribbon-cable link: finite
 * bandwidth (serialization time proportional to wire size), propagation
 * delay, and credit-style back-pressure (a transfer begins only after a
 * slot in the downstream queue has been reserved).
 *
 * A physical link can carry several *virtual channels* (paper reference
 * [17], "VC-level Flow Control"): each VC is a lane with its own
 * upstream/downstream buffer pair, and the lanes share the wire with
 * round-robin arbitration.  Independent VC buffering is what makes the
 * ring topology deadlock-free (dateline routing, see net/network.cpp).
 *
 * When the cluster's fault model is active (Config::fault.enabled()),
 * every channel additionally runs a link-level reliability protocol, the
 * table-stakes machinery of NIC designs in this lineage (APEnet+,
 * Quadrics/Myrinet):
 *
 *  - each transmission carries a per-lane go-back-N sequence number and a
 *    CRC over header + payload, kept in the sender's TxEntry, not the
 *    Packet;
 *  - the receiving side accepts only the next expected sequence number,
 *    silently discards duplicates (re-acking cumulatively) and NACKs
 *    corrupt or out-of-window arrivals;
 *  - ACK/NACK control symbols return on the cable's dedicated control
 *    lines, modelled as out-of-band events one propagation delay later;
 *  - the sender keeps transmitted packets in a retransmit buffer until
 *    cumulatively acknowledged and replays from the oldest unacked packet
 *    on NACK or timeout, with exponential backoff and a bounded retry
 *    budget;
 *  - a packet that exhausts its budget — or traffic on a link that is
 *    administratively down past Config::fault.linkDownDeadline — is
 *    handed to the failure handler (wired by net::Network to the cluster)
 *    so upper layers complete the operation with a visible error instead
 *    of wedging.  The sender gives up only on a lane's head, after a
 *    rewind, and only while the receiver has not accepted it; the
 *    give-up notice moves the receiver past that sequence number, so a
 *    late copy lands as a duplicate and the lane keeps flowing.
 *
 * With the default (inert) FaultSpec the original zero-overhead fast path
 * is used and timing is bit-identical to the calibrated model.
 *
 * Both paths schedule two events per transmission (DESIGN.md section
 * 14.2): a wire-free event after the serialization time, which charges
 * the busy time and pumps the next packet, and a delivery after
 * serialization + propagation delay.  The fast-path delivery carries only
 * the packet's arena handle.
 */

#ifndef TELEGRAPHOS_NET_LINK_HPP
#define TELEGRAPHOS_NET_LINK_HPP

#include <vector>

#include "net/fault.hpp"
#include "net/queue.hpp"
#include "sim/sim_object.hpp"

namespace tg::net {

/**
 * Pumps packets from upstream queues into downstream queues over one
 * shared physical wire.
 *
 * The channel is busy for the serialization time of each packet; the
 * packet arrives downstream after serialization + propagation delay.
 * Per-lane delivery is in order (FIFO lanes, single server); the
 * reliability layer preserves exactly-once in-order delivery per lane
 * under corruption, loss and duplication until a packet's retry budget
 * is exhausted.
 */
class Channel : public SimObject
{
  public:
    /** One virtual-channel lane. */
    struct Lane
    {
        BoundedQueue *up;
        BoundedQueue *down;
    };

    /** Invoked with a packet the link permanently failed to deliver. */
    using FailureHandler = Fn<void(Packet &&)>;

    /** Multi-VC channel over @p lanes. */
    Channel(System &sys, const std::string &name, std::vector<Lane> lanes,
            double bytes_per_tick, Tick delay);

    /** Convenience: single-lane channel. */
    Channel(System &sys, const std::string &name, BoundedQueue &upstream,
            BoundedQueue &downstream, double bytes_per_tick, Tick delay);

    /** Serialization time of @p wire_bytes on a link moving
     *  @p bytes_per_tick: what every transmission charges the wire. */
    static Tick serTicks(std::uint32_t wire_bytes, double bytes_per_tick);

    /** Install the permanent-delivery-failure handler. */
    void setFailureHandler(FailureHandler h) { _failHandler = std::move(h); }

    /** Total packets moved (transmissions, including retransmissions). */
    std::uint64_t packets() const { return _packets; }

    /** Total payload+header bytes moved. */
    std::uint64_t bytes() const { return _bytes; }

    /** Fraction of time up to now the wire spent on finished
     *  transmissions (a send in progress counts once it ends). */
    double utilization() const;

    // ------------------------------------------------------------------
    // Reliability-layer statistics (all zero on the fast path)
    // ------------------------------------------------------------------

    /** Arrivals discarded because the CRC check failed. */
    std::uint64_t corruptions() const { return _crcErrors; }

    /** Retransmissions performed (transmissions beyond each first). */
    std::uint64_t retransmissions() const { return _retransmissions; }

    /** Duplicate arrivals discarded by the sequence check. */
    std::uint64_t duplicateDiscards() const { return _dupDiscards; }

    /** Packets permanently failed (budget exhausted or failed over after
     *  an administrative outage passed the deadline). */
    std::uint64_t wireFailures() const { return _wireFailures; }

  private:
    /** Sender-side retransmit buffer entry and its link header. */
    struct TxEntry
    {
        Packet pkt;
        std::uint64_t lseq = 0;  ///< go-back-N sequence number
        std::uint32_t crc = 0;   ///< pkt.computeCrc() at first send
        std::uint32_t tries = 0; ///< transmissions performed so far
    };

    /** Per-lane go-back-N protocol state. */
    struct LaneState
    {
        std::vector<TxEntry> unacked; ///< sent or sending, not yet acked
        std::size_t resend = 0;      ///< index of next entry to transmit
        std::uint64_t txNext = 1;    ///< next sequence number to assign
        std::uint64_t rxExpected = 1; ///< receiver: next in-order sequence
        std::uint64_t timerGen = 0;  ///< cancels superseded timeout events
        std::uint32_t backoff = 0;   ///< current backoff doublings
        Tick nackMuteUntil = 0;      ///< ignore NACKs until a resend RTT
    };

    void pump();
    void pumpReliable();

    /** The wire-free event of a @p ser-tick transmission: charges the
     *  busy time, releases the wire and pumps the next packet. */
    void wireFree(Tick ser);

    /** Arrival of @p wire, sent with link header (@p lseq, @p crc), at
     *  the downstream end of lane @p li. */
    void deliver(std::size_t li, Packet &&wire, std::uint64_t lseq,
                 std::uint32_t crc, bool dup_follows);

    /** Cumulative ACK up to @p lseq reached the sender of lane @p li. */
    void onAck(std::size_t li, std::uint64_t lseq);

    /** NACK reached the sender of lane @p li: go back to the oldest. */
    void onNack(std::size_t li);

    void armTimer(std::size_t li);
    void cancelTimer(std::size_t li);

    /** Permanently fail the entry at position @p pos of lane @p li and
     *  move the lane's receiver past it. */
    void failEntry(std::size_t li, std::size_t pos);

    /** Count @p pkt as lost and hand it to the failure handler. */
    void failPacket(Packet &&pkt);

    /** Fail every queued and unacknowledged packet (outage past the
     *  deadline): the failover path. */
    void failFast();

    /** Lane after @p c in round-robin order (compare-and-wrap). */
    std::size_t
    nextLane(std::size_t c) const
    {
        return c + 1 == _lanes.size() ? 0 : c + 1;
    }

    std::vector<Lane> _lanes;
    PacketArena *_arena = nullptr; ///< the lanes' queues' arena
    std::size_t _rr = 0; ///< round-robin arbitration pointer
    double _bw;
    Tick _delay;
    bool _busy = false;

    std::uint64_t _packets = 0;
    std::uint64_t _bytes = 0;
    Tick _busyTicks = 0;

    // Reliability layer (engaged when Config::fault.enabled())
    bool _reliable = false;
    FaultInjector _inj;
    std::vector<LaneState> _ls;
    FailureHandler _failHandler;
    bool _downWakeArmed = false;

    std::uint64_t _crcErrors = 0;
    std::uint64_t _retransmissions = 0;
    std::uint64_t _dupDiscards = 0;
    std::uint64_t _outOfWindow = 0;
    std::uint64_t _wireFailures = 0;
};

} // namespace tg::net

#endif // TELEGRAPHOS_NET_LINK_HPP
