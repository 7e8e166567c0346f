/**
 * @file
 * Network packet format of the simulated Telegraphos interconnect.
 *
 * Every remote operation of the HIB maps onto one or two packet types
 * (request/reply).  Packets also carry the origin node: the owner-based
 * coherence protocol (paper section 2.3.3) needs to recognise "the
 * reflected write that resulted from my own store", which it does by
 * origin tag.
 */

#ifndef TELEGRAPHOS_NET_PACKET_HPP
#define TELEGRAPHOS_NET_PACKET_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/types.hpp"

namespace tg::net {

/** Kinds of packets travelling on the Telegraphos network. */
enum class PacketType : std::uint8_t
{
    // Basic remote operations (paper section 2.2.1 / 2.2.2 / 2.2.3)
    WriteReq,     ///< remote write; acknowledged for fence accounting
    WriteAck,     ///< completion ack for WriteReq
    ReadReq,      ///< blocking remote read request
    ReadReply,    ///< data reply for ReadReq
    CopyReq,      ///< remote copy: fetch remote word(s) to local memory
    CopyData,     ///< data flowing back for a CopyReq
    AtomicReq,    ///< fetch&store / fetch&inc / compare&swap request
    AtomicReply,  ///< old value reply for AtomicReq

    // Coherence traffic (paper sections 2.2.7, 2.3)
    EagerWrite,   ///< raw eager-update to a destination-local page (2.2.7)
    Update,       ///< protocol update multicast write (carries origin)
    UpdateAck,    ///< ack so the sender's fence counter can drain
    WriteOwner,   ///< write forwarded to the owner of a page
    RingUpdate,   ///< Galactica-style update circulating a sharing ring
    InvReq,       ///< invalidate a page copy
    InvAck,       ///< invalidation acknowledgement

    // Software traffic (VSM / sockets baselines)
    PageReq,      ///< request a page copy (VSM fault service)
    PageData,     ///< full-page data transfer
    Message,      ///< socket-style message payload

    // NIC-resident collectives (hib::CollEngine; DESIGN.md section 15).
    // addr = group id, seq = per-group collective sequence number,
    // value = partial sum / release value, value2 = op opcode + flags.
    CollUp,       ///< upward combine/arrival towards the tree root
    CollDown,     ///< downward release / broadcast payload (bulk)
};

/** Remote atomic operation selector (paper section 2.2.3). */
enum class AtomicOp : std::uint8_t
{
    FetchAndStore,
    FetchAndInc,
    CompareAndSwap,
};

/**
 * A network packet.  Every field a hop reads (switch routing and VC
 * mapping, link serialization, tracer taps) is declared first, so it
 * sits in the packet's first 24 bytes; endpoints read the rest.
 */
struct Packet
{
    PacketType type = PacketType::WriteReq;
    NodeId src = 0;       ///< node/HIB that injected this packet
    NodeId dst = 0;       ///< destination node
    std::uint8_t vc = 0;  ///< virtual channel (dateline deadlock avoidance)
    std::uint32_t payloadBytes = 8; ///< payload size for serialization
    /** Lifecycle-tracer operation id (0 = untraced).  Pure observability:
     *  excluded from computeCrc() and from the audit trace hash, so runs
     *  are bit-identical with tracing on or off. */
    std::uint64_t traceId = 0;

    PAddr addr = 0;       ///< primary physical address
    PAddr addr2 = 0;      ///< secondary address (copy destination / cas cmp)
    Word value = 0;       ///< data word / atomic operand
    Word value2 = 0;      ///< second operand (compare&swap new value)
    AtomicOp aop = AtomicOp::FetchAndStore;
    NodeId origin = 0;    ///< node whose store originally caused this
    /** NIC collective sequence number (CollUp / CollDown only; set and
     *  read by hib::CollEngine). */
    std::uint64_t seq = 0;
    std::uint64_t ticket = 0;  ///< requester-side matching ticket

    // ------------------------------------------------------------------
    // Link-level reliability (set per hop by net::Channel when the fault
    // model is active; both live inside the existing header budget)
    // ------------------------------------------------------------------
    /** Go-back-N sequence number on the current link hop. */
    std::uint64_t lseq = 0;
    /** CRC over header + payload as computed by the hop's sender. */
    std::uint32_t crc = 0;

    /** Bulk word data for CopyData / PageData transfers.  Shared so that
     *  copying packets through queues stays cheap. */
    std::shared_ptr<std::vector<Word>> bulk;

    /** Total wire size (header + payload) given header size @p hdr. */
    std::uint32_t wireBytes(std::uint32_t hdr) const { return hdr + payloadBytes; }

    /**
     * CRC-32C over every end-to-end field and the bulk payload (lseq and
     * the stored crc itself are excluded: lseq is protected implicitly by
     * the go-back-N window, and a corrupted lseq shows up as an
     * out-of-window discard).  A wire bit flip makes the recomputed value
     * disagree with the stored one.
     */
    std::uint32_t computeCrc() const;

    /** Human-readable form for traces. */
    std::string toString() const;
};

/** Short mnemonic for a packet type. */
const char *packetTypeName(PacketType t);

static_assert(std::is_standard_layout_v<Packet> &&
                  offsetof(Packet, traceId) + 8 <= 32,
              "the per-hop fields must lead the packet");

} // namespace tg::net

#endif // TELEGRAPHOS_NET_PACKET_HPP
