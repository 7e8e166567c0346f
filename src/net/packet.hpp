/**
 * @file
 * Network packet format of the simulated Telegraphos interconnect.
 *
 * Every remote operation of the HIB maps onto one or two packet types
 * (request/reply).  Packets also carry the origin node: the owner-based
 * coherence protocol (paper section 2.3.3) needs to recognise "the
 * reflected write that resulted from my own store", which it does by
 * origin tag.
 *
 * What a packet kind means lives in one row of kPacketKinds, which
 * packet.cpp checks at compile time; only the ingress handler
 * (hib::Hib::handlePacket) keeps per-kind behaviour.
 */

#ifndef TELEGRAPHOS_NET_PACKET_HPP
#define TELEGRAPHOS_NET_PACKET_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/trace.hpp"
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

    /** Bulk word data for CopyData / PageData transfers.  Shared so that
     *  copying packets through queues stays cheap. */
    std::shared_ptr<std::vector<Word>> bulk;

    /** Total wire size (header + payload) given header size @p hdr. */
    std::uint32_t wireBytes(std::uint32_t hdr) const { return hdr + payloadBytes; }

    /**
     * CRC-32C over every end-to-end field and the bulk payload.  The
     * reliable link computes it per hop and keeps it, with the hop's
     * go-back-N sequence number, in its own retransmit entry
     * (net::Channel); neither travels in the packet.  A wire bit flip
     * makes the receiver's recomputed value disagree with the sender's.
     */
    std::uint32_t computeCrc() const;

    /** Human-readable form for traces. */
    std::string toString() const;
};

/** The node that loses an expected completion when a packet is lost. */
enum class Victim : std::uint8_t
{
    Src,    ///< the requester, awaiting its reply or ack
    Dst,    ///< the receiver: a reply's requester, a collective's NIC
    Origin, ///< the node whose store caused a coherence update
};

/** What the victim's HIB undoes when a packet is lost. */
enum class LossEffect : std::uint8_t
{
    None,         ///< software traffic: no hardware counter to restore
    Drain,        ///< drain the one completion it was charged for
    FailTicket,   ///< fail the pending reply ticket (result 0)
    DrainAndFail, ///< both: a copy is outstanding and ticketed
    Protocol,     ///< the page's coherence protocol's own rule
    Collective,   ///< the NIC collective engine synthesizes the arrival
};

/** Everything a packet kind means outside its ingress handler. */
struct PacketKind
{
    PacketType type;                 ///< the row's kind
    const char *name;                ///< short mnemonic
    trace::OpKind op;                ///< tracer kind of an op it begins
    std::optional<PacketType> reply; ///< reply twin (none: posted)
    Victim victim;                   ///< who a loss of it hurts
    LossEffect loss;                 ///< what the victim undoes
};

namespace kinds {
using P = PacketType;
using O = trace::OpKind;
using V = Victim;
using L = LossEffect;

/** One row per PacketType, in enumerator order (paper sections 2.2.1 -
 *  2.2.3: write/ack, read/reply, copy/data, atomic/reply).  A reply goes
 *  to its request's victim, so every twin's victim side is Dst.
 *  UpdateAck answers both EagerWrite and Update; {} is no twin. */
inline constexpr PacketKind kPacketKinds[] = {
    // type, name, tracer kind, reply twin, victim side, loss effect
    {P::WriteReq, "WriteReq", O::RemoteWrite, P::WriteAck, V::Src, L::Drain},
    {P::WriteAck, "WriteAck", O::RemoteWrite, {}, V::Dst, L::Drain},
    {P::ReadReq, "ReadReq", O::RemoteRead, P::ReadReply, V::Src, L::FailTicket},
    {P::ReadReply, "ReadReply", O::RemoteRead, {}, V::Dst, L::FailTicket},
    {P::CopyReq, "CopyReq", O::RemoteCopy, P::CopyData, V::Src,
     L::DrainAndFail},
    {P::CopyData, "CopyData", O::RemoteCopy, {}, V::Dst, L::DrainAndFail},
    {P::AtomicReq, "AtomicReq", O::RemoteAtomic, P::AtomicReply, V::Src,
     L::FailTicket},
    {P::AtomicReply, "AtomicReply", O::RemoteAtomic, {}, V::Dst, L::FailTicket},
    {P::EagerWrite, "EagerWrite", O::Coherence, P::UpdateAck, V::Src, L::Drain},
    {P::Update, "Update", O::Coherence, P::UpdateAck, V::Origin, L::Protocol},
    {P::UpdateAck, "UpdateAck", O::Coherence, {}, V::Dst, L::Drain},
    {P::WriteOwner, "WriteOwner", O::Coherence, {}, V::Origin, L::Protocol},
    {P::RingUpdate, "RingUpdate", O::Coherence, {}, V::Origin, L::Drain},
    {P::InvReq, "InvReq", O::Coherence, P::InvAck, V::Src, L::Protocol},
    {P::InvAck, "InvAck", O::Coherence, {}, V::Dst, L::Protocol},
    {P::PageReq, "PageReq", O::Software, P::PageData, V::Src, L::None},
    {P::PageData, "PageData", O::Software, {}, V::Dst, L::None},
    {P::Message, "Message", O::Software, {}, V::Src, L::None},
    {P::CollUp, "CollUp", O::CollReduce, {}, V::Dst, L::Collective},
    {P::CollDown, "CollDown", O::CollBcast, {}, V::Dst, L::Collective},
};
} // namespace kinds

using kinds::kPacketKinds;

/** The row of packet kind @p t. */
constexpr const PacketKind &
kindOf(PacketType t)
{
    return kPacketKinds[static_cast<std::size_t>(t)];
}

/** Short mnemonic for a packet type. */
inline const char *
packetTypeName(PacketType t)
{
    return kindOf(t).name;
}

/** The node that loses an expected completion when the network
 *  permanently fails to deliver @p pkt: the side its row names. */
NodeId victimOf(const Packet &pkt);

/** The reply to request @p req: its twin kind, sent to its victim with
 *  its ticket and trace id.  The caller sets the payload (payloadBytes,
 *  addr, value, bulk).  Panics if the kind has no twin. */
Packet replyTo(const Packet &req);

static_assert(std::is_standard_layout_v<Packet> &&
                  offsetof(Packet, traceId) + 8 <= 32,
              "the per-hop fields must lead the packet");

} // namespace tg::net

#endif // TELEGRAPHOS_NET_PACKET_HPP
