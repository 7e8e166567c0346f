/**
 * @file
 * Packet helpers: the kind table's compile-time checks, victims and
 * replies and pretty-printing.
 */

#include "net/packet.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "sim/log.hpp"

namespace tg::net {

// The kind table's invariants, checked at compile time.
namespace {

constexpr bool
inItsOwnRow(const PacketKind &k)
{
    return &kindOf(k.type) == &k;
}

/** A reply goes to its request's victim and shares its tracer kind. */
constexpr bool
twinIsADstVictimOfTheSameOpKind(const PacketKind &k)
{
    return !k.reply || (kindOf(*k.reply).victim == Victim::Dst &&
                        kindOf(*k.reply).op == k.op);
}

constexpr bool
answersARequestIfADstVictim(const PacketKind &k)
{
    const auto answers = [&k](const PacketKind &req) {
        return req.reply == k.type;
    };
    return k.victim != Victim::Dst || k.loss == LossEffect::Collective ||
           std::ranges::any_of(kPacketKinds, answers);
}

static_assert(std::size(kPacketKinds) ==
                  static_cast<std::size_t>(PacketType::CollDown) + 1,
              "kPacketKinds needs one row per PacketType");
static_assert(std::ranges::all_of(kPacketKinds, inItsOwnRow),
              "row i of kPacketKinds is PacketType(i)'s");
static_assert(std::ranges::all_of(kPacketKinds,
                                  twinIsADstVictimOfTheSameOpKind),
              "a reply goes to its request's victim (victim side Dst) "
              "and shares its request's tracer kind");
static_assert(std::ranges::all_of(kPacketKinds, answersARequestIfADstVictim),
              "every non-collective Dst-victim kind is a request's twin");

} // namespace

NodeId
victimOf(const Packet &pkt)
{
    switch (kindOf(pkt.type).victim) {
      case Victim::Src: return pkt.src;
      case Victim::Dst: return pkt.dst;
      case Victim::Origin: return pkt.origin;
    }
    return pkt.src;
}

Packet
replyTo(const Packet &req)
{
    const PacketKind &k = kindOf(req.type);
    if (!k.reply)
        panic("replyTo: %s has no reply kind", k.name);
    Packet reply;
    reply.type = *k.reply;
    reply.dst = victimOf(req);
    reply.ticket = req.ticket;
    reply.traceId = req.traceId;
    return reply;
}

std::string
Packet::toString() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s %u->%u addr=%llx val=%llu origin=%u seq=%llu",
                  packetTypeName(type), unsigned(src), unsigned(dst),
                  (unsigned long long)addr, (unsigned long long)value,
                  unsigned(origin), (unsigned long long)seq);
    return buf;
}

} // namespace tg::net
