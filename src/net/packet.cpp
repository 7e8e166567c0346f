/**
 * @file
 * Packet helpers: wire sizing, CRC and pretty-printing.
 */

#include "net/packet.hpp"

#include <cstdio>

namespace tg::net {

const char *
packetTypeName(PacketType t)
{
    switch (t) {
      case PacketType::WriteReq: return "WriteReq";
      case PacketType::WriteAck: return "WriteAck";
      case PacketType::ReadReq: return "ReadReq";
      case PacketType::ReadReply: return "ReadReply";
      case PacketType::CopyReq: return "CopyReq";
      case PacketType::CopyData: return "CopyData";
      case PacketType::AtomicReq: return "AtomicReq";
      case PacketType::AtomicReply: return "AtomicReply";
      case PacketType::EagerWrite: return "EagerWrite";
      case PacketType::Update: return "Update";
      case PacketType::UpdateAck: return "UpdateAck";
      case PacketType::WriteOwner: return "WriteOwner";
      case PacketType::RingUpdate: return "RingUpdate";
      case PacketType::InvReq: return "InvReq";
      case PacketType::InvAck: return "InvAck";
      case PacketType::PageReq: return "PageReq";
      case PacketType::PageData: return "PageData";
      case PacketType::Message: return "Message";
      case PacketType::CollUp: return "CollUp";
      case PacketType::CollDown: return "CollDown";
    }
    return "?";
}

namespace {

/** CRC-32C (Castagnoli), bitwise; the per-word cost is irrelevant next to
 *  event-queue work and the simulated check itself is free. */
std::uint32_t
crc32cWord(std::uint32_t crc, std::uint64_t word)
{
    for (int b = 0; b < 64; ++b) {
        const std::uint32_t bit = (crc ^ static_cast<std::uint32_t>(word)) & 1;
        crc >>= 1;
        if (bit)
            crc ^= 0x82f63b78u;
        word >>= 1;
    }
    return crc;
}

} // namespace

std::uint32_t
Packet::computeCrc() const
{
    std::uint32_t c = ~0u;
    c = crc32cWord(c, static_cast<std::uint64_t>(type) |
                          (std::uint64_t(src) << 8) |
                          (std::uint64_t(dst) << 24) |
                          (std::uint64_t(origin) << 40) |
                          (std::uint64_t(vc) << 56));
    c = crc32cWord(c, addr);
    c = crc32cWord(c, addr2);
    c = crc32cWord(c, value);
    c = crc32cWord(c, value2);
    c = crc32cWord(c, static_cast<std::uint64_t>(aop) |
                          (std::uint64_t(payloadBytes) << 8));
    c = crc32cWord(c, seq);
    c = crc32cWord(c, ticket);
    if (bulk) {
        for (const Word w : *bulk)
            c = crc32cWord(c, w);
    }
    return ~c;
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
