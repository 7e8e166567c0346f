/**
 * @file
 * Unit tests of packet formatting and sizing, and of the packet-kind
 * table's names, victims and replies (packet.cpp checks its invariants
 * at compile time).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "net/packet.hpp"

namespace tg::net {
namespace {

TEST(Packet, WireBytesIncludeHeader)
{
    Packet p;
    p.payloadBytes = 8;
    EXPECT_EQ(p.wireBytes(16), 24u);
    p.payloadBytes = 0;
    EXPECT_EQ(p.wireBytes(16), 16u);
}

TEST(Packet, CarriesNoLinkHeader)
{
    // The go-back-N sequence number and corrupted bit belong to the link hop
    // (net::Channel's retransmit entry), not to the arena slot: 24 hot
    // bytes, 48 of end-to-end body, the bulk pointer.
    if (sizeof(void *) != 8)
        GTEST_SKIP() << "layout pinned for 64-bit targets";
    EXPECT_EQ(sizeof(Packet), 96u);
}

TEST(Packet, TypeNamesAreUniqueAndNonEmpty)
{
    std::set<std::string> names;
    for (const PacketKind &k : kPacketKinds) {
        const std::string n = packetTypeName(k.type);
        EXPECT_FALSE(n.empty());
        EXPECT_EQ(n, k.name);
        EXPECT_TRUE(names.insert(n).second) << "duplicate name " << n;
    }
    EXPECT_EQ(names.size(), std::size_t(PacketType::CollDown) + 1);
}

TEST(Packet, ReplyGoesToTheRequestsVictim)
{
    Packet req;
    req.type = PacketType::Update;
    req.src = 0;
    req.dst = 2;
    req.origin = 1;
    req.ticket = 9;
    req.traceId = 77;
    req.addr = 0x40;
    req.value = 5;
    const Packet ack = replyTo(req);
    EXPECT_EQ(ack.type, PacketType::UpdateAck);
    EXPECT_EQ(ack.dst, 1u) << "an Update's ack drains its origin";
    EXPECT_EQ(ack.dst, victimOf(req));
    EXPECT_EQ(ack.ticket, 9u);
    EXPECT_EQ(ack.traceId, 77u);
    EXPECT_EQ(ack.addr, 0u) << "the caller sets what a reply carries";
    EXPECT_EQ(ack.value, 0u);

    req.type = PacketType::ReadReq;
    const Packet reply = replyTo(req);
    EXPECT_EQ(reply.type, PacketType::ReadReply);
    EXPECT_EQ(reply.dst, 0u);
    EXPECT_EQ(victimOf(reply), 0u) << "a lost reply hurts its requester";
}

TEST(PacketDeathTest, ReplyToAPostedKindPanics)
{
    Packet msg;
    msg.type = PacketType::Message;
    EXPECT_DEATH(replyTo(msg), "Message has no reply kind");
}

TEST(Packet, ToStringCarriesRoutingFields)
{
    Packet p;
    p.type = PacketType::WriteOwner;
    p.src = 3;
    p.dst = 5;
    p.value = 42;
    p.origin = 3;
    p.seq = 17;
    const std::string s = p.toString();
    EXPECT_NE(s.find("WriteOwner"), std::string::npos);
    EXPECT_NE(s.find("3->5"), std::string::npos);
    EXPECT_NE(s.find("val=42"), std::string::npos);
    EXPECT_NE(s.find("seq=17"), std::string::npos);
}

TEST(Packet, BulkDataIsSharedNotCopied)
{
    Packet a;
    a.bulk = std::make_shared<std::vector<Word>>(1024, 7);
    Packet b = a; // queue copies must not duplicate the 8 KB payload
    EXPECT_EQ(a.bulk.get(), b.bulk.get());
    EXPECT_EQ(a.bulk.use_count(), 2);
}

} // namespace
} // namespace tg::net
