/**
 * @file
 * Socket-based message-passing baseline (OS trap +
 * software protocol costs).
 */

#include "baseline/sockets.hpp"

namespace tg::baseline {

using net::Packet;
using net::PacketType;

namespace {
/** Distinguishes socket messages from other software packets. */
constexpr Word kSocketMark = 0x50c4e7;
} // namespace

SocketLayer::SocketLayer(Cluster &cluster) : _cluster(cluster)
{
    for (NodeId n = 0; n < NodeId(_cluster.numNodes()); ++n) {
        _cluster.hibOf(n).addSoftwareHandler([this, n](const Packet &pkt,
                                                       bool lost) {
            if (pkt.type != PacketType::Message || pkt.value2 != kSocketMark)
                return false;
            if (lost) {
                // Reported at the sender's HIB: the receiver's next
                // receive on this tag fails instead of waiting forever.
                ++_lost[{pkt.dst, pkt.value}];
                return true;
            }
            // Receiver-side kernel processing before delivery.
            _cluster.system().events().schedule(
                _cluster.config().osMessage, [this, n, tag = pkt.value] {
                    ++_arrived[{n, tag}];
                    ++_delivered;
                });
            return true;
        });
    }
}

Task<void>
SocketLayer::send(Ctx &ctx, NodeId to, Word tag, std::uint32_t bytes)
{
    // The send syscall: trap, copies, protocol stack.
    co_await ctx.compute(_cluster.config().osMessage);
    Packet pkt;
    pkt.type = PacketType::Message;
    pkt.dst = to;
    pkt.value = tag;
    pkt.value2 = kSocketMark;
    pkt.origin = ctx.self();
    pkt.payloadBytes = bytes;
    _cluster.hibOf(ctx.self()).inject(std::move(pkt), /*track=*/false);
}

Task<Result<void>>
SocketLayer::recv(Ctx &ctx, Word tag)
{
    const auto key = std::make_pair(ctx.self(), tag);
    // Blocking receive: poll the socket buffer state.
    while (_arrived[key] == _consumed[key]) {
        if (_lost[key] > 0) {
            --_lost[key];
            co_return Result<void>(OpError::LinkFailure);
        }
        co_await ctx.compute(500);
    }
    ++_consumed[key];
    // Receive syscall cost (copy to user space).
    co_await ctx.compute(_cluster.config().osMessage / 2);
    co_return Result<void>();
}

} // namespace tg::baseline
