/**
 * @file
 * Socket-style message passing baseline.
 *
 * Models the "traditional environments [that] need the intervention of
 * the operating system to make even the simplest exchange of
 * information" (paper section 1): every send and every receive pays a
 * kernel messaging cost (syscall + copies + protocol stack) on top of
 * the wire time.  Bench A4 contrasts it with Telegraphos remote writes.
 */

#ifndef TELEGRAPHOS_BASELINE_SOCKETS_HPP
#define TELEGRAPHOS_BASELINE_SOCKETS_HPP

#include <map>

#include "api/cluster.hpp"
#include "api/context.hpp"

namespace tg::baseline {

/** Kernel-mediated messaging over the same interconnect. */
class SocketLayer
{
  public:
    explicit SocketLayer(Cluster &cluster);

    /**
     * Send @p bytes tagged @p tag to @p to.  Charges the sender-side OS
     * cost inline (the coroutine blocks in the "syscall"), then the wire,
     * then the receiver-side OS cost before delivery.
     */
    Task<void> send(Ctx &ctx, NodeId to, Word tag, std::uint32_t bytes);

    /**
     * Blocking receive: completes once a message with @p tag has been
     * delivered to @p ctx's node (poll-based, like a blocking syscall).
     * Each message to this node and tag that the network lost completes
     * one receive with OpError::LinkFailure instead.
     */
    Task<Result<void>> recv(Ctx &ctx, Word tag);

    std::uint64_t delivered() const { return _delivered; }

  private:
    Cluster &_cluster;
    /** (node, tag) -> messages delivered / lost / consumed. */
    std::map<std::pair<NodeId, Word>, std::uint64_t> _arrived;
    std::map<std::pair<NodeId, Word>, std::uint64_t> _lost;
    std::map<std::pair<NodeId, Word>, std::uint64_t> _consumed;
    std::uint64_t _delivered = 0;
};

} // namespace tg::baseline

#endif // TELEGRAPHOS_BASELINE_SOCKETS_HPP
