/**
 * @file
 * Telegraphos switch model.
 *
 * The real switch (references [16, 17] of the paper) is a shared-buffer
 * crossbar with VC-level back-pressured flow control, deterministic
 * routing, in-order delivery and deadlock freedom.  We model it as:
 *
 *  - one input FIFO and one output FIFO per (port, virtual channel)
 *    (shares of the pipelined shared buffer),
 *  - a per-(port, VC) cut-through pipeline of fixed latency,
 *  - a static routing table (destination node -> output port),
 *  - a VC-mapping hook so topologies can implement dateline deadlock
 *    avoidance (packets crossing a ring's wrap link are bumped to the
 *    escape VC), and
 *  - reservation-based back-pressure between stages.
 *
 * Queues hold arena handles (net/arena.hpp).  Arbitration reads the head
 * packet's per-hop fields in its arena slot, and forwarding rewrites the
 * slot's vc and hopsDone in place; the packet is never copied.
 *
 * Wake-up rule: an input whose head cannot reserve its output buffer
 * marks itself as a waiter on that output (one bit per (port, VC)
 * input, in a per-output mask sized at construction).  When the output
 * frees a slot, only the inputs marked on it are re-pumped, in
 * ascending input index; each one that blocks again re-marks itself.
 * This is schedule-identical to re-pumping every input: a failed pump
 * has no side effects, and an idle non-empty input can only succeed
 * once the one output its head routes to has room.  Route changes
 * (applyRoutes, refreshRoutes) still re-pump every input, because a
 * new route can point a stalled head at an output with room.
 *
 * In-order delivery per (source, destination) follows from deterministic
 * single-path routing plus FIFO queueing at every stage — a flow always
 * traverses the same VC sequence, so VCs never reorder it.  A property
 * test asserts it (tests/net/network_test.cpp) because the coherence
 * protocol's correctness argument depends on it (paper section 2.3.1).
 */

#ifndef TELEGRAPHOS_NET_SWITCH_HPP
#define TELEGRAPHOS_NET_SWITCH_HPP

#include <memory>
#include <vector>

#include "net/queue.hpp"
#include "sim/sim_object.hpp"

namespace tg::net {

/** Work counts of all switches of a network, which owns and registers
 *  them; every switch bumps them. */
struct SwitchTotals
{
    std::uint64_t forwarded = 0; ///< packets forwarded

    /** Input heads examined: every pump of a (port, VC) input, whether
     *  it found the input busy, empty, blocked or forwarding.  Two per
     *  forwarded packet (one when it arrives, one after it leaves), plus
     *  one per wake-up of a blocked input and ports x VCs per route
     *  change. */
    std::uint64_t headEvals = 0;
};

/** A multi-port, multi-VC shared-buffer switch. */
class Switch : public SimObject
{
  public:
    /**
     * Choose the outgoing VC for a packet:
     * (packet, in_port, out_port, in_vc) -> out_vc.  The input port
     * lets dimension-ordered schemes distinguish a dimension turn
     * (restart on VC0) from continued travel.  Defaults to keeping the
     * incoming VC.  The hooks get the packet's arena slot and read only
     * its leading per-hop fields (DESIGN.md section 14).
     */
    using VcMap = Fn<std::uint8_t(const Packet &, std::size_t, std::size_t,
                                  std::uint8_t)>;

    /**
     * Per-packet output-port selection: packet -> out_port.  Installed
     * instead of the static route table when routing depends on more
     * than the destination (fat-tree per-flow uplink hashing).
     */
    using RouteFn = Fn<std::size_t(const Packet &)>;

    /**
     * @param sys    owning system
     * @param name   instance name
     * @param totals work counts this switch adds to
     * @param ports  number of bidirectional ports
     * @param vcs    virtual channels per port (>= 1)
     */
    Switch(System &sys, const std::string &name, SwitchTotals &totals,
           std::size_t ports, std::size_t vcs = 2);

    /** Queue a link delivers into (switch ingress side). */
    BoundedQueue &inQueue(std::size_t port, std::size_t vc = 0)
    {
        return *_in[idx(port, vc)];
    }

    /** Queue a link drains from (switch egress side). */
    BoundedQueue &outQueue(std::size_t port, std::size_t vc = 0)
    {
        return *_out[idx(port, vc)];
    }

    /** Install/overwrite a routing entry: packets for @p node leave @p port. */
    void setRoute(NodeId node, std::size_t port);

    /**
     * Atomically replace the whole routing table (one entry per node;
     * SIZE_MAX = unrouted) and re-evaluate every stalled input.  The
     * fabric rerouter swaps tables with this at routing-epoch flips so a
     * switch never forwards under a half-updated table.
     */
    void applyRoutes(std::vector<std::size_t> routes);

    /** Re-evaluate every stalled input head (route function changed
     *  underneath us: a routing-epoch flip on a per-packet-routed
     *  fabric). */
    void refreshRoutes() { pumpAll(); }

    /** Routing lookup (panics on unrouted destination). */
    std::size_t route(NodeId node) const;

    /** Install the VC-mapping hook (dateline schemes). */
    void setVcMap(VcMap map) { _vcMap = std::move(map); }

    /** Install a per-packet route function (overrides the table). */
    void setRouteFn(RouteFn fn) { _routeFn = std::move(fn); }

  private:
    std::size_t idx(std::size_t port, std::size_t vc) const
    {
        return port * _vcs + vc;
    }

    void pump(std::size_t port, std::size_t vc);
    void pumpAll();

    /** Output @p out freed a slot: re-pump the inputs waiting on it. */
    void wakeWaiters(std::size_t out);

    SwitchTotals &_totals;
    std::size_t _ports;
    std::size_t _vcs;
    PacketArena *_arena = nullptr; ///< the system's packet arena
    std::vector<std::unique_ptr<BoundedQueue>> _in;
    std::vector<std::unique_ptr<BoundedQueue>> _out;
    std::vector<bool> _busy;
    /** Waiter masks, _maskWords words per output (port, VC): bit i of
     *  output o is set when input i blocks on o and cleared when o next
     *  frees a slot. */
    std::vector<std::uint64_t> _waiters;
    std::size_t _maskWords;
    std::vector<std::size_t> _routes; // indexed by NodeId
    VcMap _vcMap;
    RouteFn _routeFn;
};

} // namespace tg::net

#endif // TELEGRAPHOS_NET_SWITCH_HPP
