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
 *  - one routing hook per switch: (head packet, in port, in VC) ->
 *    (out port, out VC).  The network installs it at construction; it
 *    asks the topology model (or the fault-aware rerouter) for the port
 *    and the model's VC function for the VC, so dateline deadlock
 *    avoidance (a packet crossing a ring's wrap link is bumped to the
 *    escape VC) is the same decision as the route.  The switch keeps no
 *    route table, and
 *  - reservation-based back-pressure between stages.
 *
 * Queues hold arena handles (net/arena.hpp).  Arbitration reads the head
 * packet's per-hop fields in its arena slot, and forwarding rewrites the
 * slot's vc in place; the packet is never copied.
 *
 * Wake-up rule: an input whose head cannot reserve its output buffer
 * marks itself as a waiter on that output (one bit per (port, VC)
 * input, in a per-output mask sized at construction).  When the output
 * frees a slot, only the inputs marked on it are re-pumped, in
 * ascending input index; each one that blocks again re-marks itself.
 * This is schedule-identical to re-pumping every input: a failed pump
 * has no side effects, and an idle non-empty input can only succeed
 * once the one output its head routes to has room.  A route change
 * (refreshRoutes, at a routing-epoch flip) still re-pumps every input,
 * because the hook may now point a stalled head at an output with
 * room.
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
     *  one per wake-up of a blocked input and ports x VCs per
     *  refreshRoutes(). */
    std::uint64_t headEvals = 0;
};

/** A multi-port, multi-VC shared-buffer switch. */
class Switch : public SimObject
{
  public:
    /** Where a head packet leaves: output port and output VC. */
    struct Hop
    {
        std::size_t port;
        std::uint8_t vc;
    };

    /**
     * The routing hook: (head packet, in_port, in_vc) -> Hop.  The
     * input port lets dimension-ordered schemes tell a dimension turn
     * (restart on VC0) from continued travel.  The hook gets the
     * packet's arena slot and reads only its leading per-hop fields
     * (DESIGN.md section 14).
     */
    using Router = Fn<Hop(const Packet &, std::size_t, std::uint8_t)>;

    /**
     * @param sys    owning system
     * @param name   instance name
     * @param totals work counts this switch adds to
     * @param ports  number of bidirectional ports
     * @param vcs    virtual channels per port (>= 1)
     * @param router the routing hook, asked once per head evaluation
     *               that finds the input idle and non-empty
     */
    Switch(System &sys, const std::string &name, SwitchTotals &totals,
           std::size_t ports, std::size_t vcs, Router router);

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

    /** Re-evaluate every stalled input head: the routing hook's answer
     *  changed underneath us (a routing-epoch flip). */
    void refreshRoutes() { pumpAll(); }

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
    Router _router;
};

} // namespace tg::net

#endif // TELEGRAPHOS_NET_SWITCH_HPP
