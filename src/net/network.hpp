/**
 * @file
 * Network: switches + channels wired into a topology, with node
 * attachment points for HIBs.
 */

#ifndef TELEGRAPHOS_NET_NETWORK_HPP
#define TELEGRAPHOS_NET_NETWORK_HPP

#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/reroute.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/sim_object.hpp"

namespace tg::net {

/**
 * Attachment point a node's HIB presents to the network: an egress FIFO
 * the network drains and an ingress FIFO the network fills.
 */
class NodeEndpoint
{
  public:
    virtual ~NodeEndpoint() = default;

    /** Node-to-network FIFO (the HIB's outgoing link interface). */
    virtual BoundedQueue &egress() = 0;

    /** Network-to-node FIFO (the HIB's incoming link interface). */
    virtual BoundedQueue &ingress() = 0;
};

/**
 * The full interconnect: builds switches and channels for a TopologySpec
 * and routes packets between attached node endpoints.
 */
class Network : public SimObject
{
  public:
    Network(System &sys, const std::string &name, const TopologySpec &spec);

    /** Attach node @p id (must be called for every id before traffic). */
    void attach(NodeId id, NodeEndpoint &ep);

    const TopologySpec &spec() const { return _spec; }

    /** Total packets forwarded by all switches. */
    std::uint64_t switchForwarded() const;

    /** Input heads examined by all switches (Switch::headEvals). */
    std::uint64_t switchHeadEvals() const;

    /** Number of hops between two nodes (for analytical latency checks). */
    std::size_t hops(NodeId a, NodeId b) const;

    /** Install @p h on every channel: called with each packet the
     *  reliability layer permanently failed to deliver. */
    void setFailureHandler(Channel::FailureHandler h);

    // ------------------------------------------------------------------
    // Reliability-layer statistics aggregated over all channels (all
    // zero when the fault model is inert)
    // ------------------------------------------------------------------

    /** CRC-failed arrivals discarded, all links. */
    std::uint64_t corruptions() const;

    /** Link-level retransmissions, all links. */
    std::uint64_t retransmissions() const;

    /** Duplicate arrivals discarded, all links. */
    std::uint64_t duplicateDiscards() const;

    /** Packets permanently failed by the links, all links. */
    std::uint64_t wireFailures() const;

    // ------------------------------------------------------------------
    // Fault-aware routing (present on multi-path fabrics when the fault
    // spec schedules down-windows; see net/reroute.hpp)
    // ------------------------------------------------------------------

    /** The routing-epoch engine, or nullptr when the fabric routes
     *  statically (single-path shape or no scheduled outages). */
    const FabricRerouter *rerouter() const { return _rerouter.get(); }

    /** Planned routing epochs beyond the baseline (0 = static routing). */
    std::size_t routingEpochs() const
    {
        return _rerouter ? _rerouter->plannedFlips() : 0;
    }

    /** Routing-epoch flips applied so far. */
    std::uint64_t reroutesApplied() const
    {
        return _rerouter ? _rerouter->flipsApplied() : 0;
    }

  private:
    void buildRoutes();

    TopologySpec _spec;
    std::vector<std::unique_ptr<Switch>> _switches;
    std::vector<std::unique_ptr<Channel>> _channels;
    std::unique_ptr<FabricRerouter> _rerouter;
};

} // namespace tg::net

#endif // TELEGRAPHOS_NET_NETWORK_HPP
