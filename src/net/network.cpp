/**
 * @file
 * Network implementation: topology construction, routing
 * tables and node attachment.
 *
 * The builder is topology-agnostic: everything shape-specific (switch
 * count, trunk list, route/VC functions) comes from the spec's
 * TopologyModel, so adding a fabric never touches this file.
 *
 * Determinism note: channel names seed the per-link fault RNGs and
 * construction order fixes event ordering, so both are part of the
 * reproducibility contract.  Switches are named ".sw<i>", trunks
 * ".trunk<a>to<b>" in model trunk-list order (forward direction first),
 * matching the historic star/chain/ring naming exactly.
 */

#include "net/network.hpp"

#include <cstdlib>

namespace tg::net {

Network::Network(System &sys, const std::string &name,
                 const TopologySpec &spec)
    : SimObject(sys, name), _spec(spec)
{
    // Legacy construction path: turn a rejection into fatal().  Callers
    // wanting a recoverable error go through Cluster::build(), which
    // validates before ever constructing a Network.
    if (auto valid = _spec.validate(); !valid)
        fatal("%s: %s", name.c_str(), valid.error().message.c_str());

    const TopologyModel &model = _spec.model();
    const std::size_t nsw = _spec.numSwitches();
    for (std::size_t s = 0; s < nsw; ++s) {
        _switches.push_back(std::make_unique<Switch>(
            sys, name + ".sw" + std::to_string(s), _spec.portsOf(s),
            /*vcs=*/2));
    }

    // Trunk channels between switches.  Each direction is one physical
    // wire carrying both VCs.
    const double bw = config().linkBytesPerTick;
    const Tick delay = config().linkDelay;

    auto trunk_lanes = [&](std::size_t a, std::size_t pa, std::size_t b,
                           std::size_t pb) {
        std::vector<Channel::Lane> lanes;
        for (std::size_t v = 0; v < 2; ++v)
            lanes.push_back(Channel::Lane{&_switches[a]->outQueue(pa, v),
                                          &_switches[b]->inQueue(pb, v)});
        return lanes;
    };
    std::vector<FabricRerouter::TrunkRef> trunk_refs;
    for (const TopologyModel::Trunk &t : model.trunks(_spec)) {
        std::string fwd = name + ".trunk" + std::to_string(t.swA) + "to" +
                          std::to_string(t.swB);
        std::string rev = name + ".trunk" + std::to_string(t.swB) + "to" +
                          std::to_string(t.swA);
        _channels.push_back(std::make_unique<Channel>(
            _sys, fwd, trunk_lanes(t.swA, t.portA, t.swB, t.portB), bw,
            delay));
        _channels.push_back(std::make_unique<Channel>(
            _sys, rev, trunk_lanes(t.swB, t.portB, t.swA, t.portA), bw,
            delay));
        trunk_refs.push_back(
            FabricRerouter::TrunkRef{t, std::move(fwd), std::move(rev)});
    }

    // Fault-aware routing epochs: only multi-path fabrics can route
    // around an outage, and only scheduled down-windows produce one.
    // The rerouter is inert (no flips, baseline DeadView) when no window
    // outlives the link-down deadline.
    if (model.multiPath() && !config().fault.downWindows.empty()) {
        std::vector<Switch *> sws;
        for (auto &sw : _switches)
            sws.push_back(sw.get());
        _rerouter = std::make_unique<FabricRerouter>(
            sys, name + ".reroute", _spec, std::move(sws), trunk_refs);
    }

    // Escape-VC maps (dateline deadlock avoidance on ring/torus).
    if (model.usesDateline()) {
        for (std::size_t s = 0; s < nsw; ++s) {
            _switches[s]->setVcMap(
                [this, s](const PacketHot &, std::size_t in_port,
                          std::size_t out_port,
                          std::uint8_t in_vc) -> std::uint8_t {
                    return _spec.model().vcFor(_spec, s, in_port, out_port,
                                               in_vc);
                });
        }
    }

    // Routing: a static destination table when the path depends only on
    // dst, a per-packet function when it also depends on src (fat-tree
    // per-flow uplink hashing).
    if (model.srcDependentRouting()) {
        for (std::size_t s = 0; s < nsw; ++s) {
            _switches[s]->setRouteFn([this, s](const PacketHot &pkt) {
                const TopologyModel &m = _spec.model();
                if (_rerouter)
                    return m.routePortAvoiding(_spec, s, pkt.src, pkt.dst,
                                               *_rerouter);
                return m.routePort(_spec, s, pkt.src, pkt.dst);
            });
        }
    } else {
        buildRoutes();
    }

    // The reliability sums are registered unconditionally: the layer runs
    // on every link, so a fault-free run that retransmits must show it.
    auto &reg = sys.stats();
    reg.add({_name, "switch_forwarded"}, this,
            [](const Network &n) { return n.switchForwarded(); });
    reg.add({_name, "crc_errors"}, this,
            [](const Network &n) { return n.corruptions(); });
    reg.add({_name, "retransmissions"}, this,
            [](const Network &n) { return n.retransmissions(); });
    reg.add({_name, "dup_discards"}, this,
            [](const Network &n) { return n.duplicateDiscards(); });
    reg.add({_name, "wire_failures"}, this,
            [](const Network &n) { return n.wireFailures(); });
    if (_rerouter) {
        reg.add({_name, "routing_epochs"}, this,
                [](const Network &n) { return n.routingEpochs(); });
        reg.add({_name, "reroutes_applied"}, this,
                [](const Network &n) { return n.reroutesApplied(); });
        reg.add({_name, "dead_trunks_now"}, _rerouter.get(),
                [](const FabricRerouter &r) { return r.deadTrunksNow(); });
    }
}

void
Network::attach(NodeId id, NodeEndpoint &ep)
{
    if (id >= _spec.nodes)
        fatal("attach of node %u beyond topology size %zu", unsigned(id),
              _spec.nodes);

    const std::size_t sw = _spec.switchOf(id);
    const std::size_t port = _spec.portOf(id);
    const double bw = config().linkBytesPerTick;
    const Tick delay = config().linkDelay;

    // Nodes inject on VC0; the downlink drains both VCs into the node's
    // single ingress FIFO (a flow always uses one VC sequence, so this
    // never reorders a flow).
    _channels.push_back(std::make_unique<Channel>(
        _sys, _name + ".up" + std::to_string(id), ep.egress(),
        _switches[sw]->inQueue(port, 0), bw, delay));
    _channels.push_back(std::make_unique<Channel>(
        _sys, _name + ".down" + std::to_string(id),
        std::vector<Channel::Lane>{
            Channel::Lane{&_switches[sw]->outQueue(port, 0), &ep.ingress()},
            Channel::Lane{&_switches[sw]->outQueue(port, 1),
                          &ep.ingress()}},
        bw, delay));
}

void
Network::buildRoutes()
{
    const TopologyModel &model = _spec.model();
    for (std::size_t s = 0; s < _switches.size(); ++s) {
        for (std::size_t n = 0; n < _spec.nodes; ++n) {
            _switches[s]->setRoute(
                static_cast<NodeId>(n),
                model.routePort(_spec, s, /*src=*/0,
                                static_cast<NodeId>(n)));
        }
    }
}

std::uint64_t
Network::switchForwarded() const
{
    std::uint64_t total = 0;
    for (const auto &sw : _switches)
        total += sw->forwarded();
    return total;
}

void
Network::setFailureHandler(Channel::FailureHandler h)
{
    // Channels share the handler; wrap it so each channel's copy routes
    // through the same callable.
    auto shared = std::make_shared<Channel::FailureHandler>(std::move(h));
    for (auto &ch : _channels) {
        ch->setFailureHandler([shared](Packet &&pkt) {
            (*shared)(std::move(pkt));
        });
    }
}

std::uint64_t
Network::corruptions() const
{
    std::uint64_t total = 0;
    for (const auto &ch : _channels)
        total += ch->corruptions();
    return total;
}

std::uint64_t
Network::retransmissions() const
{
    std::uint64_t total = 0;
    for (const auto &ch : _channels)
        total += ch->retransmissions();
    return total;
}

std::uint64_t
Network::duplicateDiscards() const
{
    std::uint64_t total = 0;
    for (const auto &ch : _channels)
        total += ch->duplicateDiscards();
    return total;
}

std::uint64_t
Network::wireFailures() const
{
    std::uint64_t total = 0;
    for (const auto &ch : _channels)
        total += ch->wireFailures();
    return total;
}

std::size_t
Network::hops(NodeId a, NodeId b) const
{
    return _spec.model().hops(_spec, a, b);
}

} // namespace tg::net
