/**
 * @file
 * Cluster interconnect topologies.
 *
 * Telegraphos I clusters are built from switch boards connected by ribbon
 * cables to network interfaces and to each other (paper section 2.1,
 * figure 1).  The boards compose into arbitrary multi-switch fabrics; we
 * model the configurations that matter for scaling studies:
 *
 *  - Star:    one central switch, every node one hop away
 *  - Chain:   switches in a line, nodes spread across them
 *  - Ring:    switches in a cycle, shortest-direction routing with a
 *             dateline escape VC (deadlock freedom)
 *  - Torus2D, Torus3D: the 2- and 3-dimensional instances of one
 *             k-ary n-cube model (APEnet+/QCDSP-style): a gx x gy
 *             (x gz) grid of switches with a wraparound ring in every
 *             dimension, dimension-ordered X-then-Y(-then-Z) routing
 *             (Dally & Seitz), and one dateline escape VC per
 *             dimension that keeps it deadlock-free under the
 *             credit/back-pressure flow control
 *  - FatTree: a two-level folded Clos — leaf switches holding the node
 *             ports, spine switches above them, deterministic per-flow
 *             uplink hashing; up/down routing is cycle-free by layering
 *
 * Each shape is described by a TopologyModel: a table of per-topology
 * route/port/switch-count functions that net::Network consumes
 * generically.  Adding a topology means adding a model, not editing the
 * network builder.
 *
 * Multi-path shapes (tori, fat-tree) additionally support fault-aware
 * routing: net::FabricRerouter precomputes per-epoch routes around
 * trunks that FaultSpec down-windows disable (DESIGN.md, "Routing
 * epochs"), using multiPath() / routePortAvoiding() below.
 */

#ifndef TELEGRAPHOS_NET_TOPOLOGY_HPP
#define TELEGRAPHOS_NET_TOPOLOGY_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/expected.hpp"
#include "sim/types.hpp"

namespace tg::net {

struct TopologySpec;

/** Interconnect shape. */
enum class TopologyKind
{
    Star,    ///< one central switch, every node one hop away
    Chain,   ///< switches in a line, nodes spread across them
    Ring,    ///< switches in a cycle, shortest-direction routing
    Torus2D, ///< 2D torus of switches, dimension-ordered (X-Y) routing
    Torus3D, ///< 3D torus of switches, dimension-ordered (X-Y-Z) routing
    FatTree, ///< two-level folded Clos, up/down routing with uplink hash
};

/** Largest port count a single switch board may be configured with. */
constexpr std::size_t kMaxSwitchPorts = 1024;

/**
 * Per-topology behaviour table consumed by net::Network.
 *
 * One stateless instance exists per TopologyKind (see topologyModel());
 * the two torus kinds are two instances of the same torus model.
 * All functions take the spec explicitly so models carry no per-cluster
 * state and can be shared.
 */
class TopologyModel
{
  public:
    /** One bidirectional trunk cable between two switch ports. */
    struct Trunk
    {
        std::size_t swA, portA;
        std::size_t swB, portB;
    };

    virtual ~TopologyModel() = default;

    /** Short lowercase name ("star", "torus2d", ...). */
    virtual const char *name() const = 0;

    /** Number of switches this spec requires (fat-tree: leaves+spines). */
    virtual std::size_t numSwitches(const TopologySpec &s) const = 0;

    /** Switch index a node attaches to. */
    virtual std::size_t switchOf(const TopologySpec &s,
                                 std::size_t node) const = 0;

    /** Port index on its switch a node attaches to. */
    virtual std::size_t portOf(const TopologySpec &s,
                               std::size_t node) const = 0;

    /** Ports switch @p sw needs (node ports + trunks). */
    virtual std::size_t portsOf(const TopologySpec &s,
                                std::size_t sw) const = 0;

    /** Every trunk cable, in deterministic construction order. */
    virtual std::vector<Trunk> trunks(const TopologySpec &s) const = 0;

    /**
     * Output port at switch @p sw for a packet @p src -> @p dst.
     * Deterministic: a (src, dst) flow always takes the same path (the
     * in-order delivery argument of paper section 2.3.1 depends on it).
     */
    virtual std::size_t routePort(const TopologySpec &s, std::size_t sw,
                                  NodeId src, NodeId dst) const = 0;

    /** True when routePort() depends on src (fat-tree uplink hashing);
     *  the network then routes per packet instead of per destination. */
    virtual bool srcDependentRouting() const { return false; }

    /** True when the shape offers redundant switch-to-switch paths a
     *  fault-aware routing layer can exploit (tori, fat-tree). */
    virtual bool multiPath() const { return false; }

    /**
     * Liveness view the fault-aware routing layer exposes to models:
     * is the trunk leaving switch @p sw through output port @p port
     * currently declared dead by the fabric?
     */
    class DeadView
    {
      public:
        virtual ~DeadView() = default;
        virtual bool trunkDead(std::size_t sw, std::size_t port) const = 0;
    };

    /**
     * Fault-aware variant of routePort(): the output port at @p sw for
     * @p src -> @p dst avoiding trunks @p dead declares dead, falling
     * back to the baseline route when no live alternative exists (the
     * packet then fails over at the link, the pre-epoch story).  Only
     * src-dependent models override this (fat-tree alternate-spine
     * rehash); destination-routed fabrics get per-epoch BFS tables from
     * net::FabricRerouter instead.
     */
    virtual std::size_t
    routePortAvoiding(const TopologySpec &s, std::size_t sw, NodeId src,
                      NodeId dst, const DeadView &dead) const
    {
        (void)dead;
        return routePort(s, sw, src, dst);
    }

    /** True when the shape needs a dateline escape-VC map installed. */
    virtual bool usesDateline() const { return false; }

    /**
     * Escape-VC selection (dateline deadlock avoidance): the outgoing VC
     * for a packet entering switch @p sw on @p in_port / @p in_vc and
     * leaving on @p out_port.  Default: keep the incoming VC.
     */
    virtual std::uint8_t
    vcFor(const TopologySpec &, std::size_t /*sw*/, std::size_t /*in_port*/,
          std::size_t /*out_port*/, std::uint8_t in_vc) const
    {
        return in_vc;
    }

    /** Switches traversed on the deterministic route a -> b. */
    virtual std::size_t hops(const TopologySpec &s, NodeId a,
                             NodeId b) const = 0;

    /** Links crossing the worst-case half/half node bisection. */
    virtual std::size_t bisectionWidth(const TopologySpec &s) const = 0;

    /** Reject nonsensical user parameters (never aborts). */
    virtual Expected<void, ConfigError>
    validate(const TopologySpec &s) const = 0;
};

/** The model table entry for @p kind (static, shared, stateless). */
const TopologyModel &topologyModel(TopologyKind kind);

/** Parameters describing an interconnect. */
struct TopologySpec
{
    TopologyKind kind = TopologyKind::Star;
    /** Number of workstation nodes in the cluster. */
    std::size_t nodes = 2;
    /** Node ports per switch (ignored for Star). */
    std::size_t nodesPerSwitch = 4;
    /** Torus2D/Torus3D: switch-grid extent in X (columns). */
    std::size_t torusX = 0;
    /** Torus2D/Torus3D: switch-grid extent in Y (rows). */
    std::size_t torusY = 0;
    /** Torus3D: switch-grid extent in Z (planes; must be 0 for
     *  Torus2D). */
    std::size_t torusZ = 0;
    /** FatTree: number of spine switches (= uplinks per leaf). */
    std::size_t spines = 0;

    /** The per-kind behaviour table. */
    const TopologyModel &model() const { return topologyModel(kind); }

    /** Number of switches this spec requires. */
    std::size_t numSwitches() const { return model().numSwitches(*this); }

    /** Switch index a node attaches to. */
    std::size_t
    switchOf(std::size_t node) const
    {
        return model().switchOf(*this, node);
    }

    /** Port index on its switch a node attaches to. */
    std::size_t
    portOf(std::size_t node) const
    {
        return model().portOf(*this, node);
    }

    /** Ports switch @p sw needs (node ports + trunks). */
    std::size_t portsOf(std::size_t sw) const { return model().portsOf(*this, sw); }

    /** Ports on the widest switch of the fabric. */
    std::size_t portsPerSwitch() const;

    /** Links crossing the worst-case half/half node bisection. */
    std::size_t
    bisectionWidth() const
    {
        return model().bisectionWidth(*this);
    }

    /**
     * Reject nonsensical user parameters.  Returns the rejection instead
     * of aborting: user input is never a simulator invariant (the
     * Network constructor turns the error into fatal()).
     */
    Expected<void, ConfigError> validate() const { return model().validate(*this); }

    /** Human-readable summary: kind, nodes, switches, bisection width. */
    std::string describe() const;
};

} // namespace tg::net

#endif // TELEGRAPHOS_NET_TOPOLOGY_HPP
