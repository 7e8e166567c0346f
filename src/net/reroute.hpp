/**
 * @file
 * FabricRerouter: deterministic fault-aware routing epochs.
 *
 * Down-windows live statically in FaultSpec and the per-link injectors
 * derive their outage schedule purely from (window list, link name) — no
 * RNG, no traffic dependence.  That makes the fabric's entire reroute
 * plan computable at construction time: for every directed trunk channel
 * the rerouter takes the injector's merged down-windows, keeps the part
 * of each outage past linkDownDeadline (the instant Channel::failFast
 * starts killing traffic on the wire), and sweeps the resulting
 * intervals into a sequence of *routing epochs* — (tick, set of dead
 * trunks) pairs at which the fabric's routes flip atomically.
 *
 * On such a fabric every switch's routing hook asks route() for its
 * output port.  Each epoch answers from one of two sources: on
 * destination-routed fabrics a switch-to-switch next-hop table, planned
 * by BFS over the surviving trunk graph and tie-broken towards the
 * baseline port so recovery epochs restore the original routes exactly;
 * on src-routed fabrics the model's routePortAvoiding() against this
 * rerouter's DeadView (fat-tree alternate-spine rehash).  A flip only
 * moves the current epoch and re-evaluates the stalled heads of every
 * switch.  Because the flip tick coincides with the dead trunk's
 * fail-fast flush, a flow is never live on both the old and the new
 * path at once (DESIGN.md, "Routing epochs").
 *
 * Everything — epoch ticks, next-hop tables, flip events — is a pure
 * function of (seed, spec, topology), so faulted runs keep the
 * same-seed trace-hash reproducibility contract.
 */

#ifndef TELEGRAPHOS_NET_REROUTE_HPP
#define TELEGRAPHOS_NET_REROUTE_HPP

#include <string>
#include <vector>

#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/sim_object.hpp"

namespace tg::net {

/** Precomputed routing-epoch engine for one Network's switch fabric. */
class FabricRerouter : public SimObject, public TopologyModel::DeadView
{
  public:
    /** One trunk cable as the Network built it: the model's endpoint
     *  descriptor plus the two directed channel names (the names seed
     *  the fault injectors, so they identify the outage schedule). */
    struct TrunkRef
    {
        TopologyModel::Trunk t;
        std::string fwdName; ///< channel swA -> swB
        std::string revName; ///< channel swB -> swA
    };

    FabricRerouter(System &sys, const std::string &name,
                   const TopologySpec &spec,
                   std::vector<Switch *> switches,
                   const std::vector<TrunkRef> &trunks);

    /** Output port at switch @p sw for @p src -> @p dst in the current
     *  epoch: the destination's port on its own switch, the epoch's
     *  next hop towards that switch elsewhere, or, in an epoch without
     *  next hops, the model's routePortAvoiding() against this view. */
    std::size_t route(std::size_t sw, NodeId src, NodeId dst) const;

    /** Is the trunk leaving @p sw through @p port dead in the current
     *  epoch?  (TopologyModel::DeadView, which route() hands to
     *  src-routed models.) */
    bool trunkDead(std::size_t sw, std::size_t port) const override;

    /** Number of planned route flips (epochs beyond the baseline). */
    std::size_t plannedFlips() const { return _epochs.size() - 1; }

    /** Route flips applied so far. */
    std::uint64_t flipsApplied() const { return _flips; }

    /** Directed trunks dead in the current epoch. */
    std::size_t deadTrunksNow() const;

  private:
    /** [from, until): a directed trunk is declared dead by the fabric. */
    struct Interval
    {
        Tick from, until;
    };

    /** One directed switch-to-switch hop with its outage schedule. */
    struct Edge
    {
        std::size_t sw, port, to;
        std::vector<Interval> dead;
    };

    /** Routing state switching in atomically at tick @p at. */
    struct Epoch
    {
        Tick at = 0;
        std::vector<std::uint8_t> dead; ///< by sw * stride + port
        /** Per switch: destination switch -> output port (empty in the
         *  baseline epoch and on src-routed fabrics, which route by the
         *  model against the DeadView). */
        std::vector<std::vector<std::size_t>> nextHop;
    };

    void computeNextHops(Epoch &ep) const;
    void applyEpoch(std::size_t k);
    std::size_t edgeIdx(std::size_t sw, std::size_t port) const
    {
        return sw * _stride + port;
    }

    TopologySpec _spec;
    const TopologyModel *_model; ///< _spec.model(), looked up once
    std::vector<Switch *> _switches;
    std::size_t _stride; ///< ports on the widest switch (bitset stride)
    std::vector<Edge> _edges;
    std::vector<std::size_t> _sampleNode; ///< one attached node per switch
    std::vector<Epoch> _epochs;
    std::size_t _current = 0;
    std::uint64_t _flips = 0;
};

} // namespace tg::net

#endif // TELEGRAPHOS_NET_REROUTE_HPP
