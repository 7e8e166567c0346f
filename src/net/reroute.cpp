/**
 * @file
 * FabricRerouter implementation: epoch planning at construction,
 * atomic route flips at fenced ticks.
 */

#include "net/reroute.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>

#include "net/fault.hpp"

namespace tg::net {

FabricRerouter::FabricRerouter(System &sys, const std::string &name,
                               const TopologySpec &spec,
                               std::vector<Switch *> switches,
                               const std::vector<TrunkRef> &trunks)
    : SimObject(sys, name), _spec(spec), _switches(std::move(switches)),
      _stride(spec.portsPerSwitch())
{
    const FaultSpec &fs = config().fault;
    const std::uint64_t seed = config().seed;

    // A directed trunk is fabric-dead once its outage outlives the
    // link-down deadline: from that tick Channel::failFast kills
    // everything on the wire, so routing around it is both safe (the old
    // path drains by failing visibly at the same tick) and useful.
    auto dead_intervals = [&](const std::string &link) {
        std::vector<Interval> out;
        FaultInjector inj(fs, seed, link);
        for (const FaultWindow &w : inj.mergedDownWindows()) {
            if (w.until > w.from + fs.linkDownDeadline + 1)
                out.push_back(
                    Interval{w.from + fs.linkDownDeadline + 1, w.until});
        }
        return out;
    };
    for (const TrunkRef &t : trunks) {
        _edges.push_back(Edge{t.t.swA, t.t.portA, t.t.swB,
                              dead_intervals(t.fwdName)});
        _edges.push_back(Edge{t.t.swB, t.t.portB, t.t.swA,
                              dead_intervals(t.revName)});
    }

    _sampleNode.assign(_switches.size(), SIZE_MAX);
    for (std::size_t n = 0; n < _spec.nodes; ++n) {
        const std::size_t sw = _spec.switchOf(n);
        if (_sampleNode[sw] == SIZE_MAX)
            _sampleNode[sw] = n;
    }

    // Sweep interval boundaries into epochs.  Epoch 0 is the baseline
    // (everything alive); each boundary tick where the dead set changes
    // becomes a flip.
    std::vector<Tick> boundaries;
    for (const Edge &e : _edges) {
        for (const Interval &iv : e.dead) {
            boundaries.push_back(iv.from);
            boundaries.push_back(iv.until);
        }
    }
    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());

    Epoch base;
    base.dead.assign(_switches.size() * _stride, 0);
    _epochs.push_back(std::move(base));
    for (const Tick at : boundaries) {
        Epoch ep;
        ep.at = at;
        ep.dead.assign(_switches.size() * _stride, 0);
        for (const Edge &e : _edges) {
            for (const Interval &iv : e.dead) {
                if (at >= iv.from && at < iv.until)
                    ep.dead[edgeIdx(e.sw, e.port)] = 1;
            }
        }
        if (ep.dead == _epochs.back().dead)
            continue; // boundary did not change the dead set
        _epochs.push_back(std::move(ep));
    }

    if (!_spec.model().srcDependentRouting()) {
        for (std::size_t k = 1; k < _epochs.size(); ++k)
            computeNextHops(_epochs[k]);
    }

    for (std::size_t k = 1; k < _epochs.size(); ++k) {
        const Tick at = _epochs[k].at;
        schedule(at > now() ? at - now() : 0,
                 [this, k] { applyEpoch(k); });
    }
}

bool
FabricRerouter::trunkDead(std::size_t sw, std::size_t port) const
{
    const std::vector<std::uint8_t> &d = _epochs[_current].dead;
    const std::size_t i = edgeIdx(sw, port);
    return i < d.size() && d[i] != 0;
}

std::size_t
FabricRerouter::deadTrunksNow() const
{
    const std::vector<std::uint8_t> &d = _epochs[_current].dead;
    return std::size_t(std::count(d.begin(), d.end(), std::uint8_t(1)));
}

void
FabricRerouter::computeNextHops(Epoch &ep) const
{
    const std::size_t nsw = _switches.size();
    const TopologyModel &model = _spec.model();

    // Adjacency over the surviving trunk graph.
    struct Hop
    {
        std::size_t other, port;
    };
    std::vector<std::vector<Hop>> out(nsw), in(nsw);
    for (const Edge &e : _edges) {
        if (ep.dead[edgeIdx(e.sw, e.port)])
            continue;
        out[e.sw].push_back(Hop{e.to, e.port});
        in[e.to].push_back(Hop{e.sw, e.port});
    }

    ep.nextHop.assign(nsw, std::vector<std::size_t>(nsw, SIZE_MAX));
    std::vector<std::size_t> dist(nsw);
    std::deque<std::size_t> queue;
    for (std::size_t t = 0; t < nsw; ++t) {
        if (_sampleNode[t] == SIZE_MAX)
            continue; // no node attaches here; nothing routes to it

        // Reverse BFS from the destination switch: dist[s] = surviving
        // hop count s -> t.
        dist.assign(nsw, SIZE_MAX);
        dist[t] = 0;
        queue.clear();
        queue.push_back(t);
        while (!queue.empty()) {
            const std::size_t v = queue.front();
            queue.pop_front();
            for (const Hop &h : in[v]) {
                if (dist[h.other] == SIZE_MAX) {
                    dist[h.other] = dist[v] + 1;
                    queue.push_back(h.other);
                }
            }
        }

        std::vector<std::size_t> cands;
        for (std::size_t s = 0; s < nsw; ++s) {
            if (s == t)
                continue;
            // Tie-break towards the baseline port: untouched flows keep
            // their paths, and a recovery epoch (nothing dead) restores
            // the original routes exactly, since dimension-ordered
            // baseline routes are shortest.
            const std::size_t base = model.routePort(
                _spec, s, /*src=*/0, NodeId(_sampleNode[t]));
            cands.clear();
            bool have_base = false;
            if (dist[s] != SIZE_MAX) {
                for (const Hop &h : out[s]) {
                    if (dist[h.other] == SIZE_MAX ||
                        dist[h.other] + 1 != dist[s])
                        continue;
                    if (h.port == base)
                        have_base = true;
                    cands.push_back(h.port);
                }
                std::sort(cands.begin(), cands.end());
            }
            if (have_base) {
                ep.nextHop[s][t] = base;
            } else if (!cands.empty()) {
                // Detoured flows: spread (s, t) pairs over every
                // shortest candidate so a downed trunk's load does not
                // pile onto one alternate link (a torus ring losing a
                // bisection crossing would otherwise push all of it
                // through its single surviving crossing).  The hash is a
                // pure function of (s, t) — deterministic across runs.
                const std::uint64_t h =
                    s * 0x9E3779B97F4A7C15ULL ^ t * 0xC2B2AE3D27D4EB4FULL;
                ep.nextHop[s][t] = cands[h % cands.size()];
            } else {
                // Unreachable: keep the baseline route and let the dead
                // link fail the packet fast (endpoint failover story).
                ep.nextHop[s][t] = base;
            }
        }
    }
}

void
FabricRerouter::applyEpoch(std::size_t k)
{
    _current = k;
    ++_flips;
    const Epoch &ep = _epochs[k];
    if (!ep.nextHop.empty()) {
        // Destination-routed fabric: swap whole tables, switch by
        // switch, in index order (deterministic event content).
        for (std::size_t sw = 0; sw < _switches.size(); ++sw) {
            std::vector<std::size_t> routes(_spec.nodes, SIZE_MAX);
            for (std::size_t n = 0; n < _spec.nodes; ++n) {
                const std::size_t ds = _spec.switchOf(n);
                routes[n] = ds == sw ? _spec.portOf(n)
                                     : ep.nextHop[sw][ds];
            }
            _switches[sw]->applyRoutes(std::move(routes));
        }
    } else {
        // Src-routed fabric: the per-packet route function reads this
        // rerouter's current epoch; just re-evaluate stalled heads.
        for (Switch *sw : _switches)
            sw->refreshRoutes();
    }
}

} // namespace tg::net
