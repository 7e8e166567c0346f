/**
 * @file
 * Differential routing tests: for every topology at several sizes, walk
 * the model's routing function for every (src, dst) pair and check the
 * packet (a) arrives, (b) never loops, and (c) takes exactly as many
 * switch traversals as a BFS shortest-path oracle over the trunk graph
 * predicts.  A same-seed double-run pins the trace hash: topology
 * construction order and routing are part of the determinism contract.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/ring.hpp"
#include "sim/system.hpp"

#include "topology_print.hpp"

namespace tg::net {
namespace {

TopologySpec
star(std::size_t nodes)
{
    TopologySpec s;
    s.nodes = nodes;
    return s;
}

TopologySpec
linear(TopologyKind kind, std::size_t nodes, std::size_t nps)
{
    TopologySpec s;
    s.kind = kind;
    s.nodes = nodes;
    s.nodesPerSwitch = nps;
    return s;
}

TopologySpec
torus(std::size_t x, std::size_t y, std::size_t nps)
{
    TopologySpec s;
    s.kind = TopologyKind::Torus2D;
    s.torusX = x;
    s.torusY = y;
    s.nodesPerSwitch = nps;
    s.nodes = x * y * nps;
    return s;
}

TopologySpec
torus3d(std::size_t x, std::size_t y, std::size_t z, std::size_t nps)
{
    TopologySpec s;
    s.kind = TopologyKind::Torus3D;
    s.torusX = x;
    s.torusY = y;
    s.torusZ = z;
    s.nodesPerSwitch = nps;
    s.nodes = x * y * z * nps;
    return s;
}

TopologySpec
fatTree(std::size_t nodes, std::size_t nps, std::size_t spines)
{
    TopologySpec s;
    s.kind = TopologyKind::FatTree;
    s.nodes = nodes;
    s.nodesPerSwitch = nps;
    s.spines = spines;
    return s;
}

/** Switch-to-switch shortest-path distances over the trunk graph. */
std::vector<std::vector<std::size_t>>
bfsDistances(const TopologySpec &spec)
{
    const std::size_t nsw = spec.numSwitches();
    std::vector<std::vector<std::size_t>> adj(nsw);
    for (const auto &t : spec.model().trunks(spec)) {
        adj[t.swA].push_back(t.swB);
        adj[t.swB].push_back(t.swA);
    }
    constexpr std::size_t kInf = std::size_t(-1);
    std::vector<std::vector<std::size_t>> dist(
        nsw, std::vector<std::size_t>(nsw, kInf));
    for (std::size_t s = 0; s < nsw; ++s) {
        dist[s][s] = 0;
        Ring<std::size_t> q;
        q.push(std::size_t(s));
        while (!q.empty()) {
            const std::size_t u = q.pop();
            for (std::size_t v : adj[u]) {
                if (dist[s][v] == kInf) {
                    dist[s][v] = dist[s][u] + 1;
                    q.push(std::size_t(v));
                }
            }
        }
    }
    return dist;
}

/** (switch, out port) -> neighbour switch, from the trunk table. */
using TrunkMap = std::map<std::pair<std::size_t, std::size_t>, std::size_t>;

TrunkMap
trunkMap(const TopologySpec &spec)
{
    TrunkMap next;
    for (const auto &t : spec.model().trunks(spec)) {
        next[{t.swA, t.portA}] = t.swB;
        next[{t.swB, t.portB}] = t.swA;
    }
    return next;
}

/** Follow routePort() switch by switch; returns traversed switch count
 *  or 0 if the walk got lost (bad port, loop). */
std::size_t
walkRoute(const TopologySpec &spec, const TrunkMap &next, std::size_t src,
          std::size_t dst)
{
    std::size_t sw = spec.switchOf(src);
    const std::size_t limit = 2 * spec.numSwitches() + 2;
    for (std::size_t steps = 1; steps <= limit; ++steps) {
        const std::size_t out =
            spec.model().routePort(spec, sw, NodeId(src), NodeId(dst));
        if (sw == spec.switchOf(dst) && out == spec.portOf(dst))
            return steps; // ejected at the destination's port
        auto it = next.find({sw, out});
        if (it == next.end())
            return 0; // routed into a non-trunk, non-ejection port
        sw = it->second;
    }
    return 0; // loop
}

class RoutingOracle : public ::testing::TestWithParam<TopologySpec>
{
};

TEST_P(RoutingOracle, EveryPairMatchesBfsShortestPath)
{
    const TopologySpec spec = GetParam();
    ASSERT_TRUE(spec.validate().ok());
    const auto dist = bfsDistances(spec);
    const TrunkMap next = trunkMap(spec);

    for (std::size_t src = 0; src < spec.nodes; ++src) {
        for (std::size_t dst = 0; dst < spec.nodes; ++dst) {
            if (src == dst)
                continue;
            const std::size_t want =
                dist[spec.switchOf(src)][spec.switchOf(dst)] + 1;
            ASSERT_EQ(walkRoute(spec, next, src, dst), want)
                << spec.describe() << " " << src << "->" << dst;
            ASSERT_EQ(spec.model().hops(spec, NodeId(src), NodeId(dst)),
                      want)
                << spec.describe() << " hops() " << src << "->" << dst;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, RoutingOracle,
    ::testing::Values(star(4), star(16),
                      linear(TopologyKind::Chain, 16, 2),
                      linear(TopologyKind::Chain, 12, 4),
                      linear(TopologyKind::Ring, 24, 2),
                      linear(TopologyKind::Ring, 12, 4),
                      torus(2, 2, 2), torus(4, 4, 4), torus(3, 5, 2),
                      torus(8, 8, 4),                      // 256 nodes
                      torus3d(2, 2, 2, 2), torus3d(3, 4, 5, 2),
                      torus3d(4, 4, 4, 4),                 // 256 nodes
                      fatTree(16, 4, 4), fatTree(64, 4, 4),
                      fatTree(256, 4, 8)),
    [](const ::testing::TestParamInfo<TopologySpec> &info) {
        std::string name = info.param.model().name();
        name[0] = char(std::toupper(name[0]));
        return name + std::to_string(info.param.nodes) + "x" +
               std::to_string(info.param.numSwitches());
    });

// ---------------------------------------------------------------------
// Determinism: the trace hash of a routed run is reproducible
// ---------------------------------------------------------------------

class StubEndpoint : public NodeEndpoint
{
  public:
    explicit StubEndpoint(PacketArena &arena) : _out(arena, 64), _in(arena, 64)
    {
        _in.onData([this] {
            while (!_in.empty()) {
                ++delivered;
                (void)_in.pop();
            }
        });
    }

    BoundedQueue &egress() override { return _out; }
    BoundedQueue &ingress() override { return _in; }

    std::size_t delivered = 0;

  private:
    BoundedQueue _out;
    BoundedQueue _in;
};

/** Uniform-random traffic over @p spec; returns {trace hash, delivered}. */
std::pair<std::uint64_t, std::size_t>
runRandom(const TopologySpec &spec, std::uint64_t seed)
{
    System sys{Config{}};
    Network net(sys, "net", spec);
    std::vector<std::unique_ptr<StubEndpoint>> eps;
    for (std::size_t n = 0; n < spec.nodes; ++n) {
        eps.push_back(std::make_unique<StubEndpoint>(sys.arena()));
        net.attach(NodeId(n), *eps.back());
    }

    Rng rng(seed);
    std::size_t sent = 0;
    for (int round = 0; round < 6; ++round) {
        for (std::size_t s = 0; s < spec.nodes; ++s) {
            NodeId d = NodeId(rng.below(spec.nodes));
            if (d == NodeId(s))
                d = NodeId((d + 1) % spec.nodes);
            if (!eps[s]->egress().full()) {
                Packet p;
                p.src = NodeId(s);
                p.dst = d;
                p.value = Word(round) << 16 | Word(s);
                eps[s]->egress().push(std::move(p));
                ++sent;
            }
        }
        sys.events().run(rng.below(256));
    }
    sys.events().run();

    std::size_t delivered = 0;
    for (auto &ep : eps)
        delivered += ep->delivered;
    EXPECT_EQ(delivered, sent) << spec.describe();
    return {sys.events().trace().value(), delivered};
}

TEST(RoutingDeterminism, SameSeedRunsHashIdentically)
{
    for (const TopologySpec &spec :
         {linear(TopologyKind::Ring, 16, 2), torus(8, 8, 4),
          torus3d(4, 4, 4, 4), fatTree(256, 4, 8)}) {
        const auto a = runRandom(spec, 99);
        const auto b = runRandom(spec, 99);
        EXPECT_EQ(a.first, b.first) << spec.describe();
        EXPECT_EQ(a.second, b.second) << spec.describe();
        EXPECT_GT(a.second, 0u) << spec.describe();
    }
}

} // namespace
} // namespace tg::net
