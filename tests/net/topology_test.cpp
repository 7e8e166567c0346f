/**
 * @file
 * Unit tests of topology math (switch counts, port assignment, trunk
 * tables, bisection widths, validation) across the three fabric models:
 * the star, the k-ary n-cube (chain, ring, 2D and 3D torus) and the
 * fat-tree.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "net/topology.hpp"

namespace tg::net {
namespace {

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
linear(TopologyKind kind, std::size_t nodes, std::size_t nps)
{
    TopologySpec s;
    s.kind = kind;
    s.nodes = nodes;
    s.nodesPerSwitch = nps;
    return s;
}

TopologySpec
ring(std::size_t nodes, std::size_t nps)
{
    return linear(TopologyKind::Ring, nodes, nps);
}

TopologySpec
chain(std::size_t nodes, std::size_t nps)
{
    return linear(TopologyKind::Chain, nodes, nps);
}

/** FNV-1a over a stream of integers and strings. */
class Digest
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i, v >>= 8) {
            _h ^= v & 0xff;
            _h *= 0x100000001b3ull;
        }
    }

    void add(const std::string &str)
    {
        add(str.size());
        for (unsigned char c : str) {
            _h ^= c;
            _h *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ull;
};

/** Everything a direct-network model decides about @p s that a Network
 *  can observe, folded into one digest: the trunk list, routePort for
 *  every (switch, dst), whether a dateline VC map is installed and, when
 *  it is, vcFor for every (switch, in_port, in_vc, out_port) a Network
 *  can feed it (node up-links inject on VC0 only, so a node port never
 *  carries VC1 in), hops for every node pair, the bisection width and
 *  describe(). */
std::uint64_t
modelDigest(const TopologySpec &s)
{
    const TopologyModel &m = s.model();
    Digest d;
    const std::size_t nsw = s.numSwitches();
    d.add(nsw);
    for (const TopologyModel::Trunk &t : m.trunks(s)) {
        d.add(t.swA);
        d.add(t.portA);
        d.add(t.swB);
        d.add(t.portB);
    }
    d.add(m.usesDateline());
    for (std::size_t sw = 0; sw < nsw; ++sw) {
        const std::size_t ports = s.portsOf(sw);
        d.add(ports);
        for (std::size_t dst = 0; dst < s.nodes; ++dst)
            d.add(m.routePort(s, sw, 0, NodeId(dst)));
        if (!m.usesDateline())
            continue;
        for (std::size_t in = 0; in < ports; ++in) {
            const std::uint8_t vcs = in < s.nodesPerSwitch ? 1 : 2;
            for (std::uint8_t vc = 0; vc < vcs; ++vc)
                for (std::size_t out = 0; out < ports; ++out)
                    d.add(m.vcFor(s, sw, in, out, vc));
        }
    }
    for (std::size_t a = 0; a < s.nodes; ++a)
        for (std::size_t b = 0; b < s.nodes; ++b)
            d.add(m.hops(s, NodeId(a), NodeId(b)));
    d.add(s.bisectionWidth());
    d.add(s.describe());
    return d.value();
}

TEST(Topology, StarHasOneSwitch)
{
    TopologySpec s;
    s.kind = TopologyKind::Star;
    s.nodes = 8;
    EXPECT_EQ(s.numSwitches(), 1u);
    EXPECT_EQ(s.portsPerSwitch(), 8u);
    for (std::size_t n = 0; n < 8; ++n) {
        EXPECT_EQ(s.switchOf(n), 0u);
        EXPECT_EQ(s.portOf(n), n);
    }
    EXPECT_EQ(s.bisectionWidth(), 4u);
}

TEST(Topology, ChainSpreadsNodes)
{
    TopologySpec s;
    s.kind = TopologyKind::Chain;
    s.nodes = 10;
    s.nodesPerSwitch = 4;
    EXPECT_EQ(s.numSwitches(), 3u);
    EXPECT_EQ(s.portsPerSwitch(), 6u); // 4 node ports + 2 trunks
    EXPECT_EQ(s.switchOf(0), 0u);
    EXPECT_EQ(s.switchOf(4), 1u);
    EXPECT_EQ(s.switchOf(9), 2u);
    EXPECT_EQ(s.portOf(5), 1u);
    EXPECT_EQ(s.bisectionWidth(), 1u);

    // One switch is a line without trunks, limited by the node links
    // crossing the cut.
    const TopologySpec one = chain(4, 4);
    ASSERT_TRUE(one.validate().ok());
    EXPECT_TRUE(one.model().trunks(one).empty());
    EXPECT_EQ(one.bisectionWidth(), 2u);
}

TEST(Topology, RingNeedsTwoSwitches)
{
    // The 1-D torus: every dimension that wraps needs extent >= 2.  Two
    // switches make a ring of two parallel cables, wrap link last.
    const TopologySpec two = ring(8, 4);
    ASSERT_TRUE(two.validate().ok());
    EXPECT_EQ(two.numSwitches(), 2u);
    const auto trunks = two.model().trunks(two);
    ASSERT_EQ(trunks.size(), 2u);
    EXPECT_EQ(trunks[0].swA, 0u);
    EXPECT_EQ(trunks[0].swB, 1u);
    EXPECT_EQ(trunks[1].swA, 1u);
    EXPECT_EQ(trunks[1].swB, 0u);
    EXPECT_EQ(two.bisectionWidth(), 2u);
    EXPECT_EQ(two.describe(), "ring(8 nodes, 2 switches, bisection 2)");

    const TopologySpec three = ring(12, 4);
    ASSERT_TRUE(three.validate().ok());
    EXPECT_EQ(three.numSwitches(), 3u);
    EXPECT_EQ(three.bisectionWidth(), 2u);
}

TEST(Topology, SingleSwitchRingIsRejected)
{
    auto v = ring(4, 4).validate();
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.error().message.find("ring"), std::string::npos);
}

TEST(Topology, OneDimensionalValidation)
{
    // A chain accepts every node count, partly filled last switch
    // included; a ring accepts every spec that spans at least two
    // switches.
    for (std::size_t nps = 1; nps <= 6; ++nps) {
        for (std::size_t nodes = 1; nodes <= 40; ++nodes) {
            SCOPED_TRACE(::testing::Message()
                         << nodes << " nodes, " << nps << " per switch");
            const std::size_t nsw = (nodes + nps - 1) / nps;
            EXPECT_TRUE(chain(nodes, nps).validate().ok());
            EXPECT_EQ(ring(nodes, nps).validate().ok(), nsw >= 2);
        }
    }
    EXPECT_FALSE(chain(4, 0).validate().ok());
    EXPECT_FALSE(ring(0, 2).validate().ok());
}

TEST(Topology, SecondPathFollowsWrapLinkOrDimensions)
{
    // multiPath(): some dimension wraps or there are at least two, so a
    // detour exists.  A chain has neither and keeps its single path and
    // its VC; a ring gains routing epochs under down windows.
    EXPECT_FALSE(chain(16, 2).model().multiPath());
    EXPECT_FALSE(chain(16, 2).model().usesDateline());
    EXPECT_TRUE(ring(16, 2).model().multiPath());
    EXPECT_TRUE(ring(16, 2).model().usesDateline());
    EXPECT_TRUE(torus(3, 3, 2).model().multiPath());
    EXPECT_TRUE(torus3d(2, 2, 2, 1).model().multiPath());
    EXPECT_FALSE(TopologySpec().model().multiPath()); // star
}

TEST(Topology, TorusGridMath)
{
    TopologySpec s;
    s.kind = TopologyKind::Torus2D;
    s.torusX = 3;
    s.torusY = 2;
    s.nodesPerSwitch = 2;
    s.nodes = 12;
    ASSERT_TRUE(s.validate().ok());
    EXPECT_EQ(s.numSwitches(), 6u);
    EXPECT_EQ(s.portsPerSwitch(), 6u); // 2 node ports + 4 trunk dirs
    EXPECT_EQ(s.switchOf(0), 0u);
    EXPECT_EQ(s.switchOf(11), 5u);
    EXPECT_EQ(s.portOf(5), 1u);
    EXPECT_EQ(s.bisectionWidth(), 4u); // 2 * min(3, 2)
    // 6 X-ring trunks (3 per row x 2 rows) + 6 Y-ring trunks.
    EXPECT_EQ(s.model().trunks(s).size(), 12u);
}

TEST(Topology, NonRectangularTorusIsRejected)
{
    TopologySpec s;
    s.kind = TopologyKind::Torus2D;
    s.torusX = 3;
    s.torusY = 3;
    s.nodesPerSwitch = 2;
    s.nodes = 17; // does not fill 3x3x2
    auto v = s.validate();
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.error().message.find("non-rectangular"), std::string::npos);
}

TEST(Topology, Torus2dRejectsZExtent)
{
    // A Z extent on a 2D spec is a mistake, not a plane count to ignore.
    TopologySpec s = torus(4, 4, 2);
    ASSERT_TRUE(s.validate().ok());
    s.torusZ = 2;
    auto v = s.validate();
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.error().message.find("Z extent"), std::string::npos);
}

TEST(Topology, Torus3dGridMath)
{
    TopologySpec s;
    s.kind = TopologyKind::Torus3D;
    s.torusX = 4;
    s.torusY = 3;
    s.torusZ = 2;
    s.nodesPerSwitch = 2;
    s.nodes = 48;
    ASSERT_TRUE(s.validate().ok());
    EXPECT_EQ(s.numSwitches(), 24u);
    EXPECT_EQ(s.portsPerSwitch(), 8u); // 2 node ports + 6 trunk dirs
    EXPECT_EQ(s.switchOf(0), 0u);
    EXPECT_EQ(s.switchOf(47), 23u);
    EXPECT_EQ(s.portOf(5), 1u);
    // Cut perpendicular to X (the longest extent): 2 crossings per ring,
    // 24/4 = 6 rings.
    EXPECT_EQ(s.bisectionWidth(), 12u);
    // One trunk per switch per dimension (each ring of length g has g
    // links): 24 X + 24 Y + 24 Z.
    EXPECT_EQ(s.model().trunks(s).size(), 72u);
}

TEST(Topology, Torus3dRejectsFlatDimensions)
{
    TopologySpec s;
    s.kind = TopologyKind::Torus3D;
    s.torusX = 4;
    s.torusY = 4;
    s.torusZ = 1; // a 3D torus degenerated to a plane
    s.nodesPerSwitch = 2;
    s.nodes = 32;
    auto v = s.validate();
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.error().message.find("2x2x2"), std::string::npos);
}

TEST(Topology, NonRectangularTorus3dIsRejected)
{
    TopologySpec s;
    s.kind = TopologyKind::Torus3D;
    s.torusX = 2;
    s.torusY = 2;
    s.torusZ = 2;
    s.nodesPerSwitch = 2;
    s.nodes = 15; // does not fill 2x2x2x2
    auto v = s.validate();
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.error().message.find("non-rectangular"), std::string::npos);
}

TEST(Topology, Torus3dDescribeReportsGrid)
{
    TopologySpec s;
    s.kind = TopologyKind::Torus3D;
    s.torusX = 4;
    s.torusY = 4;
    s.torusZ = 4;
    s.nodesPerSwitch = 4;
    s.nodes = 256;
    const std::string d = s.describe();
    EXPECT_NE(d.find("torus3d"), std::string::npos);
    EXPECT_NE(d.find("4x4x4"), std::string::npos);
    EXPECT_NE(d.find("bisection 32"), std::string::npos);
}

TEST(Topology, TorusModelsMatchGoldenDigests)
{
    // Any change to trunk order, routing, the dateline VC map, hop
    // counts, bisection or describe() changes a digest.
    const struct
    {
        TopologySpec spec;
        std::uint64_t digest;
    } golden[] = {
        {torus(4, 4, 4), 0xa60ecd937eb8d319ull},
        {torus(3, 5, 2), 0x771062c00fb3fc96ull},
        {torus3d(2, 2, 2, 1), 0x9822463ec2417d35ull},
        {torus3d(3, 4, 5, 2), 0xde1ab1cf3acf0ae9ull},
        {torus3d(4, 4, 4, 4), 0xb489266fe09462a6ull},
    };
    for (const auto &g : golden) {
        SCOPED_TRACE(g.spec.describe());
        ASSERT_TRUE(g.spec.validate().ok());
        const std::uint64_t got = modelDigest(g.spec);
        EXPECT_EQ(got, g.digest) << std::hex << "got 0x" << got;
    }
}

TEST(Topology, RingAndChainModelsMatchGoldenDigests)
{
    // As above, for the 1-D shapes: covers partly filled last switches
    // (ring(11, 2), chain(10, 4)) and a single-switch chain.
    const struct
    {
        TopologySpec spec;
        std::uint64_t digest;
    } golden[] = {
        {ring(12, 4), 0x7d1a9a1c99da26a5ull},
        {ring(24, 2), 0xffb352685a4695e1ull},
        {ring(9, 3), 0x639f62fb9754081full},
        {ring(11, 2), 0x0f9c3277bedd93ceull},
        {chain(16, 2), 0xc67264206c8405c9ull},
        {chain(10, 4), 0x152652f8ee83fd48ull},
        {chain(4, 4), 0xeb018a696670bc4dull},
    };
    for (const auto &g : golden) {
        SCOPED_TRACE(g.spec.describe());
        ASSERT_TRUE(g.spec.validate().ok());
        const std::uint64_t got = modelDigest(g.spec);
        EXPECT_EQ(got, g.digest) << std::hex << "got 0x" << got;
    }
}

TEST(Topology, FatTreeLeavesAndSpines)
{
    TopologySpec s;
    s.kind = TopologyKind::FatTree;
    s.nodes = 16;
    s.nodesPerSwitch = 4;
    s.spines = 4;
    ASSERT_TRUE(s.validate().ok());
    EXPECT_EQ(s.numSwitches(), 8u); // 4 leaves + 4 spines
    EXPECT_EQ(s.switchOf(0), 0u);
    EXPECT_EQ(s.switchOf(15), 3u);
    EXPECT_EQ(s.bisectionWidth(), 8u); // 4 spines * (4 leaves / 2)
    // One trunk per (leaf, spine) pair.
    EXPECT_EQ(s.model().trunks(s).size(), 16u);
}

TEST(Topology, FatTreeNeedsSpines)
{
    TopologySpec s;
    s.kind = TopologyKind::FatTree;
    s.nodes = 8;
    s.nodesPerSwitch = 4;
    s.spines = 0;
    auto v = s.validate();
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.error().message.find("spine"), std::string::npos);
}

TEST(Topology, ZeroNodesIsRejected)
{
    TopologySpec s;
    s.nodes = 0;
    EXPECT_FALSE(s.validate().ok());
}

TEST(Topology, DescribeMentionsKind)
{
    TopologySpec s;
    s.kind = TopologyKind::Chain;
    s.nodes = 6;
    s.nodesPerSwitch = 2;
    EXPECT_NE(s.describe().find("chain"), std::string::npos);
}

TEST(Topology, DescribeReportsSwitchCountAndBisection)
{
    TopologySpec s;
    s.kind = TopologyKind::Torus2D;
    s.torusX = 4;
    s.torusY = 4;
    s.nodesPerSwitch = 4;
    s.nodes = 64;
    const std::string d = s.describe();
    EXPECT_NE(d.find("4x4"), std::string::npos);
    EXPECT_NE(d.find("bisection 8"), std::string::npos);
}

} // namespace
} // namespace tg::net
