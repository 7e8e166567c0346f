/**
 * @file
 * Topology model table: per-shape switch/port/route/VC functions for
 * the star, the k-ary n-cube (chain, ring, 2D/3D torus) and the
 * two-level fat-tree.
 */

#include "net/topology.hpp"

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <string>

#include "sim/log.hpp"

namespace tg::net {
namespace {

/** printf-style ConfigError construction. */
ConfigError
reject(const char *fmt, ...)
{
    char buf[192];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return ConfigError{buf};
}

/** Shared rejection: some switch wants more ports than a board has. */
Expected<void, ConfigError>
checkPorts(const TopologySpec &s)
{
    const std::size_t nsw = s.numSwitches();
    for (std::size_t sw = 0; sw < nsw; ++sw) {
        const std::size_t ports = s.portsOf(sw);
        if (ports > kMaxSwitchPorts)
            return reject(
                "switch %zu needs %zu ports; boards max out at %zu", sw,
                ports, kMaxSwitchPorts);
    }
    return {};
}

/** Shared rejections common to every shape. */
Expected<void, ConfigError>
checkCommon(const TopologySpec &s, bool usesPerSwitch)
{
    if (s.nodes < 1)
        return reject("topology needs at least one node");
    if (usesPerSwitch && s.nodesPerSwitch < 1)
        return reject("nodesPerSwitch must be >= 1");
    return {};
}

/** Hop distance around a 1D ring of extent @p g. */
std::size_t
ringDist(std::size_t a, std::size_t b, std::size_t g)
{
    const std::size_t fwd = (b + g - a) % g;
    const std::size_t bwd = (a + g - b) % g;
    return std::min(fwd, bwd);
}

/** True when the shortest a -> b direction is +1 (ties towards +1, so
 *  routing is deterministic — required for in-order delivery).  The
 *  two directions' distances sum to g, so + is shortest when it covers
 *  at most half the ring. */
bool
ringForward(std::size_t a, std::size_t b, std::size_t g)
{
    const std::size_t fwd = b >= a ? b - a : b + g - a;
    return 2 * fwd <= g;
}

// ---------------------------------------------------------------- Star

class StarModel final : public TopologyModel
{
  public:
    const char *name() const override { return "star"; }

    std::size_t numSwitches(const TopologySpec &) const override
    {
        return 1;
    }

    std::size_t switchOf(const TopologySpec &, std::size_t) const override
    {
        return 0;
    }

    std::size_t
    portOf(const TopologySpec &, std::size_t node) const override
    {
        return node;
    }

    std::size_t portsOf(const TopologySpec &s, std::size_t) const override
    {
        return s.nodes;
    }

    std::vector<Trunk> trunks(const TopologySpec &) const override
    {
        return {};
    }

    std::size_t
    routePort(const TopologySpec &, std::size_t, NodeId,
              NodeId dst) const override
    {
        return dst;
    }

    std::size_t
    hops(const TopologySpec &, NodeId a, NodeId b) const override
    {
        return a == b ? 0 : 1;
    }

    std::size_t bisectionWidth(const TopologySpec &s) const override
    {
        // Limited by the node links crossing the cut, not trunks.
        return s.nodes / 2;
    }

    Expected<void, ConfigError>
    validate(const TopologySpec &s) const override
    {
        if (auto r = checkCommon(s, /*usesPerSwitch=*/false); !r)
            return r;
        return checkPorts(s);
    }
};

// ------------------------------------------- Chain, Ring, Torus2D, Torus3D

/**
 * A k-ary n-cube of switches.  Chain and Ring are its n = 1 instances,
 * without and with the wrap link; Torus2D and Torus3D are its n = 2 and
 * n = 3 tori.  Nodes fill switches in id order.  Switch ids are
 * mixed-radix coordinates with X fastest, id = (z * gy + y) * gx + x;
 * dimension d's trunk ports sit above the node ports, + at nps + 2d and
 * - at nps + 2d + 1.  A 1-D cube spans the ceil(nodes / nps) switches
 * its nodes need, so its last switch may be partly filled; an n >= 2
 * cube takes its extents from torusX/Y/Z and must be full.
 */
class CubeModel final : public TopologyModel
{
  public:
    CubeModel(std::size_t dims, bool wrap) : _dims(dims), _wrap(wrap) {}

    const char *name() const override
    {
        if (_dims == 1)
            return _wrap ? "ring" : "chain";
        return _dims == 2 ? "torus2d" : "torus3d";
    }

    std::size_t numSwitches(const TopologySpec &s) const override
    {
        return stride(extents(s), _dims);
    }

    std::size_t
    switchOf(const TopologySpec &s, std::size_t node) const override
    {
        return node / s.nodesPerSwitch;
    }

    std::size_t
    portOf(const TopologySpec &s, std::size_t node) const override
    {
        return node % s.nodesPerSwitch;
    }

    std::size_t portsOf(const TopologySpec &s, std::size_t) const override
    {
        // node ports + a {+, -} trunk pair per dimension
        return s.nodesPerSwitch + 2 * _dims;
    }

    std::vector<Trunk> trunks(const TopologySpec &s) const override
    {
        // One dimension at a time (X rings, then Y, then Z), switches in
        // id order within each; every ring's wrap link falls out at its
        // extent-1 coordinate, and a cube without wrap links skips it.
        // Channel names, and so the per-link fault RNG seeds, follow
        // this order: it is part of the trace-hash contract.
        std::vector<Trunk> out;
        const Extents ext = extents(s);
        const std::size_t nsw = stride(ext, _dims);
        for (std::size_t d = 0; d < _dims; ++d)
            for (std::size_t sw = 0; sw < nsw; ++sw)
                if (_wrap || coords(ext, sw)[d] + 1 < ext[d])
                    out.push_back(
                        Trunk{sw, pos(s, d), next(ext, sw, d), neg(s, d)});
        return out;
    }

    std::size_t
    routePort(const TopologySpec &s, std::size_t sw, NodeId,
              NodeId dst) const override
    {
        // Dimension-ordered routing (Dally & Seitz): correct X fully,
        // then Y, then Z; around a ring the shortest direction, ties
        // towards +, and without a wrap link towards the target.
        const std::size_t t = switchOf(s, dst);
        if (t == sw)
            return portOf(s, dst);
        const Extents ext = extents(s);
        const Extents a = coords(ext, sw);
        const Extents b = coords(ext, t);
        std::size_t d = 0;
        while (a[d] == b[d])
            ++d;
        const bool up =
            _wrap ? ringForward(a[d], b[d], ext[d]) : a[d] < b[d];
        return up ? pos(s, d) : neg(s, d);
    }

    bool usesDateline() const override { return _wrap; }

    bool multiPath() const override { return _wrap || _dims > 1; }

    std::uint8_t
    vcFor(const TopologySpec &s, std::size_t sw, std::size_t in_port,
          std::size_t out_port, std::uint8_t in_vc) const override
    {
        // Per-dimension dateline: every ring has its own wrap-link
        // dateline.  A packet starts each dimension on VC0 (injection,
        // or a turn of dimension-ordered routing) and is bumped to the
        // escape VC when it crosses that dimension's wrap link; it can
        // never cross the same wrap twice, so no buffer-wait cycle
        // closes in either VC.  A line has no wrap link to cross, so a
        // chain keeps every packet on the VC it was injected on.
        if (!_wrap)
            return in_vc;
        const std::size_t nps = s.nodesPerSwitch;
        if (out_port < nps)
            return in_vc; // ejection to a node port
        const std::size_t d = dimOf(s, out_port);
        const Extents ext = extents(s);
        const std::size_t c = coords(ext, sw)[d];
        if (out_port == pos(s, d) ? c == ext[d] - 1 : c == 0)
            return 1; // crossing this dimension's wrap link
        if (in_port < nps || dimOf(s, in_port) != d)
            return 0; // injection or dimension turn: a new ring
        return in_vc;
    }

    std::size_t
    hops(const TopologySpec &s, NodeId a, NodeId b) const override
    {
        if (a == b)
            return 0;
        const std::size_t sa = switchOf(s, a);
        const std::size_t sb = switchOf(s, b);
        const Extents ext = extents(s);
        const Extents ca = coords(ext, sa);
        const Extents cb = coords(ext, sb);
        std::size_t h = 1;
        for (std::size_t d = 0; d < _dims; ++d) {
            h += _wrap ? ringDist(ca[d], cb[d], ext[d])
                       : (ca[d] > cb[d] ? ca[d] - cb[d] : cb[d] - ca[d]);
        }
        return h;
    }

    std::size_t bisectionWidth(const TopologySpec &s) const override
    {
        // Cut perpendicular to the longest dimension: every ring in that
        // dimension crosses the cut twice (a line without its wrap link
        // once), and there are nsw / extent such rings — the longest
        // extent minimizes the crossing count (in 2D, 2 * min(gx, gy)).
        // A single switch is limited by the node links crossing the
        // cut, as in a star.
        const std::size_t nsw = numSwitches(s);
        if (nsw == 1)
            return s.nodes / 2;
        std::size_t gmax = 0;
        for (std::size_t d = 0; d < _dims; ++d)
            gmax = std::max(gmax, extent(s, d));
        return (_wrap ? 2 : 1) * (nsw / gmax);
    }

    Expected<void, ConfigError>
    validate(const TopologySpec &s) const override
    {
        if (auto r = checkCommon(s, /*usesPerSwitch=*/true); !r)
            return r;
        if (_dims == 2 && s.torusZ != 0)
            return reject("torus2d takes no Z extent (got torusZ = %zu)",
                          s.torusZ);
        // A ring needs two switches to have a wrap link; a line of one
        // switch is still a line.
        const std::size_t least = _wrap ? 2 : 1;
        for (std::size_t d = 0; d < _dims; ++d)
            if (extent(s, d) < least)
                return reject("%s dimensions must be at least %s (got %s)",
                              name(), join({least, least, least}).c_str(),
                              grid(s).c_str());
        const std::size_t want = numSwitches(s) * s.nodesPerSwitch;
        if (_dims > 1 && s.nodes != want)
            return reject(
                "non-rectangular %s: %zu nodes does not fill %s switches "
                "at %zu per switch (want %zu)",
                name(), s.nodes, grid(s).c_str(), s.nodesPerSwitch, want);
        return checkPorts(s);
    }

    /** The switch grid, extents joined with 'x' ("12", "4x4", "3x4x5"). */
    std::string grid(const TopologySpec &s) const
    {
        return join(extents(s));
    }

  private:
    /** One value per dimension (extents or coordinates), X first;
     *  unused dimensions 0. */
    using Extents = std::array<std::size_t, 3>;

    std::size_t _dims;
    bool _wrap;

    Extents extents(const TopologySpec &s) const
    {
        if (_dims > 1)
            return {s.torusX, s.torusY, s.torusZ};
        const std::size_t nsw =
            (s.nodes + s.nodesPerSwitch - 1) / s.nodesPerSwitch;
        return {nsw, 0, 0};
    }

    std::size_t extent(const TopologySpec &s, std::size_t d) const
    {
        return extents(s)[d];
    }

    /** Switch-id distance between neighbours in dimension @p d (the
     *  product of the lower extents). */
    static std::size_t stride(const Extents &ext, std::size_t d)
    {
        std::size_t st = 1;
        for (std::size_t i = 0; i < d; ++i)
            st *= ext[i];
        return st;
    }

    /**
     * The grid coordinates of switch @p sw, X first.  Routing asks for
     * them on every hop, so the division is 32-bit, several times
     * cheaper than 64-bit on x86: a switch id is below the node count,
     * which NodeId holds in 16 bits.
     */
    Extents coords(const Extents &ext, std::size_t sw) const
    {
        Extents c{};
        auto rest = std::uint32_t(sw);
        for (std::size_t d = 0; d < _dims; ++d) {
            c[d] = rest % std::uint32_t(ext[d]);
            rest /= std::uint32_t(ext[d]);
        }
        return c;
    }

    /** The + neighbour of @p sw in dimension @p d (wrapping). */
    std::size_t next(const Extents &ext, std::size_t sw, std::size_t d) const
    {
        const std::size_t st = stride(ext, d);
        const std::size_t c = coords(ext, sw)[d];
        return sw - c * st + (c + 1) % ext[d] * st;
    }

    static std::size_t pos(const TopologySpec &s, std::size_t d)
    {
        return s.nodesPerSwitch + 2 * d;
    }

    static std::size_t neg(const TopologySpec &s, std::size_t d)
    {
        return s.nodesPerSwitch + 2 * d + 1;
    }

    /** Dimension of a trunk port. */
    static std::size_t dimOf(const TopologySpec &s, std::size_t trunkPort)
    {
        return (trunkPort - s.nodesPerSwitch) / 2;
    }

    /** The first _dims values joined with 'x'. */
    std::string join(const Extents &v) const
    {
        std::string out = std::to_string(v[0]);
        for (std::size_t d = 1; d < _dims; ++d) {
            out += 'x';
            out += std::to_string(v[d]);
        }
        return out;
    }
};

// -------------------------------------------------------------- FatTree

class FatTreeModel final : public TopologyModel
{
  public:
    const char *name() const override { return "fattree"; }

    std::size_t numSwitches(const TopologySpec &s) const override
    {
        return leaves(s) + s.spines;
    }

    std::size_t
    switchOf(const TopologySpec &s, std::size_t node) const override
    {
        return node / s.nodesPerSwitch; // leaf index
    }

    std::size_t
    portOf(const TopologySpec &s, std::size_t node) const override
    {
        return node % s.nodesPerSwitch;
    }

    std::size_t
    portsOf(const TopologySpec &s, std::size_t sw) const override
    {
        // Leaves: node ports + one uplink per spine.  Spines: one
        // downlink per leaf.
        return sw < leaves(s) ? s.nodesPerSwitch + s.spines : leaves(s);
    }

    std::vector<Trunk> trunks(const TopologySpec &s) const override
    {
        std::vector<Trunk> out;
        const std::size_t nl = leaves(s);
        for (std::size_t l = 0; l < nl; ++l)
            for (std::size_t j = 0; j < s.spines; ++j)
                out.push_back(
                    Trunk{l, s.nodesPerSwitch + j, nl + j, l});
        return out;
    }

    bool srcDependentRouting() const override { return true; }

    bool multiPath() const override { return true; }

    std::size_t
    routePort(const TopologySpec &s, std::size_t sw, NodeId src,
              NodeId dst) const override
    {
        // Up/down routing: a leaf sends cross-leaf traffic up the
        // spine chosen by a deterministic (src, dst) hash — one path
        // per flow, so per-flow order is preserved — and spines send
        // straight down to the destination leaf.  The channel graph is
        // layered (up then down), hence cycle-free without VCs.
        const std::size_t nl = leaves(s);
        const std::size_t t = switchOf(s, dst);
        if (sw >= nl)
            return t; // spine: downlink port = leaf index
        if (t == sw)
            return portOf(s, dst);
        return s.nodesPerSwitch + uplinkHash(src, dst, s.spines);
    }

    std::size_t
    routePortAvoiding(const TopologySpec &s, std::size_t sw, NodeId src,
                      NodeId dst, const DeadView &dead) const override
    {
        // Alternate-spine rehash: starting at the flow's baseline spine,
        // probe spines in deterministic (hash + k) order and take the
        // first whose full up/down path is alive — the source leaf's
        // uplink and the spine's downlink to the destination leaf.  All
        // flows displaced by the same dead trunk land on the same
        // alternate, and recovery epochs restore the baseline exactly
        // (k = 0 wins again once the trunk is back).
        const std::size_t nl = leaves(s);
        const std::size_t t = switchOf(s, dst);
        if (sw >= nl)
            return t; // spine downlinks have no alternative
        if (t == sw)
            return portOf(s, dst);
        const std::size_t base = uplinkHash(src, dst, s.spines);
        for (std::size_t k = 0; k < s.spines; ++k) {
            const std::size_t j = (base + k) % s.spines;
            if (!dead.trunkDead(sw, s.nodesPerSwitch + j) &&
                !dead.trunkDead(nl + j, t))
                return s.nodesPerSwitch + j;
        }
        // No live spine path: keep the baseline route and let the link
        // layer fail the packet fast (endpoint failover story).
        return s.nodesPerSwitch + base;
    }

    std::size_t
    hops(const TopologySpec &s, NodeId a, NodeId b) const override
    {
        if (a == b)
            return 0;
        return switchOf(s, a) == switchOf(s, b) ? 1 : 3;
    }

    std::size_t bisectionWidth(const TopologySpec &s) const override
    {
        const std::size_t nl = leaves(s);
        // Half the leaves reach the other half through every spine.
        return nl > 1 ? s.spines * (nl / 2) : s.nodes / 2;
    }

    Expected<void, ConfigError>
    validate(const TopologySpec &s) const override
    {
        if (auto r = checkCommon(s, /*usesPerSwitch=*/true); !r)
            return r;
        if (s.spines < 1)
            return reject("a fat-tree needs at least one spine switch");
        return checkPorts(s);
    }

  private:
    static std::size_t leaves(const TopologySpec &s)
    {
        return (s.nodes + s.nodesPerSwitch - 1) / s.nodesPerSwitch;
    }

    /** Deterministic per-flow spine selection (splitmix-style mix). */
    static std::size_t
    uplinkHash(NodeId src, NodeId dst, std::size_t spines)
    {
        std::uint64_t h = (std::uint64_t(src) + 1) * 0x9E3779B97F4A7C15ull;
        h ^= (std::uint64_t(dst) + 1) * 0xC2B2AE3D27D4EB4Full;
        h ^= h >> 29;
        h *= 0xBF58476D1CE4E5B9ull;
        h ^= h >> 32;
        return std::size_t(h % spines);
    }
};

} // namespace

const TopologyModel &
topologyModel(TopologyKind kind)
{
    static const StarModel star;
    static const CubeModel chain{1, /*wrap=*/false};
    static const CubeModel ring{1, /*wrap=*/true};
    static const CubeModel torus2d{2, /*wrap=*/true};
    static const CubeModel torus3d{3, /*wrap=*/true};
    static const FatTreeModel fatTree;
    switch (kind) {
    case TopologyKind::Star:
        return star;
    case TopologyKind::Chain:
        return chain;
    case TopologyKind::Ring:
        return ring;
    case TopologyKind::Torus2D:
        return torus2d;
    case TopologyKind::Torus3D:
        return torus3d;
    case TopologyKind::FatTree:
        return fatTree;
    }
    panic("unknown topology kind %d", int(kind));
}

std::size_t
TopologySpec::portsPerSwitch() const
{
    std::size_t widest = 0;
    const std::size_t nsw = numSwitches();
    for (std::size_t sw = 0; sw < nsw; ++sw)
        widest = std::max(widest, portsOf(sw));
    return widest;
}

std::string
TopologySpec::describe() const
{
    char buf[128];
    if (const auto *cube = dynamic_cast<const CubeModel *>(&model()))
        std::snprintf(buf, sizeof(buf),
                      "%s(%zu nodes, %s switches, bisection %zu)",
                      cube->name(), nodes, cube->grid(*this).c_str(),
                      bisectionWidth());
    else if (kind == TopologyKind::FatTree)
        std::snprintf(
            buf, sizeof(buf),
            "fattree(%zu nodes, %zu leaves + %zu spines, bisection %zu)",
            nodes, numSwitches() - spines, spines, bisectionWidth());
    else
        std::snprintf(buf, sizeof(buf),
                      "%s(%zu nodes, %zu switches, bisection %zu)",
                      model().name(), nodes, numSwitches(),
                      bisectionWidth());
    return buf;
}

} // namespace tg::net
