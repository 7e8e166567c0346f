/**
 * @file
 * Steady-state allocation audit for the packet datapath (DESIGN.md
 * section 14).  A counting global operator new/delete proves the
 * arena's zero-allocation claim: once the PacketArena chunks, the
 * BoundedQueue rings and the event wheel are warm, a full wave of
 * cross-ring traffic — inject, arbitrate, hop, deliver — performs no
 * heap allocation per packet.  A traced hot-spot wave on a fat-tree
 * extends the claim to contended switch outputs and to a tracer whose
 * open-op table is full.
 *
 * The counting allocator is linked into the whole net_tests binary; it
 * only counts, so the other suites are unaffected.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "net/network.hpp"
#include "sim/stats.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace {
std::atomic<std::uint64_t> g_newCalls{0};

std::uint64_t
allocCount()
{
    return g_newCalls.load(std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t n)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace tg::net {
namespace {

/** Endpoint that counts deliveries without accumulating storage (a
 *  received-packet vector would itself allocate mid-measurement). */
class CountingEndpoint : public NodeEndpoint
{
  public:
    explicit CountingEndpoint(PacketArena &arena, std::size_t cap = 64)
        : _out(arena, cap), _in(arena, cap)
    {
        _in.onData([this] {
            while (!_in.empty()) {
                const Packet p = _in.pop();
                ++received;
                valueSum += p.value;
            }
        });
    }

    BoundedQueue &egress() override { return _out; }
    BoundedQueue &ingress() override { return _in; }

    void
    send(NodeId src, NodeId dst, Word v, std::uint64_t traceId = 0)
    {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.value = v;
        p.traceId = traceId;
        _out.push(std::move(p));
    }

    std::uint64_t received = 0;
    std::uint64_t valueSum = 0;

  private:
    BoundedQueue _out;
    BoundedQueue _in;
};

struct Harness
{
    explicit Harness(const TopologySpec &spec)
        : sys(Config{}), net(sys, "net", spec)
    {
        for (std::size_t n = 0; n < spec.nodes; ++n) {
            eps.push_back(std::make_unique<CountingEndpoint>(sys.arena()));
            net.attach(NodeId(n), *eps.back());
        }
    }

    /** One wave: every node streams @p burst packets three hops around
     *  the ring, then the event queue drains to quiescence.  Each wave
     *  starts phase-aligned to the event wheel (clock advanced to a
     *  multiple of kWheelTicks), so identical waves land in identical
     *  wheel buckets and warm-up capacity carries over exactly. */
    void
    wave(std::size_t burst)
    {
        const std::size_t n = eps.size();
        wave(burst, [n](std::size_t s) { return (s + 3) % n; });
    }

    /** Hot-spot wave: every other node streams @p burst packets to node
     *  0, each opening a tracer op (a no-op id while tracing is off). */
    void
    hotSpotWave(std::size_t burst)
    {
        wave(burst, [](std::size_t) { return std::size_t(0); });
    }

    template <class DstOf>
    void
    wave(std::size_t burst, DstOf dstOf)
    {
        const Tick period = EventQueue::kWheelTicks;
        sys.events().runUntil(((sys.events().now() / period) + 1) * period);
        for (std::size_t s = 0; s < eps.size(); ++s) {
            const std::size_t dst = dstOf(s);
            if (dst == s)
                continue;
            for (std::size_t i = 0; i < burst; ++i)
                eps[s]->send(NodeId(s), NodeId(dst), Word(s * 1000 + i),
                             sys.tracer().beginOp(
                                 trace::OpKind::RemoteWrite));
        }
        sys.events().run();
    }

    System sys;
    Network net;
    std::vector<std::unique_ptr<CountingEndpoint>> eps;
};

TopologySpec
ringSpec(std::size_t nodes)
{
    TopologySpec s;
    s.kind = TopologyKind::Ring;
    s.nodes = nodes;
    s.nodesPerSwitch = 2;
    return s;
}

TEST(PacketAllocTest, SteadyStateWaveDoesNotAllocate)
{
    Harness h(ringSpec(8));
    constexpr std::size_t kBurst = 24;

    // Warm-up: two identical waves size the arena chunks, the queue
    // rings, the reliability windows and the event wheel; capacity is
    // retained between waves.
    h.wave(kBurst);
    h.wave(kBurst);
    const std::uint64_t delivered0 = h.eps[0]->received;
    ASSERT_GT(delivered0, 0u);

    const std::uint64_t chunks0 = h.sys.arena().chunkAllocs();
    const std::uint64_t before = allocCount();
    h.wave(kBurst);
    const std::uint64_t after = allocCount();

    EXPECT_EQ(after, before) << "packet wave hit the heap";
    EXPECT_EQ(h.sys.arena().chunkAllocs(), chunks0)
        << "arena grew after warm-up";
    // The measured wave really moved traffic end to end.
    for (auto &ep : h.eps)
        EXPECT_EQ(ep->received, 3 * kBurst);
    EXPECT_EQ(h.sys.arena().live(), 0u);
}

TopologySpec
fatTreeSpec(std::size_t nodes, std::size_t perLeaf, std::size_t spines)
{
    TopologySpec s;
    s.kind = TopologyKind::FatTree;
    s.nodes = nodes;
    s.nodesPerSwitch = perLeaf;
    s.spines = spines;
    return s;
}

TEST(PacketAllocTest, TracedContendedFatTreeWaveDoesNotAllocate)
{
    // 16 nodes on four 4-node leaves under two spines: the three local
    // inputs and both uplinks of node 0's leaf contend for its port.
    Harness h(fatTreeSpec(16, 4, 2));
    trace::Tracer &t = h.sys.tracer();
    t.setEnabled(true);
    t.setOpenOpCap(32);
    t.setRetainedEventCap(256);
    t.setLifetimeSampleCap(16);
    constexpr std::size_t kBurst = 8;

    h.hotSpotWave(kBurst);
    h.hotSpotWave(kBurst);
    ASSERT_GT(t.evictedOps(), 0u) << "open-op cap not reached in warm-up";
    // Every forward costs two head evaluations; the rest are wake-ups.
    ASSERT_GT(h.net.switchHeadEvals(), 2 * h.net.switchForwarded())
        << "no input ever blocked on a full output";

    const std::uint64_t evicted0 = t.evictedOps();
    const std::uint64_t chunks0 = h.sys.arena().chunkAllocs();
    const std::uint64_t before = allocCount();
    h.hotSpotWave(kBurst);
    const std::uint64_t after = allocCount();

    EXPECT_EQ(after, before) << "traced hot-spot wave hit the heap";
    EXPECT_EQ(h.sys.arena().chunkAllocs(), chunks0);
    EXPECT_EQ(h.eps[0]->received, 3 * 15 * kBurst);
    EXPECT_EQ(t.evictedOps() - evicted0, 15 * kBurst);
    EXPECT_EQ(h.sys.arena().live(), 0u);
}

TEST(PacketAllocTest, ArenaRecyclesSlotsLifo)
{
    System sys{Config{}};
    PacketArena &a = sys.arena();
    const std::uint64_t before = allocCount();

    Packet p;
    p.src = 1;
    p.dst = 2;
    const PacketHandle h1 = a.acquire(std::move(p));
    a.release(h1);
    // LIFO reuse: the very next acquire returns the slot just freed,
    // touching no fresh storage.
    Packet q;
    q.src = 3;
    q.dst = 4;
    const PacketHandle h2 = a.acquire(std::move(q));
    EXPECT_EQ(h2, h1);
    EXPECT_EQ(a.packet(h2).src, 3);
    a.release(h2);

    // One chunk was (at most) created by the first acquire; the reuse
    // cycle after it is allocation-free.
    const std::uint64_t mid = allocCount();
    for (int i = 0; i < 100; ++i) {
        Packet r;
        r.src = NodeId(i);
        a.release(a.acquire(std::move(r)));
    }
    EXPECT_EQ(allocCount(), mid);
    EXPECT_EQ(a.live(), 0u);
    (void)before;
}

TEST(SwitchWakeups, HotSpotFatTreeRoutesFewHeadsPerForward)
{
    // Every forward costs two head evaluations (arrival, departure);
    // the rest are wake-ups of blocked inputs.  A drain wakes only the
    // inputs blocked on the drained output, so the total stays a small
    // multiple of forwards even where every input of a leaf converges
    // on one port.  (Re-pumping every input on every drain costs ~13
    // per forward here.)
    Harness h(fatTreeSpec(16, 4, 2));
    h.hotSpotWave(16);
    ASSERT_EQ(h.eps[0]->received, 15u * 16u);

    const StatRegistry &reg = h.sys.stats();
    const std::optional<double> forwarded = reg.find("net.switch_forwarded");
    const std::optional<double> evals = reg.find("net.switch_head_evals");
    ASSERT_TRUE(forwarded.has_value() && evals.has_value());
    EXPECT_EQ(*evals, double(h.net.switchHeadEvals()));
    EXPECT_GT(*evals, 2.0 * *forwarded) << "the hot spot never contended";
    EXPECT_LE(*evals, 3.0 * *forwarded);
}

} // namespace
} // namespace tg::net
