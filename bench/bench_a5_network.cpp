/**
 * @file
 * Experiment A5: interconnect ablation (the switch of refs [16, 17]).
 *
 * Random remote traffic over star / chain / ring topologies while
 * sweeping link bandwidth and switch buffering.  Reports sustained
 * latency and verifies the invariants the paper's protocols rely on:
 * in-order delivery (checked by the test suite) and deadlock freedom
 * (every run drains).
 */

#include <cstdio>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/measure.hpp"
#include "api/segment.hpp"
#include "net/topology.hpp"
#include "workload/traffic.hpp"

using namespace tg;

namespace {

struct RunResult
{
    double runtimeUs = 0;
    double meanWriteUs = 0;
    std::uint64_t forwarded = 0;
    bool drained = false;
};

RunResult
run(net::TopologyKind kind, std::size_t nodes, double link_bw,
    std::uint32_t switch_buf)
{
    ClusterSpec spec =
        ClusterSpec::forKind(kind, nodes, 2).tune([&](Config &c) {
            c.linkBytesPerTick = link_bw;
            c.switchQueuePackets = switch_buf;
        });
    Cluster cluster(spec);

    std::vector<Segment *> segs;
    for (NodeId n = 0; n < NodeId(nodes); ++n)
        segs.push_back(
            &cluster.allocShared("s" + std::to_string(n), 8192, n));

    workload::TrafficConfig cfg;
    cfg.ops = 250;
    cfg.readFraction = 0.25;
    cfg.gap = 500;
    for (NodeId n = 0; n < NodeId(nodes); ++n)
        cluster.spawn(n, workload::randomTraffic(segs, cfg));

    const Tick end = cluster.run(40'000'000'000'000ULL);

    RunResult r;
    r.drained = cluster.allDone();
    r.runtimeUs = toUs(end);
    r.forwarded = cluster.network().switchForwarded();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchReport report("bench_a5_network", argc, argv);
    std::printf("=== A5: interconnect ablation (switch refs [16,17]) ===\n");
    std::printf("uniform random remote traffic, 250 ops/node, 25%% "
                "reads\n\n");

    std::printf("--- topology scaling (default link 35 MB/s) ---\n");
    ResultTable topo({"topology", "nodes", "runtime (us)",
                      "switch packets", "drained"});
    struct TopoCase
    {
        net::TopologyKind kind;
        std::size_t nodes;
    };
    for (const TopoCase &tc :
         {TopoCase{net::TopologyKind::Star, 4},
          TopoCase{net::TopologyKind::Star, 8},
          TopoCase{net::TopologyKind::Chain, 8},
          TopoCase{net::TopologyKind::Ring, 8},
          TopoCase{net::TopologyKind::Ring, 12}}) {
        const RunResult r = run(tc.kind, tc.nodes, 0.035, 32);
        const std::string kind = net::topologyModel(tc.kind).name();
        topo.addRow({kind, std::to_string(tc.nodes),
                     ResultTable::num(r.runtimeUs, 0),
                     std::to_string(r.forwarded),
                     r.drained ? "yes" : "NO (deadlock!)"});
        report.metric("topo." + kind + "." + std::to_string(tc.nodes) +
                          ".runtime_us",
                      r.runtimeUs, "us");
    }
    topo.print();

    std::printf("\n--- link bandwidth sweep (star, 8 nodes) ---\n");
    ResultTable bw({"link MB/s", "runtime (us)"});
    for (double mbps : {10.0, 35.0, 100.0, 400.0}) {
        const RunResult r =
            run(net::TopologyKind::Star, 8, mbps / 1000.0, 32);
        bw.addRow({ResultTable::num(mbps, 0),
                   ResultTable::num(r.runtimeUs, 0)});
        report.metric("bw.star8." + ResultTable::num(mbps, 0) +
                          "mbps.runtime_us",
                      r.runtimeUs, "us");
    }
    bw.print();

    std::printf("\n--- switch buffer sweep (ring, 8 nodes) ---\n");
    ResultTable buf({"buffer (packets)", "runtime (us)", "drained"});
    for (std::uint32_t b : {2u, 4u, 8u, 32u, 128u}) {
        const RunResult r = run(net::TopologyKind::Ring, 8, 0.035, b);
        buf.addRow({std::to_string(b), ResultTable::num(r.runtimeUs, 0),
                    r.drained ? "yes" : "NO (deadlock!)"});
        report.metric("buf.ring8." + std::to_string(b) + "pkt.runtime_us",
                      r.runtimeUs, "us");
    }
    buf.print();

    std::printf("\nshape check: every configuration drains (deadlock "
                "freedom); runtime improves with bandwidth and degrades "
                "gracefully with tiny buffers (back-pressure)\n");
    report.write();
    return 0;
}
