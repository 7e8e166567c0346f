/**
 * @file
 * Experiment R1: goodput and tail latency under injected wire faults.
 *
 * The reliability layer (go-back-N retransmission, see DESIGN.md
 * "Fault model & reliability protocol") keeps Telegraphos usable on a
 * lossy ribbon cable at the cost of retransmission bandwidth and tail
 * latency.  This bench quantifies that cost: a 2-node cluster runs a
 * remote-write stream (goodput) and a remote-read loop (p50/p99
 * latency) at increasing per-hop loss rates.
 *
 * Output: a human-readable table plus one machine-readable JSON line
 * (prefix "JSON:") for plotting scripts.
 */

#include <cstdio>
#include <sstream>
#include <vector>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/measure.hpp"
#include "api/segment.hpp"
#include "sim/stats.hpp"

using namespace tg;

namespace {

struct RunResult
{
    double lossRate = 0;
    double goodputMBs = 0;   ///< delivered payload MB/s of the write stream
    double p50ReadUs = 0;
    double p99ReadUs = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t corruptDiscards = 0;
    std::uint64_t wireFailures = 0;
};

RunResult
run(double loss_rate, int writes, int reads)
{
    ClusterSpec spec =
        ClusterSpec::star(2).seed(1).tune([&](Config &c) {
            c.fault.dropRate = loss_rate;
            c.fault.bitErrorRate = loss_rate;
        });
    Cluster cluster(spec);
    Segment &seg = cluster.allocShared("target", 8192, /*owner=*/0);

    RunResult out;
    out.lossRate = loss_rate;

    Sampler read_lat;
    cluster.spawn(1, [&](Ctx &ctx) -> Task<void> {
        // Goodput: a long write stream, fenced, total payload over time.
        const Tick w0 = ctx.now();
        for (int i = 0; i < writes; ++i)
            co_await ctx.write(seg.word(i % 64), Word(i));
        co_await ctx.fence();
        const double us = toUs(ctx.now() - w0);
        out.goodputMBs = (double(writes) * 8.0) / us; // B/us == MB/s

        // Tail latency: blocking remote reads, sampled individually.
        for (int i = 0; i < reads; ++i) {
            const Tick t0 = ctx.now();
            (void)co_await ctx.read(seg.word(i % 64));
            read_lat.sample(toUs(ctx.now() - t0));
        }
    });
    cluster.run(400'000'000'000ULL);

    out.p50ReadUs = read_lat.quantile(0.50);
    out.p99ReadUs = read_lat.quantile(0.99);
    out.retransmissions = cluster.network().retransmissions();
    out.corruptDiscards = cluster.network().corruptions();
    out.wireFailures = cluster.network().wireFailures();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchReport report("bench_r1_fault_goodput", argc, argv);
    const std::vector<double> rates = {0.0, 1e-6, 1e-4, 1e-2};
    const int writes = 20000;
    const int reads = 2000;

    std::printf("R1: goodput and read latency vs per-hop loss rate "
                "(%d writes, %d reads, 2 nodes)\n\n",
                writes, reads);
    std::printf("  %-10s %12s %12s %12s %10s %10s %8s\n", "loss", "MB/s",
                "p50 rd us", "p99 rd us", "retx", "corrupt", "failed");

    std::vector<RunResult> results;
    for (double r : rates) {
        results.push_back(run(r, writes, reads));
        const RunResult &x = results.back();
        std::printf("  %-10g %12.2f %12.3f %12.3f %10llu %10llu %8llu\n",
                    x.lossRate, x.goodputMBs, x.p50ReadUs, x.p99ReadUs,
                    (unsigned long long)x.retransmissions,
                    (unsigned long long)x.corruptDiscards,
                    (unsigned long long)x.wireFailures);
    }

    std::printf("\nJSON: {\"bench\":\"r1_fault_goodput\",\"results\":[");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &x = results[i];
        std::printf("%s{\"loss\":%g,\"goodput_mbs\":%.3f,"
                    "\"p50_read_us\":%.4f,\"p99_read_us\":%.4f,"
                    "\"retransmissions\":%llu,\"corrupt_discards\":%llu,"
                    "\"wire_failures\":%llu}",
                    i ? "," : "", x.lossRate, x.goodputMBs, x.p50ReadUs,
                    x.p99ReadUs, (unsigned long long)x.retransmissions,
                    (unsigned long long)x.corruptDiscards,
                    (unsigned long long)x.wireFailures);
    }
    std::printf("]}\n");

    for (const RunResult &x : results) {
        std::ostringstream tag;
        tag << "loss" << x.lossRate;
        report.metric(tag.str() + ".goodput_mbs", x.goodputMBs, "MB/s");
        report.metric(tag.str() + ".p50_read_us", x.p50ReadUs, "us");
        report.metric(tag.str() + ".p99_read_us", x.p99ReadUs, "us");
        report.metric(tag.str() + ".retransmissions",
                      double(x.retransmissions));
    }
    report.write();
    return 0;
}
